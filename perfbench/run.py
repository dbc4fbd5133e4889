"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig8_exact --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/`` next to this directory.  ``--trace 0`` sets up, then runs
closed-loop passes (one point in flight, no threads) for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json``.  Times are
reported in reference seconds (see :mod:`perfbench.hostspeed`), because
raw wall time on a shared host swings by more than any bound.  ``--trace
1`` runs a pass with layer spans between two plain passes, then one
pass under the deterministic profiler, and reports the per-layer
metrics plus the overhead of each traced pass against the plain ones.
Every pass checks its simulated answers and prints a sha256 of its
canonical records.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCE = CHECKOUT / "src"
#: Set-ups per run: this process's own plus fresh child processes.
SETUP_REPEATS = 3
#: Peak memory is read after this many passes, so that it measures the
#: same work however many passes fit in ``--seconds`` (the process
#: keeps a little memory per pass).
RSS_PASSES = 2


def add_source_path() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable, or
    exit with an error when this checkout has no simulator source."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SOURCE}")
    for path in (str(CHECKOUT), str(SOURCE)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Pass:
    result: object
    wall_s: float
    calib_s: float
    #: Reference seconds (None when the pass ran without the sampler).
    reference_s: float | None = None


def timed_pass(workload, label: str, phase=None, sampler=None) -> Pass:
    from perfbench.hostspeed import calibrate

    calib_s = calibrate()
    start = time.perf_counter()
    if sampler is None:
        result = workload.run_pass(phase)
        reference, host_line = None, ""
    else:
        with sampler.measure() as host:
            result = workload.run_pass(phase)
        reference = host.reference_s
        host_line = (f"wall_ref_s={reference:.4f} "
                     f"host_slowdown={host.slowdown:.4f} ")
    wall_s = time.perf_counter() - start
    print(f"{label}: wall_s={wall_s:.4f} {host_line}"
          f"host.calib_s={calib_s:.4f} attempted={result.attempted} "
          f"failed={result.failed} sha256={result.fingerprint}",
          flush=True)
    for error in result.errors:
        print(f"{label}: FAILED {error}", file=sys.stderr)
    return Pass(result, wall_s, calib_s, reference)


def check_determinism(passes: list[Pass]) -> None:
    """A pass whose records differ from the first pass's fails whole."""
    reference = passes[0].result
    for run in passes[1:]:
        if (run.result.fingerprint != reference.fingerprint
                or run.result.counts != reference.counts):
            run.result.fail_all("records differ from the first pass")


def child_setup_seconds(args) -> float:
    """Set-up reference seconds in a fresh interpreter (imports too)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(done.stdout.split()[-1])


def timed_run(workload, args, setup_s: float,
              sampler) -> tuple[dict, list[Pass]]:
    setups = [setup_s]
    setups += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    passes: list[Pass] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        passes.append(timed_pass(workload, f"pass {len(passes) + 1}",
                                 sampler=sampler))
        if len(passes) <= RSS_PASSES:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_determinism(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": statistics.median(p.reference_s for p in passes),
        "kips_ref": statistics.median(
            p.result.instructions / p.reference_s / 1000 for p in passes),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return metrics, passes


def traced_run(workload, sampler) -> tuple[dict, list[Pass]]:
    """Per-layer metrics; *workload* must not be set up yet, so that
    its compiles are traced too."""
    from perfbench.tracing import (
        Tracer,
        profile_metrics,
        profile_self_time,
        ratio,
        span_metrics,
    )
    from perfbench.workloads import COUNTS

    tracer = Tracer(clock=sampler.clock_ns)
    with tracer.installed():
        workload.setup()
    # Plain passes bracket the span pass, and all three are compared in
    # reference seconds, so neither a first-pass warm-up nor a change in
    # host speed reads as tracing overhead.  The profiler pass runs
    # unsampled (the profiler would time the quanta too); its overhead
    # is far above the host noise.
    before = timed_pass(workload, "plain pass 1", sampler=sampler)
    with tracer.installed():
        spanned = timed_pass(workload, "span pass", tracer.span, sampler)
    after = timed_pass(workload, "plain pass 2", sampler=sampler)
    plain_s = (before.wall_s + after.wall_s) / 2
    plain_ref_s = (before.reference_s + after.reference_s) / 2
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = timed_pass(workload, "profiler pass")
    finally:
        profile.disable()
    passes = [before, spanned, after, profiled]
    check_determinism(passes)

    counts = {name: spanned.result.counts[name] for name in COUNTS}
    metrics = {
        "host.wall_s": plain_s,
        "host.calib_s": statistics.median(p.calib_s for p in passes),
        "trace.overhead_pct.span": 100 * (spanned.reference_s
                                          / plain_ref_s - 1),
        "trace.overhead_pct.profiler": 100 * (profiled.wall_s / plain_s - 1),
        "ci_rel": spanned.result.ci_rel,
        **span_metrics(tracer.spans),
        **profile_metrics(profile_self_time(profile, SOURCE / "repro")),
        **counts,
    }
    misses = counts["count.dcache.read_misses"]
    accurate = counts["count.sampling.accurate_steps"]
    metrics["dcache.miss_rate"] = ratio(
        misses, misses + counts["count.dcache.read_hits"])
    metrics["translator.reuse"] = ratio(
        metrics["count.translator.blocks_executed"],
        metrics["count.translator.blocks_translated"])
    metrics["sampling.accurate_frac"] = ratio(
        accurate, accurate + counts["count.sampling.ff_steps"])
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print its reference seconds")
    args = parser.parse_args(argv)

    add_source_path()
    from perfbench.hostspeed import HostSampler

    sampler = HostSampler()
    # Set-up: import the simulator, compile the images, build the space
    # (the traced run sets up under its spans instead).
    with sampler.measure() as setup:
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} "
                         f"(have {', '.join(WORKLOADS)})")
        workload = WORKLOADS[args.workload](args.seed, CHECKOUT)
        if not args.trace:
            workload.setup()
    if args.setup_only:
        print(setup.reference_s)
        return 0

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, passes = traced_run(workload, sampler)
        declared = spec["per_layer"]
    else:
        metrics, passes = timed_run(workload, args, setup.reference_s,
                                    sampler)
        declared = spec["end_to_end"]
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    metrics["fail_frac"] = failed / attempted
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
