"""Sampled simulation: the wall-clock claim of record.

For each long-running registry kernel (~1-2 M instructions), evaluating
a configuration point by sampling must cost at most a tenth of the
full-detail cycle-accurate run, with the full run's true cycle count
inside the sampled 95% confidence interval.  The protocol matches how
sampling is actually used: a serial sweep over one architectural
family, where every point shares the memoised survey and recording
passes (they are architectural, hence config-independent) and pays
only for replaying its own ramps and windows from the recording.  The
full-detail baseline is the accurate engine's whole-program run
(``Simulator.run``) — same simulator construction, same obs
configuration.
"""

from __future__ import annotations

import time

import pytest

from repro.core import ArchitectureConfig, ConfigurationSpace, SweepRunner
from repro.core.sampling import SamplingPlan
from repro.core.sim import Simulator
from repro.workloads import get

from .conftest import print_table

#: Acceptance floor: full-detail seconds over per-point sampled seconds.
SPEEDUP_FLOOR = 10.0
#: One architectural family — the D-cache sweep the paper's Figure 8
#: walks, so the sampled points answer a real experimental question.
SWEEP_SIZES = [1024, 2048, 4096, 8192]
PLAN_SEED = 0

#: kernel -> (n_windows, window_length, ramp_length), grid-searched for
#: interval coverage (see tests/core/test_sampling_stats.py for the
#: small-kernel half of the tuning story).
PLANS = {
    "xtea_stream": (24, 1000, 2048),
    "fir_stream": (16, 500, 2048),
    "ipsum_stream": (32, 500, 2048),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_sampled_point_speedup_and_coverage(benchmark, name):
    """≥10x per point with truth inside the 95% CI, per kernel."""
    n, length, ramp = PLANS[name]
    workload = get(name)
    image = workload.image()
    base = ArchitectureConfig()

    start = time.perf_counter()
    report = Simulator(base, capture_memory_trace=False).run(
        image, max_instructions=workload.max_instructions)
    full_seconds = time.perf_counter() - start
    truth = report.cycles
    assert workload.check(report.result_word)

    space = ConfigurationSpace(base)
    space.add_dimension("dcache_size", SWEEP_SIZES)
    plan = SamplingPlan(n_windows=n, window_length=length,
                        ramp_length=ramp, seed=PLAN_SEED)

    result = {}

    def sampled_sweep():
        start = time.perf_counter()
        result["outcome"] = SweepRunner(workers=0).sweep(
            space, image, max_instructions=workload.max_instructions,
            sampling=plan)
        result["seconds"] = time.perf_counter() - start
        return result["seconds"]

    benchmark.pedantic(sampled_sweep, rounds=1, iterations=1)
    outcome, sweep_seconds = result["outcome"], result["seconds"]
    points = outcome.points
    per_point = sweep_seconds / len(points)
    speedup = full_seconds / per_point

    # Every point is a real, self-checked execution of the kernel.
    for point in points:
        assert workload.check(point.result_word), point.config.key()
        assert point.sampled["total_instructions"] == report.instructions

    baseline = next(p for p in points
                    if p.config.dcache.size == base.dcache.size)
    estimate = baseline.sampled["estimated_cycles"]
    ci_half = baseline.sampled["cycles_ci_half"]
    covered = ci_half is not None and abs(truth - estimate) <= ci_half

    benchmark.extra_info["full_detail_s"] = round(full_seconds, 2)
    benchmark.extra_info["sampled_per_point_s"] = round(per_point, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["truth_cycles"] = truth
    benchmark.extra_info["estimated_cycles"] = round(estimate)
    benchmark.extra_info["ci_half_cycles"] = round(ci_half)
    print_table(
        f"Sampled vs full-detail evaluation ({name})",
        ["protocol", "seconds/point", "cycles"],
        [["full detail", f"{full_seconds:.2f}", f"{truth:,}"],
         ["sampled (4-point family sweep)", f"{per_point:.2f}",
          f"{estimate:,.0f} ± {ci_half:,.0f}"],
         ["speedup", f"{speedup:.1f}x", f">= {SPEEDUP_FLOOR}x required"]])

    assert speedup >= SPEEDUP_FLOOR, (
        f"{name}: sampled evaluation is only {speedup:.1f}x full detail "
        f"(floor {SPEEDUP_FLOOR}x)")
    assert covered, (
        f"{name}: truth {truth} outside the 95% interval "
        f"{estimate:.0f} ± {ci_half:.0f}")
