"""Traced-run hygiene: wrappers exist only inside the traced pass,
spans nest, and each traced pass states its own overhead.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json

import pytest

from perfbench import run
from perfbench.hostspeed import HostSampler
from perfbench.tracing import (
    TARGETS,
    Span,
    Tracer,
    module_group,
    profile_metrics,
    span_metrics,
)
from perfbench.workloads import Fig8Exact, MatrixExact, StreamArch, StreamSampled
from repro.core.sampling import SamplingPlan


def owners():
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner = module if target.owner is None else getattr(module,
                                                            target.owner)
        yield owner, target.attribute


def small_workloads(tmp_path):
    """Seconds-long stand-ins exercising every wrapped layer."""
    return [
        Fig8Exact(1, tmp_path, iterations=3_000),
        MatrixExact(1, tmp_path, kernels=("crc32", "fir")),
        StreamSampled(1, tmp_path, kernel="crc32",
                      plan=SamplingPlan(n_windows=4, window_length=200,
                                        ramp_length=100, seed=0),
                      sizes=(1024, 4096)),
        StreamArch(1, tmp_path, kernel="crc32"),
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every small workload run once with spans (timed as the traced run
    times them, sampling excluded), then once without."""
    tmp_path = tmp_path_factory.mktemp("checkout")
    sampler = HostSampler()
    tracer = Tracer(clock=sampler.clock_ns)
    results = []
    for workload in small_workloads(tmp_path):
        with tracer.installed(), sampler.measure():
            workload.setup()
            traced_result = workload.run_pass(tracer.span)
        spans_after_tracing = len(tracer.spans)
        plain_result = workload.run_pass()
        results.append((workload, traced_result, plain_result,
                        spans_after_tracing, len(tracer.spans)))
    return tracer, results


def test_wrappers_exist_only_inside_the_traced_block():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in owners()}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (owner, attr), original in originals.items():
                assert vars(owner)[attr] is not original
            raise RuntimeError("a failing traced pass still restores")
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_untraced_passes_record_no_spans_and_match(traced):
    _, results = traced
    for workload, traced_result, plain_result, before, after in results:
        assert after == before, workload.name
        assert traced_result.failed == plain_result.failed == 0, (
            workload.name, traced_result.errors, plain_result.errors)
        assert traced_result.fingerprint == plain_result.fingerprint
        assert traced_result.counts == plain_result.counts


def test_children_never_exceed_parents(traced):
    tracer, _ = traced
    assert tracer.spans
    names = {span.name for span in tracer.spans}
    assert {"sim.run", "cpu.iu.run", "translator.run",
            "translator.fast_forward", "archstate.capture",
            "archstate.restore", "sampling.measure_window",
            "resultcache.get", "resultcache.put",
            "resultcache.rerun", "toolchain.compile"} <= names
    for span in tracer.spans:
        assert span.self_ns >= 0, span.name
        parent = span.parent
        if parent is not None:
            assert parent.start_ns <= span.start_ns <= span.end_ns \
                <= parent.end_ns, (parent.name, span.name)


def test_nested_family_spans_count_once():
    outer = Span("translator.run", 0, 10_000_000_000,
                 work={"cycles": 7})
    inner = Span("translator.fast_forward", 1_000_000_000,
                 9_000_000_000, parent=outer, work={"cycles": 7})
    outer.children_ns = inner.duration_ns
    metrics = span_metrics([outer, inner])
    assert metrics["translator.run_s"] == 10.0
    assert metrics["translator.ksteps_per_s"] == pytest.approx(7e-4)


def test_profile_shares_cover_all_self_time():
    self_s = {"cpu.blockcache": 1.0, "translated_code": 3.0, "other": 4.0}
    metrics = profile_metrics(self_s)
    assert sum(v for k, v in metrics.items()
               if k.startswith("self_pct.")) == pytest.approx(100.0)
    assert metrics["translator.dispatch_frac"] == pytest.approx(0.25)
    root = run.SOURCE / "repro"
    assert module_group(str(root / "cache" / "cache.py"), root) == \
        "cache.cache"
    assert module_group(str(root / "toolchain" / "cc" / "parser.py"),
                        root) == "toolchain"
    assert module_group("<block 0x40000000>", root) == "translated_code"
    assert module_group(json.__file__, root) is None


def test_traced_run_reports_every_layer_metric_and_both_overheads(tmp_path):
    workload = StreamSampled(2, tmp_path, kernel="crc32",
                             plan=SamplingPlan(n_windows=4,
                                               window_length=200,
                                               ramp_length=100, seed=0),
                             sizes=(1024,))
    metrics, passes = run.traced_run(workload, HostSampler())
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"fail_frac"}
    assert declared <= set(metrics)
    assert len(passes) == 4
    assert all(p.result.failed == 0 for p in passes)
    spans_pct = metrics["trace.overhead_pct.span"]
    profiler_pct = metrics["trace.overhead_pct.profiler"]
    assert spans_pct != profiler_pct
    assert profiler_pct > 0
    assert metrics["sampling.measure_s"] > 0
    assert metrics["count.translator.blocks_executed"] > 0
