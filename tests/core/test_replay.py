"""Trace-driven replay in the sweep: full-detail points are recorded once
per (image, architecture) and replayed, byte-identical to the accurate
engine — and every point that cannot be replayed falls back visibly.
Sampled points replay their windows the same way, and fall back the
same way.

Replay's exactness over many programs and configurations is the
difftest's timing column (``tests/difftest/harness.py``); these tests
pin the sweep integration, the fallbacks and the premises replay rests
on.
"""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import pytest

from repro.cache.cache import CacheGeometry
from repro.core import ArchitectureConfig, ConfigurationSpace, ResultCache
from repro.core.replay import FALLBACK_CAUSES, Replayer, record
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import Simulator
from repro.core.sweep import REPLAYED, SweepRunner, _evaluate_group, _evaluate_task
from repro.cpu.blockcache import RecordingUnit
from repro.cpu.traps import WatchdogExpired
from repro.obs.metrics import MetricsRegistry
from repro.toolchain.driver import compile_c_program
from repro.workloads import get
from tests.difftest.harness import OracleRunner, build
from tests.golden.regen import CONFLICT_SOURCE

KERNEL = r"""
int table[512];

int main(void) {
    int i, round, sum = 0;
    for (i = 0; i < 512; i++) table[i] = i * 3;
    for (round = 0; round < 3; round++)
        for (i = 0; i < 512; i += 8) sum += table[i];
    return sum & 0xFFFF;
}
"""

PROLOGUE = """
    .text
    .global _start
_start:
    set 0x40170000, %sp
"""
EPILOGUE = """
    set 0x40000008, %g7
    st %l0, [%g7]
    ta 0
    nop
"""


@pytest.fixture(scope="module")
def image():
    return compile_c_program(KERNEL)


def _space() -> ConfigurationSpace:
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 4096])
    return space


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot()["counters"]


def _fallbacks(registry: MetricsRegistry, cause: str) -> int:
    return _counters(registry)[f"sweep.replay_fallbacks{{cause={cause}}}"]


def test_sweep_replays_every_exact_point(image):
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep(_space(), image)
    counters = _counters(registry)
    assert counters["sweep.replayed_points"] == 2
    assert all(_fallbacks(registry, cause) == 0 for cause in FALLBACK_CAUSES)
    for point in outcome.points:
        task = (point.config, image, 20_000_000, None)
        accurate, _ = _evaluate_task(task)
        assert point.cycles == accurate["cycles"]
        assert point.obs == accurate["obs"]


def test_serial_parallel_and_disk_rerun_are_identical(image, tmp_path):
    serial = SweepRunner(workers=0).sweep(_space(), image)
    registry = MetricsRegistry()
    parallel = SweepRunner(workers=2, cache=ResultCache(tmp_path),
                           obs=registry).sweep(_space(), image)
    rerun = SweepRunner(cache=ResultCache(tmp_path)).sweep(_space(), image)
    assert _counters(registry)["sweep.replayed_points"] == 2
    assert rerun.stats.disk_hits == 2
    canonical = [p.canonical_json() for p in serial.points]
    assert [p.canonical_json() for p in parallel.points] == canonical
    assert [p.canonical_json() for p in rerun.points] == canonical


def test_prefetch_point_falls_back_and_is_counted(image):
    base = ArchitectureConfig()
    prefetching = base.with_prefetch("nextline")
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep([base, prefetching], image)
    assert _counters(registry)["sweep.replayed_points"] == 1
    assert _fallbacks(registry, "prefetch") == 1
    accurate, _ = _evaluate_task((prefetching, image, 20_000_000, None))
    assert "prefetch" in accurate["dcache"]
    point = outcome.points[1]
    assert point.dcache == accurate["dcache"]
    assert point.canonical_json() == SweepRunner._point(
        1, prefetching, point.image_digest, point.fingerprint, accurate,
        "simulated", 0.0).canonical_json()


def test_mmio_reads_do_not_observe_timing():
    """The premise replay rests on: the Simulator's clock never
    advances, so the cycle counter and the other APB registers read the
    same under any cache configuration — timing cannot leak into what
    the program computes."""
    program = build(PROLOGUE + """
    set 0x80000100, %g1          ! FPX cycle counter
    mov 1, %g2
    st %g2, [%g1 + 4]            ! arm it
    mov 2, %o5
again:
    set 0x40020000, %o0
    set 256, %o1
sweep:
    ld [%o0], %o2                ! 32-byte stride over 8 KB, twice: the
    add %o0, 32, %o0             ! second pass hits at 16K, not at 1K
    deccc %o1
    bg sweep
    nop
    deccc %o5
    bg again
    nop
    ld [%g1], %l0                ! elapsed cycles
    ld [%g1 + 4], %o3            ! running flag
    set 0x80000070, %g3
    ld [%g3 + 4], %o4            ! UART status
    sll %o3, 16, %o3
    sll %o4, 24, %o4
    or %l0, %o3, %l0
    or %l0, %o4, %l0
""" + EPILOGUE)
    small = ArchitectureConfig().with_dcache_size(1024)
    large = ArchitectureConfig().with_dcache_size(16384)
    reports = [Simulator(config).run(program)
               for config in (small, large)]
    assert reports[0].cycles > reports[1].cycles
    assert reports[0].result_word == reports[1].result_word
    assert reports[0].result_word & 0xFFFF == 0  # the count never moves
    assert reports[0].result_word >> 16 & 1 == 1  # armed and running
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep([small, large], program)
    assert _counters(registry)["sweep.replayed_points"] == 2
    assert [p.cycles for p in outcome.points] == [r.cycles for r in reports]


def test_code_store_without_flush_falls_back():
    """A store into code that is fetched again with no FLUSH between
    is the one case the accurate engine's I-cache serves a stale word;
    replay refuses it and the accurate engine measures the point."""
    program = build(PROLOGUE + """
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    set 3, %o3
    mov 0, %l0
top:
target:
    add %l0, 1, %l0
    st %o1, [%o2]                ! patch the loop body, no flush
    deccc %o3
    bg top
    nop
    ba done
    nop
patch:
    add %l0, 5, %l0
done:
""" + EPILOGUE)
    config = ArchitectureConfig()
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep([config], program)
    assert _fallbacks(registry, "smc") == 1
    accurate, _ = _evaluate_task((config, program, 20_000_000, None))
    assert outcome.points[0].cycles == accurate["cycles"]
    assert outcome.points[0].obs == accurate["obs"]
    # A sampled point of it falls back too, to the accurate oracle.
    plan = SamplingPlan(n_windows=2, window_length=6, ramp_length=4)
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep([config], program,
                                              sampling=plan)
    assert _fallbacks(registry, "smc") == 1
    assert _counters(registry)["sweep.replayed_points"] == 0
    oracle = OracleRunner(config).run(program, plan)
    assert _canonical(outcome.points[0].sampled) == \
        _canonical(oracle.to_record())


def test_bus_fault_falls_back():
    """A data access that faults on the bus is not replayed.  The
    program installs its own trap table so it survives the fault (the
    boot ROM's would park it in error_state)."""
    program = build(PROLOGUE + """
    set 0x40040090, %o0          ! trap table at 0x40040000, slot tt 9
    set handler, %o1
    ld [%o1], %o2
    st %o2, [%o0]
    ld [%o1 + 4], %o2
    st %o2, [%o0 + 4]
    flush [%o0]
    rd %tbr, %l5
    set 0x40040000, %o3
    wr %o3, %tbr
    nop
    nop
    nop
    set 0x60000000, %o4          ! cacheable, but nothing decodes it
    ld [%o4], %o5
    wr %l5, %tbr
    nop
    nop
    nop
    mov 7, %l0
    ba done
    nop
handler:
    jmp %l2                      ! skip the faulting load
    rett %l2 + 4
done:
""" + EPILOGUE)
    config = ArchitectureConfig()
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep([config], program)
    assert outcome.points[0].result_word == 7
    assert _fallbacks(registry, "bus_error") == 1
    accurate, _ = _evaluate_task((config, program, 20_000_000, None))
    assert outcome.points[0].obs == accurate["obs"]


@pytest.mark.parametrize("policy", ["lru", "lrr", "random"])
@pytest.mark.parametrize("kernel", ["ipcheck", "conflict"])
def test_sampled_windows_replay_set_associative_caches(kernel, policy):
    """At a window's start the accurate engine keeps the ramp's lines
    but restarts the replacement state; replayed windows must do the
    same on both cache sides to match it (``ipcheck`` evicts I-cache
    lines inside windows, the conflict kernel D-cache lines)."""
    image = (get(kernel).image(0) if kernel != "conflict"
             else compile_c_program(CONFLICT_SOURCE))
    config = replace(
        ArchitectureConfig(),
        icache=CacheGeometry(size=512, line_size=32, ways=2,
                             replacement=policy),
        dcache=CacheGeometry(size=1024, line_size=32, ways=2,
                             replacement=policy))
    plan = SamplingPlan(n_windows=3, window_length=400, ramp_length=256,
                        seed=5)
    runner = SampledRunner(config)
    run = runner.run(image, plan)
    assert runner.path == REPLAYED
    assert run.canonical_json() == \
        OracleRunner(config).run(image, plan).canonical_json()


def test_sampled_prefetch_point_falls_back(image):
    """A sampled point with a prefetching D-cache is measured on the
    accurate oracle (checkpoints, then single-step windows) and counted
    under its cause; the family's other point replays its windows.
    Both records are the oracle's, byte for byte."""
    plan = SamplingPlan(n_windows=3, window_length=300, ramp_length=200,
                        seed=1)
    stock = ArchitectureConfig()
    configs = [stock, stock.with_prefetch("nextline")]
    registry = MetricsRegistry()
    outcome = SweepRunner(obs=registry).sweep(configs, image, sampling=plan)
    assert _counters(registry)["sweep.replayed_points"] == 1
    assert _fallbacks(registry, "prefetch") == 1
    for point, config in zip(outcome.points, configs):
        oracle = OracleRunner(config).run(image, plan)
        assert _canonical(point.sampled) == _canonical(oracle.to_record())


def test_watchdog_raises_as_on_the_accurate_engine(image):
    task = (ArchitectureConfig(), image, 2_000, None)
    with pytest.raises(WatchdogExpired) as accurate:
        _evaluate_task(task)
    with pytest.raises(WatchdogExpired) as replayed:
        _evaluate_group([task])
    assert str(replayed.value) == str(accurate.value)


def test_group_replays_each_point_from_one_recording(image):
    configs = list(_space()) + [
        ArchitectureConfig(multiplier="iterative"),
        ArchitectureConfig().with_pipeline_depth(7)]
    tasks = [(config, image, 20_000_000, None) for config in configs]
    results = _evaluate_group(tasks)
    assert [path for _, _, path in results] == [REPLAYED] * len(tasks)
    for task, (replayed, _, _) in zip(tasks, results):
        accurate, _ = _evaluate_task(task)
        assert _canonical(replayed) == _canonical(accurate)


@pytest.mark.usefixtures("translate_on_first_entry")
def test_recording_is_a_separate_block_variant(image):
    """Plain translated blocks carry no recording code (so the
    architectural fast path keeps its speed); recording blocks log."""
    plain = Simulator(obs=False)
    unit = plain.translated_unit()
    plain._dispatch_on(unit, image)
    assert unit._blocks
    assert not any("_EV" in block.source or "_D(" in block.source
                   for block in unit._blocks.values())
    recorded = record(ArchitectureConfig(), image, 20_000_000)
    sources = [block.source for block in recorded.recording.blocks]
    assert all("_EV(" in source for source in sources)
    assert any("_D(" in source for source in sources)


def test_a_recording_is_freed_by_refcount(image):
    """Translated blocks hold no reference cycle, so a recording's
    columns are freed with its last reference, not at whatever later
    collection happens to find the cycle."""
    config = ArchitectureConfig()
    gc.disable()
    try:
        recorded = record(config, image, 20_000_000)
        Replayer(recorded).report(config)
        recording = recorded.recording
        refs = [weakref.ref(recording), weakref.ref(recording.events),
                weakref.ref(recording.refs)]
        del recorded, recording
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_replay_reports_totals_since_construction(image):
    """``dcache``/``icache`` are totals since the machine was built
    (boot included); ``cycles`` and ``obs`` cover the program window."""
    config = ArchitectureConfig()
    report = Replayer(record(config, image, 20_000_000)).report(config)
    window_misses = report.obs["counters"][
        "cache.read_misses{cache=icache}"]
    assert report.icache["read_misses"] > window_misses > 0
    assert report.cycles == report.obs["counters"]["pipeline.cycles"]


def test_recording_unit_keeps_the_step_contract(image):
    """The recording engine executes the same steps as the plain
    translated engine: same retired count and same final pc."""
    sims = [Simulator(obs=False)
            for _ in range(2)]
    plain = sims[0].translated_unit()
    sims[0]._dispatch_on(plain, image)
    recording = sims[1]._fast_unit(RecordingUnit)
    sims[1]._dispatch_on(recording, image)
    for sim, unit in zip(sims, (plain, recording)):
        unit.run(max_instructions=1_000_000,
                 until_pc=sim.rom_info.poll_address)
    assert plain.cycles == recording.cycles
    assert plain.instret == recording.instret
    assert plain.pc == recording.pc


def test_flushing_loop_does_not_grow_the_recording_blocks():
    """FLUSH drops every translation, so a loop that flushes is
    re-translated each iteration; identical code keeps its block id."""
    program = build(PROLOGUE + """
    set 200, %o0
    mov 0, %l0
loop:
    flush [%o0]
    add %l0, 1, %l0
    deccc %o0
    bg loop
    nop
""" + EPILOGUE)
    recorded = record(ArchitectureConfig(), program, 20_000_000)
    assert recorded.result_word == 200
    assert len(recorded.recording.events) > 400
    assert len(recorded.recording.blocks) < 40
    config = ArchitectureConfig()
    accurate, _ = _evaluate_task((config, program, 20_000_000, None))
    assert Replayer(recorded).report(config).cycles == accurate["cycles"]
