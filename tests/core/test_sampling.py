"""Unit surface of :mod:`repro.core.sampling`: plan validation, window
placement, the CLT estimator on synthetic observations (degenerate
cases included), record round-trips, one end-to-end conservation
check on a registry kernel, the fastpath series in a run's obs, and
(marked slow) sampled sweeps and checkpoint-resumed windows.

The statistical *coverage* claims live in ``test_sampling_stats.py``
(slow, marked ``sampling``).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.cache.cache import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.sampling import (
    HEAD_INDEX,
    METRICS,
    SampledRunner,
    SamplingPlan,
    estimate_windows,
    head_spec,
    measure_window,
    place_windows,
    z_score,
)
from repro.core.sim import Simulator
from repro.core.sweep import ResultCache, SweepRunner
from repro.toolchain.driver import compile_c_program
from repro.workloads import all_workloads, get

#: A loop retiring ~43k instructions: long enough for several windows.
LOOP = """
unsigned data[256];
int main(void) {
    unsigned i, sum = 0;
    for (i = 0; i < 1200; i++) { sum += data[i & 255] + i; data[i & 255] = sum; }
    return (int)sum;
}
"""


def synthetic_window(index: int, cycles: int, instructions: int = 1000,
                     **overrides) -> dict:
    window = {
        "index": index, "ramp_start": 0, "start": 0, "end": instructions,
        "planned_steps": instructions, "steps": instructions,
        "instructions": instructions, "cycles": cycles,
        "fetch_stall_cycles": 10, "mem_stall_cycles": 20, "traps": 0,
        "ramp_steps": 0, "ramp_instructions": 0, "instruction_mix": {},
        "dcache": {"read_misses": 4, "write_misses": 1},
        "icache": {"read_misses": 2},
    }
    window.update(overrides)
    return window


class TestSamplingPlan:
    def test_defaults_are_valid(self):
        plan = SamplingPlan()
        assert plan.n_windows >= 1
        assert plan.confidence == 0.95

    @pytest.mark.parametrize("kwargs", [
        {"n_windows": 0},
        {"window_length": 0},
        {"ramp_length": -1},
        {"confidence": 0.5},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingPlan(**kwargs)

    def test_fingerprint_token_encodes_every_knob(self):
        a = SamplingPlan(n_windows=4, window_length=200, ramp_length=64,
                         seed=7, confidence=0.90)
        assert a.fingerprint_token() == "smp4w200r64s7c90"
        for other in (a.__class__(n_windows=5, window_length=200,
                                  ramp_length=64, seed=7, confidence=0.90),
                      a.__class__(n_windows=4, window_length=200,
                                  ramp_length=64, seed=8, confidence=0.90)):
            assert other.fingerprint_token() != a.fingerprint_token()

    def test_unsupported_confidence_lists_options(self):
        with pytest.raises(ValueError, match="0.95"):
            z_score(0.42)


class TestPlacement:
    PLAN = SamplingPlan(n_windows=8, window_length=100, ramp_length=50,
                        seed=3)

    def test_windows_are_sorted_and_disjoint(self):
        _, specs = place_windows(100_000, self.PLAN, start=100)
        assert len(specs) == 8
        prev_end = 100
        for spec in specs:
            assert spec.ramp_start >= prev_end
            assert spec.ramp_start <= spec.start < spec.end
            assert spec.end - spec.start <= self.PLAN.window_length
            prev_end = spec.end
        assert specs[-1].end <= 100_000

    def test_placement_is_deterministic_in_seed(self):
        a = place_windows(50_000, self.PLAN)
        b = place_windows(50_000, self.PLAN)
        assert a == b
        _, other = place_windows(
            50_000, SamplingPlan(n_windows=8, window_length=100,
                                 ramp_length=50, seed=4))
        assert [s.start for s in other] != [s.start for s in a[1]]

    def test_strides_get_independent_offsets(self):
        """Stratified placement: the per-stride offsets must not all be
        equal (that would reintroduce periodic-program aliasing)."""
        _, specs = place_windows(1_000_000, self.PLAN)
        spacing = 1_000_000 / 8
        offsets = {spec.start - int(i * spacing)
                   for i, spec in enumerate(specs)}
        assert len(offsets) > 1

    def test_window_longer_than_region_degenerates_to_whole_region(self):
        offset, specs = place_windows(
            500, SamplingPlan(n_windows=4, window_length=1000))
        assert offset == 0
        assert len(specs) == 1
        assert (specs[0].start, specs[0].end) == (0, 500)

    def test_empty_region_places_nothing(self):
        assert place_windows(100, self.PLAN, start=100) == (0, [])

    def test_more_windows_than_fit_is_clamped(self):
        _, specs = place_windows(
            450, SamplingPlan(n_windows=64, window_length=100))
        assert len(specs) == 450 // 100

    def test_head_spec_is_clipped_to_the_program(self):
        plan = SamplingPlan(window_length=1000)
        head = head_spec(300, plan)
        assert head.index == HEAD_INDEX
        assert (head.ramp_start, head.start, head.end) == (0, 0, 300)
        assert head_spec(10_000, plan).end == 1000


class TestEstimator:
    def test_single_window_claims_no_interval(self):
        estimates = estimate_windows([synthetic_window(0, 1500)])
        cpi = estimates["cpi"]
        assert cpi.mean == 1.5
        assert cpi.std is None and cpi.ci_half is None
        assert cpi.relative == float("inf")
        assert cpi.covers(123456.0)  # vacuously true: no claim made

    def test_zero_variance_windows_collapse_the_interval(self):
        windows = [synthetic_window(i, 1200) for i in range(8)]
        cpi = estimate_windows(windows)["cpi"]
        assert cpi.mean == 1.2
        assert cpi.std == 0.0 and cpi.ci_half == 0.0
        assert cpi.covers(1.2) and not cpi.covers(1.2001)

    def test_interval_widens_with_confidence(self):
        windows = [synthetic_window(0, 1000), synthetic_window(1, 2000)]
        narrow = estimate_windows(windows, confidence=0.80)["cpi"]
        wide = estimate_windows(windows, confidence=0.99)["cpi"]
        assert narrow.mean == wide.mean == 1.5
        assert wide.ci_half > narrow.ci_half > 0

    def test_zero_instruction_windows_are_excluded(self):
        windows = [synthetic_window(0, 1500),
                   synthetic_window(1, 0, instructions=0, steps=0)]
        assert estimate_windows(windows)["cpi"].n == 1

    def test_every_metric_is_reported(self):
        estimates = estimate_windows(
            [synthetic_window(i, 1000 + i) for i in range(4)])
        assert set(estimates) == set(METRICS)


@pytest.fixture(scope="module")
def crc_image():
    return get("crc32").image()


@pytest.fixture(scope="module")
def crc_run(crc_image):
    plan = SamplingPlan(n_windows=4, window_length=400, ramp_length=256,
                        seed=1)
    return SampledRunner().run(crc_image, plan)


class TestSampledRun:
    def test_phases_partition_the_program_exactly(self, crc_run):
        """The satellite conservation property at unit scale: phase
        retired-instruction counts sum to the survey's exact total and
        phase step counts tile [0, total_steps) with no gaps."""
        run = crc_run
        assert sum(p["instructions"] for p in run.phases) \
            == run.total_instructions
        assert sum(p["steps"] for p in run.phases) == run.total_steps
        position = 0
        for phase in run.phases:
            assert phase["start"] == position
            position = phase["end"]
        assert position == run.total_steps

    def test_head_is_measured_not_estimated(self, crc_run):
        head = crc_run.head
        assert head["index"] == HEAD_INDEX
        assert head["start"] == 0
        assert head["steps"] == head["planned_steps"]
        assert crc_run.estimated_cycles >= head["cycles"]

    def test_record_round_trips_through_json(self, crc_run):
        record = json.loads(crc_run.canonical_json())
        assert record["plan"]["n_windows"] == 4
        assert record["total_steps"] == crc_run.total_steps
        assert len(record["windows"]) == len(crc_run.windows)
        assert record["estimated_cycles"] == crc_run.estimated_cycles

    def test_self_check_passes_on_the_survey_outputs(self, crc_run):
        assert get("crc32").check(crc_run.result_word)

    def test_summary_lines_render(self, crc_run):
        text = "\n".join(crc_run.summary_lines())
        assert "sampled run" in text and "est. cycles" in text


class TestSimulatorIntegration:
    def test_run_sampled_updates_obs_counters(self, crc_image):
        from repro.obs.metrics import MetricsRegistry

        runner = SampledRunner()
        plan = SamplingPlan(n_windows=2, window_length=300, ramp_length=128)
        run = runner.run(crc_image, plan)
        registry = MetricsRegistry()
        runner.publish_obs(registry)
        totals = registry.snapshot()["counters"]
        assert totals["sampling.runs"] == 1
        assert totals["sampling.windows"] == len(run.windows)
        assert totals["sampling.checkpoints"] == len(run.windows) + 1
        assert totals["sampling.measured_steps"] == run.measured_steps()

    def test_runs_are_byte_identical(self, crc_image):
        plan = SamplingPlan(n_windows=3, window_length=300, ramp_length=128,
                            seed=9)
        a = SampledRunner().run(crc_image, plan)
        b = SampledRunner().run(crc_image, plan)
        assert a.canonical_json() == b.canonical_json()

    def test_auto_mode_grows_until_target(self, crc_image):
        runner = SampledRunner()
        plan = SamplingPlan(n_windows=2, window_length=300, ramp_length=128)
        run = runner.run_auto(crc_image, plan,
                              target_relative_error=0.5)
        assert run.auto, "auto log must record the rounds"
        assert run.auto[-1]["n_windows"] >= 2
        # one survey serves every round
        assert runner.counters["sampling.runs"] == len(run.auto)


class TestLongRunningRegistry:
    def test_long_kernels_are_excluded_by_default(self):
        default = {w.name for w in all_workloads()}
        full = {w.name for w in all_workloads(include_long=True)}
        long_names = {"xtea_stream", "fir_stream", "ipsum_stream"}
        assert long_names & default == set()
        assert long_names <= full

    def test_long_kernels_declare_the_flag(self):
        for name in ("xtea_stream", "fir_stream", "ipsum_stream"):
            workload = get(name)
            assert workload.long_running
            assert workload.max_instructions >= 4_000_000


@pytest.fixture(scope="module")
def loop_image():
    return compile_c_program(LOOP)


@pytest.mark.slow
class TestSweepSampling:
    """Satellite determinism contract: identical (image, plan, seed)
    must yield byte-identical sampled records serially, in parallel
    workers, and on a ResultCache re-run."""

    CONFIGS = [ArchitectureConfig().with_dcache_size(size)
               for size in (1024, 4096)]
    PLAN = SamplingPlan(n_windows=3, window_length=400, ramp_length=256,
                        seed=5)

    def test_serial_parallel_and_rerun_are_byte_identical(
            self, loop_image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        serial = runner.sweep(self.CONFIGS, loop_image, sampling=self.PLAN)
        parallel = SweepRunner(workers=2).sweep(
            self.CONFIGS, loop_image, sampling=self.PLAN)
        rerun = SweepRunner(cache=ResultCache(tmp_path)).sweep(
            self.CONFIGS, loop_image, sampling=self.PLAN)
        assert rerun.stats.simulated == 0  # served entirely from disk
        for a, b, c in zip(serial.points, parallel.points, rerun.points):
            assert a.canonical_json() == b.canonical_json()
            assert a.canonical_json() == c.canonical_json()
            assert a.sampled is not None
            assert a.sampled == b.sampled == c.sampled

    def test_sampled_points_match_direct_runs(self, loop_image):
        outcome = SweepRunner().sweep([self.CONFIGS[0]], loop_image,
                                      sampling=self.PLAN)
        point = outcome.points[0]
        direct = SampledRunner(self.CONFIGS[0]).run(loop_image, self.PLAN)
        assert point.sampled["estimated_cycles"] == direct.estimated_cycles
        assert point.cycles == int(round(direct.estimated_cycles))
        assert point.instructions == direct.total_instructions
        assert point.fingerprint.endswith(
            f"-{self.PLAN.fingerprint_token()}")
        assert "sampling.runs" in point.obs["counters"]

    def test_full_detail_and_sampled_never_collide(self, loop_image,
                                                   tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        sampled = runner.sweep([self.CONFIGS[0]], loop_image,
                               sampling=self.PLAN)
        whole = runner.sweep([self.CONFIGS[0]], loop_image)
        assert whole.stats.simulated == 1
        assert (sampled.points[0].fingerprint
                != whole.points[0].fingerprint)
        assert whole.points[0].sampled is None


def test_dcache_size_sweep_walks_each_window_once(monkeypatch, crc_image):
    """A sampled sweep group hands its points to the replayer, so the
    first point's replay of a window walks the window's data stream for
    all four direct-mapped D-cache sizes at once, and the other points
    read their counts from that walk."""
    from repro.cache import cache
    from repro.core.replay import Replayer

    dcaches = [CacheGeometry(size=size) for size in (1024, 2048, 4096, 8192)]
    configs = [replace(ArchitectureConfig(), dcache=geometry)
               for geometry in dcaches]
    plan = SamplingPlan(n_windows=3, window_length=300, ramp_length=128,
                        seed=2)
    families, sides, windows = [], [], []
    family_walk, side, window = (cache._family_walk, Replayer._side,
                                 Replayer.window)

    def spy_family_walk(family, *args):
        if sides[-1:] == ["dcache"]:
            families.append(tuple(family))
        return family_walk(family, *args)

    def spy_side(self, which, *args):
        sides.append(which)
        try:
            return side(self, which, *args)
        finally:
            sides.pop()

    def spy_window(self, *args):
        windows.append(args)
        return window(self, *args)

    monkeypatch.setattr(cache, "_family_walk", spy_family_walk)
    monkeypatch.setattr(Replayer, "_side", spy_side)
    monkeypatch.setattr(Replayer, "window", spy_window)
    outcome = SweepRunner().sweep(configs, crc_image, sampling=plan)
    assert all(point.sampled is not None for point in outcome.points)
    spans = len(windows) // len(configs)
    assert spans > 1 and len(windows) == spans * len(configs)
    assert families == [tuple(dcaches)] * spans


#: A tiny 4-way random D-cache with a stride prefetcher: replay cannot
#: time the prefetcher, so a sampled run takes the checkpoint fallback,
#: and the loop evicts inside each window, so the windows depend on the
#: replacement generator's state at the window start.
RANDOM_STRIDE = replace(
    ArchitectureConfig(),
    dcache=CacheGeometry(size=64, line_size=8, ways=4,
                         replacement="random"),
    prefetch="stride")


@pytest.mark.slow
class TestCheckpointResumedWindows:
    """A window measured from a restored mid-program ArchState must be
    byte-identical to the same window reached by stepping straight
    through on the accurate engine — the checkpoint carries everything
    architectural, and the canonical window-start state covers the
    rest, the replacement generator included."""

    @pytest.mark.parametrize("config, path", [
        (ArchitectureConfig(), "replayed"),
        (RANDOM_STRIDE, "prefetch"),
    ], ids=["stock", "random4-stride"])
    def test_resumed_equals_straight_through(self, loop_image, config,
                                             path):
        plan = SamplingPlan(n_windows=2, window_length=400,
                            ramp_length=256, seed=2)
        runner = SampledRunner(config)
        run = runner.run(loop_image, plan)
        assert runner.path == path
        assert run.windows, "plan must place at least one window"

        survey = runner._survey(loop_image, 50_000_000)
        head = head_spec(survey["steps"], plan)
        _, specs = place_windows(survey["steps"], plan, start=head.end)

        sim = Simulator(config)
        cpu = sim.cpu
        tags = sim.dcache.cache.tags
        seeded = np.random.default_rng(tags.seed).bit_generator.state
        sim._dispatch_on(cpu, loop_image)
        poll = sim.rom_info.poll_address
        position = 0
        for spec, resumed in zip(specs, run.windows):
            budget = spec.ramp_start - position
            steps = 0
            while steps < budget and cpu.pc != poll:
                cpu.step()
                steps += 1
            position = spec.ramp_start
            if config.dcache.replacement == "random":
                assert sim.dcache.stats.evictions > 0
                assert tags.rng.bit_generator.state != seeded
            sim._normalize_window_start()
            straight = measure_window(sim, spec, poll)
            position = spec.end
            assert straight == resumed


class TestCheckpointMemo:
    """A runner keeps one placement's checkpoints, each holding a copy
    of SRAM: a new plan frees the old states, and a repeated plan (a
    sweep's config family) reuses the kept ones."""

    CONFIG = ArchitectureConfig().with_prefetch("stride")
    PLAN = SamplingPlan(n_windows=2, window_length=400, ramp_length=256,
                        seed=2)

    def test_two_plans_leave_one_placement(self, loop_image):
        runner = SampledRunner(self.CONFIG)
        runner.run(loop_image, self.PLAN)
        assert runner.path == "prefetch"
        first = [weakref.ref(state)
                 for state in runner._checkpoint_memo[2].values()]
        second = runner.run(loop_image, replace(self.PLAN, seed=3))
        assert [ref() for ref in first] == [None] * len(first)
        states = runner._checkpoint_memo[2]
        assert set(states) == {window["ramp_start"]
                               for window in (second.head, *second.windows)}

    def test_same_plan_twice_checkpoints_once(self, loop_image):
        runner = SampledRunner(self.CONFIG)
        first = runner.run(loop_image, self.PLAN)
        states = runner._checkpoint_memo[2]
        again = runner.run(loop_image, self.PLAN)
        assert runner._checkpoint_memo[2] is states
        assert again.canonical_json() == first.canonical_json()
