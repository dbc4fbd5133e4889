"""Two-speed execution through the public surfaces:
``Simulator.run(fast_forward=...)`` and ``SweepRunner.sweep(...,
fast_forward=...)``.

The contract under test: the *measured window* of a fast-forwarded run
is byte-identical no matter how the machine reached the window — cold
accurate warmup, functional warmup, or a restored checkpoint — and a
``-ffN`` sweep point is exactly that direct run, serially, across
processes and from the disk cache.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ArchitectureConfig
from repro.core.sampling import SamplingPlan
from repro.core.sim import Simulator
from repro.core.sweep import ResultCache, SweepRunner
from repro.obs.collect import simulator_snapshot
from repro.toolchain.driver import compile_c_program

pytestmark = pytest.mark.slow

#: Big enough that WARMUP leaves a substantial measured window (the
#: loop retires ~43k instructions; warmup covers only the first 3k).
WORKLOAD = """
unsigned data[256];
int main(void) {
    unsigned i, sum = 0;
    for (i = 0; i < 1200; i++) { sum += data[i & 255] + i; data[i & 255] = sum; }
    return (int)sum;
}
"""
WARMUP = 3_000


@pytest.fixture(scope="module")
def image():
    return compile_c_program(WORKLOAD)


def _canonical(report) -> str:
    """The identity-relevant fields of a SimReport (fastpath provenance
    deliberately excluded — it describes *how*, not *what*)."""
    return json.dumps({
        "cycles": report.cycles, "instructions": report.instructions,
        "mix": report.instruction_mix, "dcache": report.dcache,
        "icache": report.icache, "result_word": report.result_word,
        "uart": report.uart_output.hex(), "obs": report.obs,
    }, sort_keys=True, default=str)


class TestSimulatorFastForward:
    def test_warmup_engine_does_not_change_the_window(self, image):
        fast = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP, warmup_engine="fast")
        accurate = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP, warmup_engine="accurate")
        translated = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP, warmup_engine="translated")
        assert _canonical(fast) == _canonical(accurate)
        assert _canonical(translated) == _canonical(accurate)
        # the window must be substantial, or this test proves nothing
        assert fast.instructions > 10_000
        assert fast.fastpath["warmup_engine"] == "fast"
        assert accurate.fastpath["warmup_engine"] == "accurate"
        assert translated.fastpath["warmup_engine"] == "translated"

    def test_translated_checkpoint_matches_functional(self, image):
        """checkpoint() now warms on the translated engine by default;
        the captured state must be byte-identical to a functional warmup
        of the same depth, and the block cache must actually have run."""
        warm_t = Simulator(capture_memory_trace=False)
        state_t = warm_t.checkpoint(image, WARMUP)
        warm_f = Simulator(capture_memory_trace=False)
        state_f = warm_f.checkpoint(image, WARMUP, warmup_engine="fast")
        assert state_t == state_f
        assert warm_t.counters["fastpath.blocks_translated"] > 0
        assert warm_t.counters["fastpath.blocks_executed"] > 0
        assert warm_f.counters["fastpath.blocks_translated"] == 0

    def test_checkpoint_restore_reproduces_the_window(self, image):
        direct = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP)
        warm = Simulator(capture_memory_trace=False)
        state = warm.checkpoint(image, WARMUP)
        resumed = Simulator(capture_memory_trace=False).run(
            from_checkpoint=state)
        assert _canonical(resumed) == _canonical(direct)
        assert resumed.fastpath["warmup_engine"] == "checkpoint"

    def test_fast_forward_past_program_end(self, image):
        """A warmup budget larger than the whole program parks at the
        polling loop; the measured window is then empty but well-formed."""
        report = Simulator(capture_memory_trace=False).run(
            image, fast_forward=10_000_000)
        assert report.instructions == 0
        assert report.fastpath["warmup_instructions"] > 0

    def test_fast_forward_zero_is_the_seed_behavior(self, image):
        cold = Simulator(capture_memory_trace=False).run(image)
        explicit = Simulator(capture_memory_trace=False).run(
            image, fast_forward=0)
        assert _canonical(cold) == _canonical(explicit)
        assert cold.fastpath == {} and explicit.fastpath == {}

    def test_negative_fast_forward_rejected(self, image):
        with pytest.raises(ValueError):
            Simulator(capture_memory_trace=False).run(
                image, fast_forward=-1)

    def test_bad_warmup_engine_rejected(self, image):
        with pytest.raises(ValueError):
            Simulator(capture_memory_trace=False).run(
                image, fast_forward=10, warmup_engine="quantum")

    def test_obs_exposes_fastpath_counters(self, image):
        sim = Simulator(capture_memory_trace=False)
        report = sim.run(image, fast_forward=WARMUP)
        # window deltas exist in the report's schema...
        assert "fastpath.instructions" in report.obs["counters"]
        assert "fastpath.handoffs" in report.obs["counters"]
        # ...and the simulator totals show the warmup actually ran fast
        totals = simulator_snapshot(sim)["counters"]
        assert totals["fastpath.instructions"] > 0
        assert totals["fastpath.handoffs"] == 1
        assert totals["fastpath.checkpoint_captures"] == 0

    def test_obs_exposes_block_cache_counters(self, image):
        sim = Simulator(capture_memory_trace=False)
        sim.run(image, fast_forward=WARMUP, warmup_engine="translated")
        totals = simulator_snapshot(sim)["counters"]
        assert totals["fastpath.blocks_translated"] > 0
        assert totals["fastpath.blocks_executed"] > 0
        assert totals["fastpath.blocks_invalidated"] >= 0


class TestSweepFastForward:
    CONFIGS = [ArchitectureConfig().with_dcache_size(size)
               for size in (1024, 4096)]

    def test_rerun_is_entirely_cached(self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        runner.sweep(self.CONFIGS, image, fast_forward=WARMUP)
        again = runner.sweep(self.CONFIGS, image, fast_forward=WARMUP)
        assert again.stats.simulated == 0
        assert again.stats.cache_hits == 2

    def test_serial_and_parallel_agree(self, image):
        serial = SweepRunner(workers=0).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        parallel = SweepRunner(workers=2).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        for a, b in zip(serial.points, parallel.points):
            assert a.canonical_json() == b.canonical_json()

    def test_windowed_and_whole_program_never_collide(self, image,
                                                      tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        windowed = runner.sweep([self.CONFIGS[0]], image,
                                fast_forward=WARMUP)
        whole = runner.sweep([self.CONFIGS[0]], image)
        assert whole.stats.simulated == 1  # not served from the ff entry
        assert (windowed.points[0].fingerprint
                != whole.points[0].fingerprint)
        assert windowed.points[0].fingerprint.endswith(f"-ff{WARMUP}")

    def test_windowed_points_match_direct_runs(self, image):
        outcome = SweepRunner().sweep(self.CONFIGS, image,
                                      fast_forward=WARMUP)
        for config, point in zip(self.CONFIGS, outcome.points):
            direct = Simulator(config, capture_memory_trace=False).run(
                image, fast_forward=WARMUP)
            assert point.cycles == direct.cycles
            assert point.instructions == direct.instructions
            assert point.instruction_mix == direct.instruction_mix
            assert point.dcache == direct.dcache
            assert point.icache == direct.icache
            assert point.uart_hex == direct.uart_output.hex()
            assert point.obs == direct.obs

    def test_negative_fast_forward_rejected(self, image):
        with pytest.raises(ValueError):
            SweepRunner().sweep(self.CONFIGS, image, fast_forward=-5)


class TestWarmupEngineDefault:
    """``run`` historically defaulted to ``"fast"`` while ``checkpoint``
    defaulted to ``"translated"`` — the same nominal warmup took
    different engines depending on the entry point.  Both now default to
    ``"translated"``, and the regression is pinned at both the signature
    and the behaviour level."""

    def test_defaults_are_unified(self):
        import inspect

        run_default = inspect.signature(
            Simulator.run).parameters["warmup_engine"].default
        checkpoint_default = inspect.signature(
            Simulator.checkpoint).parameters["warmup_engine"].default
        assert run_default == checkpoint_default == "translated"

    def test_default_run_lands_on_the_checkpoint_state(self, image):
        """run(fast_forward=N) with the default engine must produce the
        exact window that resuming checkpoint(N)'s state does."""
        defaulted = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP)
        warm = Simulator(capture_memory_trace=False)
        state = warm.checkpoint(image, WARMUP)
        resumed = Simulator(capture_memory_trace=False).run(
            from_checkpoint=state)
        assert _canonical(defaulted) == _canonical(resumed)
        assert defaulted.fastpath["warmup_engine"] == "translated"


class TestSweepSampling:
    """Satellite determinism contract: identical (image, plan, seed)
    must yield byte-identical sampled records serially, in parallel
    workers, and on a ResultCache re-run."""

    CONFIGS = [ArchitectureConfig().with_dcache_size(size)
               for size in (1024, 4096)]
    PLAN = SamplingPlan(n_windows=3, window_length=400, ramp_length=256,
                        seed=5)

    def test_serial_parallel_and_rerun_are_byte_identical(
            self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        serial = runner.sweep(self.CONFIGS, image, sampling=self.PLAN)
        parallel = SweepRunner(workers=2).sweep(
            self.CONFIGS, image, sampling=self.PLAN)
        rerun = SweepRunner(cache=ResultCache(tmp_path)).sweep(
            self.CONFIGS, image, sampling=self.PLAN)
        assert rerun.stats.simulated == 0  # served entirely from disk
        for a, b, c in zip(serial.points, parallel.points, rerun.points):
            assert a.canonical_json() == b.canonical_json()
            assert a.canonical_json() == c.canonical_json()
            assert a.sampled is not None
            assert a.sampled == b.sampled == c.sampled

    def test_sampled_points_match_direct_runs(self, image):
        outcome = SweepRunner().sweep([self.CONFIGS[0]], image,
                                      sampling=self.PLAN)
        point = outcome.points[0]
        direct = Simulator(self.CONFIGS[0],
                           capture_memory_trace=False).run_sampled(
            image, self.PLAN)
        assert point.sampled["estimated_cycles"] == direct.estimated_cycles
        assert point.cycles == int(round(direct.estimated_cycles))
        assert point.instructions == direct.total_instructions
        assert point.fingerprint.endswith(
            f"-{self.PLAN.fingerprint_token()}")
        assert "sampling.runs" in point.obs["counters"]

    def test_sampling_excludes_fast_forward(self, image):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SweepRunner().sweep(self.CONFIGS, image,
                                fast_forward=WARMUP, sampling=self.PLAN)

    def test_full_detail_and_sampled_never_collide(self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        sampled = runner.sweep([self.CONFIGS[0]], image, sampling=self.PLAN)
        whole = runner.sweep([self.CONFIGS[0]], image)
        assert whole.stats.simulated == 1
        assert (sampled.points[0].fingerprint
                != whole.points[0].fingerprint)
        assert whole.points[0].sampled is None


class TestCheckpointResumedWindows:
    """A window measured from a restored mid-program ArchState must be
    byte-identical to the same window reached by stepping straight
    through on the accurate engine — the checkpoint carries everything
    architectural, and the canonical handoff state covers the rest."""

    def test_resumed_equals_straight_through(self, image):
        from repro.core.sampling import (SampledRunner, head_spec,
                                         measure_window, place_windows)

        plan = SamplingPlan(n_windows=2, window_length=400,
                            ramp_length=256, seed=2)
        runner = SampledRunner()
        run = runner.run(image, plan)
        assert run.windows, "plan must place at least one window"

        survey = runner._survey(image, 50_000_000)
        head = head_spec(survey["steps"], plan)
        _, specs = place_windows(survey["steps"], plan, start=head.end)

        sim = Simulator(capture_memory_trace=False, obs=False)
        cpu = sim._boot_and_dispatch(image, "accurate")
        poll = sim.rom_info.poll_address
        position = 0
        for spec, resumed in zip(specs, run.windows):
            budget = spec.ramp_start - position
            steps = 0
            while steps < budget and cpu.pc != poll:
                cpu.step()
                steps += 1
            position = spec.ramp_start
            sim._normalize_window_start()
            straight = measure_window(sim, spec, poll)
            position = spec.end
            assert straight == resumed
