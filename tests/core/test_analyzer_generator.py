"""Trace analyzer, architecture generator and reconfiguration server —
the full Figure 1 loop."""

import numpy as np
import pytest

from repro.analysis.trace import MemoryTrace
from repro.control.fleet import FleetScheduler
from repro.core import (
    ArchitectureConfig,
    ArchitectureGenerator,
    ConfigurationSpace,
    Job,
    ReconfigurationServer,
    SweepRunner,
    TraceAnalyzer,
    best_point,
)
from repro.toolchain.driver import compile_c_program
from tests.core.test_sim import _cyclic_repro_garbage

# The paper's Figure 7 kernel, small enough for quick tests.
FIG7_KERNEL = r"""
unsigned count[1024];

int main(void) {
    unsigned i;
    unsigned address;
    volatile unsigned x;
    for (i = 0; i < 20000; i = i + 32) {
        address = i % 1024;
        x = count[address];
    }
    return 0;
}
"""


def strided_trace(span=4096, stride=128, passes=4) -> MemoryTrace:
    addresses = []
    for _ in range(passes):
        addresses.extend(range(0x4000_2000, 0x4000_2000 + span, stride))
    n = len(addresses)
    return MemoryTrace(np.asarray(addresses, dtype=np.uint64),
                       np.full(n, 4, np.uint8),
                       np.zeros(n, bool), np.ones(n, bool))


class TestTraceAnalyzer:
    def test_recommends_smallest_adequate_cache(self):
        analyzer = TraceAnalyzer(candidate_sizes=[1024, 2048, 4096, 8192])
        report = analyzer.analyze(strided_trace())
        assert report.recommended_dcache_size() == 4096

    def test_detects_dominant_stride_for_prefetch(self):
        analyzer = TraceAnalyzer()
        report = analyzer.analyze(strided_trace(passes=1, span=8192))
        prefetch = [r for r in report.recommendations
                    if r.dimension == "prefetch"]
        assert prefetch and prefetch[0].value == 128

    def test_write_heavy_trace_flags_rmw_penalty(self):
        addresses = np.arange(0, 4000, 4, dtype=np.uint64)
        trace = MemoryTrace(addresses, np.full(len(addresses), 4, np.uint8),
                            np.ones(len(addresses), bool),
                            np.zeros(len(addresses), bool))
        report = TraceAnalyzer().analyze(trace)
        assert any(r.dimension == "write_path"
                   for r in report.recommendations)

    def test_no_candidate_meets_target_falls_back(self):
        # Working set 64 KB with only tiny candidates: both thrash
        # equally, so the fallback recommends the *cheapest* equal point.
        analyzer = TraceAnalyzer(candidate_sizes=[512, 1024])
        report = analyzer.analyze(strided_trace(span=65536, stride=32,
                                                passes=2))
        assert report.recommended_dcache_size() == 512
        reason = [r for r in report.recommendations
                  if r.dimension == "dcache_size"][0].reason
        assert "no candidate met the target" in reason

    def test_pick_config_applies_recommendation(self):
        analyzer = TraceAnalyzer(candidate_sizes=[1024, 4096])
        report = analyzer.analyze(strided_trace())
        config = analyzer.pick_config(ArchitectureConfig(), report)
        assert config.dcache.size == 4096

    def test_summary_lines_render(self):
        report = TraceAnalyzer().analyze(strided_trace())
        lines = report.summary_lines()
        text = "\n".join(lines)
        assert "working set" in text
        assert "recommend dcache_size" in text
        assert sum(line.startswith("references") for line in lines) == 1


class TestReconfigurationServer:
    def test_configure_charges_synthesis_then_switches_free(self):
        server = ReconfigurationServer()
        outcome1 = server.configure(ArchitectureConfig())
        assert outcome1.synthesis_seconds > 0 and not outcome1.cache_hit
        assert not outcome1.already_loaded
        # Same config again: a no-op, which is NOT a cache hit (the
        # cache is never consulted on that path).
        outcome2 = server.configure(ArchitectureConfig())
        assert outcome2.synthesis_seconds == outcome2.program_seconds == 0.0
        assert outcome2.already_loaded and not outcome2.cache_hit
        # New config: synthesis again.
        outcome3 = server.configure(
            ArchitectureConfig().with_dcache_size(8192))
        assert outcome3.synthesis_seconds > 0 and not outcome3.cache_hit
        # Back to the first: cached bitfile, only programming time.
        outcome4 = server.configure(ArchitectureConfig())
        assert outcome4.synthesis_seconds == 0.0
        assert outcome4.program_seconds > 0
        assert outcome4.cache_hit and not outcome4.already_loaded
        assert server.noop_configs == 1

    def test_run_job_returns_cycles_and_result(self):
        server = ReconfigurationServer()
        image = compile_c_program("int main(void) { return 11 * 3; }")
        result = server.run_job(Job(image=image,
                                    config=ArchitectureConfig(),
                                    name="smoke"))
        assert result.result_word == 33
        assert result.cycles > 0
        assert result.seconds_execution > 0
        assert result.state.name == "DONE"

    def test_queue_processing(self):
        server = ReconfigurationServer()
        image = compile_c_program("int main(void) { return 1; }")
        results = [server.run_job(Job(image=image,
                                      config=ArchitectureConfig(),
                                      name=f"job{index}"))
                   for index in range(3)]
        assert [r.name for r in results] == ["job0", "job1", "job2"]
        # One synthesis, then cached.
        assert results[0].seconds_synthesis > 0
        assert results[1].seconds_synthesis == 0.0

    def test_ledger_accounts_model_time(self):
        server = ReconfigurationServer()
        image = compile_c_program("int main(void) { return 0; }")
        server.run_job(Job(image=image, config=ArchitectureConfig()))
        ledger = server.ledger()
        assert ledger["model_seconds"] > 3000  # synthesis dominates
        assert ledger["cache"]["misses"] == 1


def flaky_client_factory(failing_calls, error="timeout"):
    """A ``client_factory`` whose client fails run_image on the given
    0-based call indices (counted across all clients it builds)."""
    from repro.control import (
        ControlTimeout,
        DeviceError,
        DirectTransport,
        LiquidClient,
    )
    from repro.net.protocol import ErrorResponse

    state = {"calls": 0}

    def factory(platform):
        transport = DirectTransport(platform, platform.config.device_ip,
                                    platform.config.control_port)

        class FlakyClient(LiquidClient):
            def run_image(self, image, **kwargs):
                index = state["calls"]
                state["calls"] += 1
                if index in failing_calls:
                    if error == "timeout":
                        raise ControlTimeout(f"injected failure #{index}")
                    raise DeviceError(ErrorResponse(0x20, "injected"))
                return super().run_image(image, **kwargs)

        return FlakyClient(transport)

    return factory


def one_device_fleet(failing_calls, error="timeout"):
    """The single-node lab: one device whose client fails the given
    run_image calls, each job allowed two attempts."""
    return FleetScheduler(
        devices=1, max_job_attempts=2,
        client_factories={"fpx00": flaky_client_factory(failing_calls,
                                                        error)})


def run_in_order(fleet, image, names):
    for name in names:
        fleet.submit("lab", Job(image=image, config=ArchitectureConfig(),
                                name=name))
    return fleet.drain()


class TestRunQueueDegradation:
    """A failed job on the lab path is retried once on a rebuilt device,
    then recorded as failed without stopping the jobs behind it — the
    fleet's supervision policy, on one device."""

    def test_transient_failure_is_retried_and_succeeds(self):
        fleet = one_device_fleet({0})
        image = compile_c_program("int main(void) { return 5; }")
        [done] = run_in_order(fleet, image, ["flaky"])
        assert done.result.ok
        assert done.attempts == 2
        assert done.result.result_word == 5
        assert fleet.jobs_requeued == 1
        assert fleet.jobs_failed == 0

    def test_persistent_failure_recorded_queue_continues(self):
        # Call 0 = job0, calls 1+2 = job1's two attempts, call 3 = job2.
        fleet = one_device_fleet({1, 2})
        image = compile_c_program("int main(void) { return 7; }")
        results = run_in_order(fleet, image, ["job0", "job1", "job2"])
        assert [r.result.name for r in results] == ["job0", "job1", "job2"]
        assert results[0].result.ok and results[2].result.ok
        failed = results[1]
        assert not failed.result.ok
        assert failed.result.state.name == "ERROR"
        assert failed.attempts == failed.result.attempts == 2
        assert "ControlTimeout" in failed.result.error
        assert fleet.jobs_failed == 1
        assert fleet.jobs_requeued == 1

    def test_device_error_degrades_the_same_way(self):
        fleet = one_device_fleet({0, 1}, error="device")
        image = compile_c_program("int main(void) { return 1; }")
        [done] = run_in_order(fleet, image, ["doomed"])
        assert not done.result.ok
        assert "DeviceError" in done.result.error
        assert fleet.ledger()["jobs"]["failed"] == 1

    def test_ledger_reports_degradation_counters(self):
        jobs = FleetScheduler(devices=1).ledger()["jobs"]
        assert jobs["requeued"] == 0
        assert jobs["failed"] == 0

    def test_retry_rebuilds_the_platform_from_scratch(self):
        """The retry must not go through the old client's restart() —
        that trusts the very control path that just failed and keeps
        the possibly-wedged platform.  The device is invalidated and
        reconfigured instead."""
        fleet = one_device_fleet({0})
        runtime = fleet.devices[0].runtime
        image = compile_c_program("int main(void) { return 9; }")
        first = runtime.configure(ArchitectureConfig())
        assert not first.cache_hit
        wedged_platform = runtime.platform
        wedged_client = runtime.client
        [done] = run_in_order(fleet, image, ["wedged"])
        assert done.result.ok and done.attempts == 2
        # A full rebuild: new platform, new client, second
        # reconfiguration charged (as a cache hit, not a resynthesis).
        assert runtime.platform is not wedged_platform
        assert runtime.client is not wedged_client
        assert runtime.reconfigurations == 2
        assert done.result.cache_hit
        assert done.result.seconds_synthesis == 0.0

    def test_invalidate_forgets_the_node(self):
        server = ReconfigurationServer()
        server.configure(ArchitectureConfig())
        server.invalidate()
        assert server.platform is None
        assert server.client is None
        assert server.current_bitfile is None
        # The next configure is a real reconfiguration (cache hit), not
        # a no-op on the forgotten bitfile.
        outcome = server.configure(ArchitectureConfig())
        assert outcome.cache_hit and not outcome.already_loaded

    def test_results_report_noop_vs_hit_distinctly(self):
        """Regression: a back-to-back job on the loaded architecture
        used to be misreported as ``cache_hit=True`` even though the
        cache was never consulted."""
        server = ReconfigurationServer()
        image = compile_c_program("int main(void) { return 2; }")
        first, warm, other, back = [
            server.run_job(Job(image=image, config=config, name=name))
            for name, config in (
                ("first", ArchitectureConfig()),
                ("warm", ArchitectureConfig()),
                ("other", ArchitectureConfig().with_dcache_size(8192)),
                ("back", ArchitectureConfig()))]
        assert not first.cache_hit and not first.already_loaded
        assert warm.already_loaded and not warm.cache_hit
        assert warm.seconds_programming == 0.0
        assert not other.cache_hit and not other.already_loaded
        assert back.cache_hit and not back.already_loaded
        assert back.seconds_programming > 0.0
        ledger = server.ledger()
        assert ledger["configs_noop"] == 1
        assert ledger["cache"]["hits"] == 1
        assert ledger["cache"]["misses"] == 2


class TestArchitectureGenerator:
    """Figure 1's loop: the Sim box ranks every point, the FPX runs only
    the winner."""

    @pytest.fixture(scope="class")
    def generator(self):
        return ArchitectureGenerator()

    @pytest.fixture(scope="class")
    def image(self):
        return compile_c_program(FIG7_KERNEL)

    @pytest.fixture(scope="class")
    def result(self, generator, image):
        return generator.explore(image, ConfigurationSpace.paper_cache_sweep(),
                                 max_instructions=2_000_000)

    def test_sweep_measures_every_point(self, generator, result):
        """Every point is ranked; only the winner is reconfigured."""
        assert [p.config.dcache.size for p in result.points] == \
            [1024, 2048, 4096, 8192, 16384]
        assert generator.server.reconfigurations == 1
        assert result.confirmed.config_key == result.best.config.key()

    def test_points_are_a_plain_sweep(self, image, result):
        plain = SweepRunner().sweep(ConfigurationSpace.paper_cache_sweep(),
                                    image)
        assert [p.canonical_json() for p in result.points] == \
            [p.canonical_json() for p in plain.points]

    def test_paper_shape_flat_then_knee(self, result):
        """Figure 8/9: flat high at 1-2 KB, flat minimum from 4 KB on."""
        cycles = {p.config.dcache.size: p.cycles for p in result.points}
        assert cycles[1024] == cycles[2048]
        assert cycles[4096] < cycles[1024]
        assert cycles[4096] == cycles[8192] == cycles[16384]

    def test_best_by_cycles_is_at_or_past_knee(self, result):
        assert best_point(result.points, "cycles").config.dcache.size >= 4096

    def test_best_by_seconds_penalizes_slow_clocks(self, result):
        """Bigger caches clock slower, so the best *time* is the knee
        itself (4 KB), not the largest cache — the liquid-architecture
        insight that more is not better."""
        assert result.best.config.dcache.size == 4096

    def test_fpx_confirms_the_winner(self, result):
        """The FPX counts the polling loop's last lap, which the Sim box
        does not (``test_fpx_counts_the_polling_loops_last_lap``)."""
        confirmed = result.confirmed
        assert confirmed.state.name == "DONE"
        assert confirmed.cycles - result.best.cycles == 21
        assert confirmed.result_word == result.best.result_word == 0

    def test_dropped_generator_leaves_no_cycle(self):
        image = compile_c_program("int main(void) { return 6 * 7; }")
        space = ConfigurationSpace().add_dimension("dcache_size",
                                                   [1024, 4096])

        def run():
            result = ArchitectureGenerator().explore(image, space)
            assert result.confirmed.result_word == 42

        assert _cyclic_repro_garbage(run) == []


class TestGeneratorDeterminism:
    def test_explore_is_reproducible(self):
        """Two independent explorations rank identical points and confirm
        identical cycle counts — the whole model (CPU, caches, protocol,
        synthesis) is deterministic."""
        image = compile_c_program("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 200; i++) total += i;
    return total;
}""")
        space = ConfigurationSpace().add_dimension("dcache_size",
                                                   [1024, 4096])

        def run():
            result = ArchitectureGenerator().explore(image, space)
            return ([p.canonical_json() for p in result.points],
                    result.best.config.dcache.size, result.confirmed.cycles)

        first = run()
        assert first == run()
        # Both sizes take the same cycles; the tie goes to the earlier
        # (smaller, faster-clocked) point.
        assert first[1] == 1024
