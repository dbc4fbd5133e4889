"""Collector tests: native counters fold into registry series, and the
per-point program-window snapshot is deterministic and complete."""

from types import SimpleNamespace

from repro.cache.cache import CacheGeometry
from repro.cache.controller import CacheController
from repro.core.sim import Simulator
from repro.obs.collect import (
    PIPELINE_STAGES,
    collect_ahb,
    collect_cache,
    collect_transport,
    point_snapshot,
    simulator_snapshot,
    zero_transport_series,
)
from repro.obs.metrics import MetricsRegistry
from repro.toolchain.driver import compile_c_program

PROGRAM = """
int main(void) {
    volatile int x = 0;
    int i;
    for (i = 0; i < 50; i++) { x = x + i; }
    return x;
}
"""


class _FlatBacking:
    """Minimal MemoryPort: zero-filled, fixed latency."""

    def read(self, address, size):
        return 0, 2

    def write(self, address, size, value):
        return 2


class TestCacheCollector:
    def test_controller_series_and_miss_histogram(self):
        controller = CacheController(CacheGeometry(size=256, line_size=32),
                                     _FlatBacking(), name="dcache")
        controller.read(0x0, 4)     # miss
        controller.read(0x4, 4)     # hit
        controller.read(0x100, 4)   # miss
        registry = MetricsRegistry()
        collect_cache(controller, registry)
        snap = registry.snapshot()
        assert snap["counters"]["cache.read_misses{cache=dcache}"] == 2
        assert snap["counters"]["cache.read_hits{cache=dcache}"] == 1
        hist = snap["histograms"]["cache.miss_cycles{cache=dcache}"]
        assert hist["count"] == 2
        assert hist["sum"] == controller.miss_cycles_sum > 0

    def test_native_buckets_track_every_miss(self):
        controller = CacheController(CacheGeometry(size=256, line_size=32),
                                     _FlatBacking(), name="icache")
        for i in range(8):
            controller.read(i * 0x100, 4)
        assert sum(controller.miss_cycle_buckets) == 8


class TestDuckTypedCollectors:
    def test_ahb_collector_reads_native_counters(self):
        bus = SimpleNamespace(transfers=10, burst_transfers=3, data_beats=40,
                              wait_states=7, error_count=1)
        registry = MetricsRegistry()
        collect_ahb(bus, registry)
        counters = registry.snapshot()["counters"]
        assert counters["bus.ahb.transfers"] == 10
        assert counters["bus.ahb.wait_states"] == 7
        assert counters["bus.ahb.errors"] == 1

    def test_transport_collector_plain_and_lossy(self):
        plain = SimpleNamespace(sent_payloads=4, received_payloads=3,
                                dropped_corrupt=1, dropped_misaddressed=0)
        registry = MetricsRegistry()
        collect_transport(plain, registry)
        counters = registry.snapshot()["counters"]
        assert counters["transport.sent_payloads"] == 4
        assert counters["transport.dropped_corrupt"] == 1

        lossy = SimpleNamespace(
            sent_payloads=4, received_payloads=3, dropped_corrupt=0,
            dropped_misaddressed=0,
            channel_stats=lambda: {"to_device": {"sent": 4, "dropped": 1}})
        registry = MetricsRegistry()
        collect_transport(lossy, registry)
        counters = registry.snapshot()["counters"]
        assert counters["channel.dropped{direction=to_device}"] == 1

    def test_zero_transport_series_declares_schema(self):
        registry = MetricsRegistry()
        zero_transport_series(registry)
        counters = registry.snapshot()["counters"]
        assert counters == {
            "transport.sent_payloads": 0,
            "transport.received_payloads": 0,
            "transport.dropped_corrupt": 0,
            "transport.dropped_misaddressed": 0,
        }


class TestPointSnapshot:
    def test_occupancy_gauges_derived_and_bounded(self):
        after = {
            "counters": {
                "pipeline.cycles": 100,
                "pipeline.instructions": 60,
                "pipeline.fetch_stall_cycles": 10,
                "pipeline.mem_stall_cycles": 20,
                "pipeline.annulled_slots": 2,
            },
            "gauges": {}, "histograms": {},
        }
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        snap = point_snapshot(after, empty)
        gauges = snap["gauges"]
        for stage in PIPELINE_STAGES:
            value = gauges[f"pipeline.occupancy{{stage={stage}}}"]
            assert 0 <= value <= 1
        assert gauges["pipeline.occupancy{stage=DE}"] == 0.6
        assert gauges["pipeline.occupancy{stage=FE}"] == 0.72  # 60+2+10
        assert gauges["pipeline.occupancy{stage=ME}"] == 0.8   # 60+20
        # EX absorbs the remaining issue cycles: 100-60-10-20-2 = 8.
        assert gauges["pipeline.occupancy{stage=EX}"] == 0.68

    def test_zero_cycle_window_has_no_occupancy(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        snap = point_snapshot(empty, empty)
        assert snap["gauges"] == {}


class TestSimulatorIntegration:
    def test_program_window_snapshot_properties(self):
        image = compile_c_program(PROGRAM)
        sim = Simulator()
        report = sim.run(image)
        counters = report.obs["counters"]
        # The window covers exactly the measured execution.
        assert counters["pipeline.cycles"] == report.cycles
        assert counters["pipeline.instructions"] == report.instructions
        # Window series exclude the boot-time misses the cumulative
        # SimReport stats include.
        assert 0 < counters["cache.read_misses{cache=icache}"] \
            <= report.icache["read_misses"]
        # Dispatch/done events bracket the program on the cycle line.
        dispatch = sim.events.events("dispatch")[0]
        done = sim.events.events("done")[0]
        assert done.cycle - dispatch.cycle == report.cycles

    def test_snapshot_is_run_to_run_deterministic(self):
        import json

        image = compile_c_program(PROGRAM)
        first = Simulator().run(image)
        second = Simulator().run(image)
        dump = lambda obs: json.dumps(obs, sort_keys=True)  # noqa: E731
        assert dump(first.obs) == dump(second.obs)

    def test_simulator_snapshot_covers_every_layer(self):
        sim = Simulator()
        snap = simulator_snapshot(sim)
        prefixes = {key.split(".")[0] for key in snap["counters"]}
        assert {"pipeline", "cache", "bus", "mem", "transport"} <= prefixes
