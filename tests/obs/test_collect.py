"""Collector tests: native counters read into one counts mapping and
fold into registry series, and the per-point program-window snapshot is
deterministic and complete."""

from types import SimpleNamespace

from repro.cache.cache import CacheGeometry
from repro.cache.controller import CacheController
from repro.core.sim import Simulator
from repro.obs.collect import (
    PIPELINE_STAGES,
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
        sim = Simulator()
        controller = sim.dcache
        base = sim.memmap.sram_base + 0x1000
        controller.read(base, 4)            # miss
        controller.read(base + 4, 4)        # hit
        controller.read(base + 0x1000, 4)   # miss
        snap = point_snapshot(simulator_snapshot(sim))
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
        snap = point_snapshot({
            "pipeline.cycles": 100,
            "pipeline.instructions": 60,
            "pipeline.fetch_stall_cycles": 10,
            "pipeline.mem_stall_cycles": 20,
            "pipeline.annulled_slots": 2,
        })
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
        assert point_snapshot({})["gauges"] == {}


class TestSimulatorIntegration:
    def test_program_window_snapshot_properties(self):
        image = compile_c_program(PROGRAM)
        sim = Simulator()
        report = sim.run(image)
        counters = report.obs["counters"]
        # The window covers exactly the measured execution.
        assert counters["pipeline.cycles"] == report.cycles
        assert counters["pipeline.instructions"] == report.instructions
        # The cache dicts cover the same window: boot is excluded.
        assert counters["cache.read_misses{cache=icache}"] \
            == report.icache["read_misses"] > 0
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
        """The exact series of a stock machine's snapshot: pipeline,
        both caches, AHB, APB, SRAM and the zero transport section."""
        snap = point_snapshot(simulator_snapshot(Simulator()))
        caches = {f"cache.{name}{{cache={cache}}}"
                  for cache in ("icache", "dcache")
                  for name in ("read_hits", "read_misses", "write_hits",
                               "write_misses", "evictions", "flushes",
                               "fills", "bypasses")}
        assert set(snap["counters"]) == caches | {
            "pipeline.instructions", "pipeline.cycles", "pipeline.traps",
            "pipeline.flushes", "pipeline.fetch_stall_cycles",
            "pipeline.mem_stall_cycles", "pipeline.annulled_slots",
            "pipeline.taken_ctis", "pipeline.cti_penalty_cycles",
            "pipeline.interlock_stalls",
            "bus.ahb.transfers", "bus.ahb.burst_transfers",
            "bus.ahb.data_beats", "bus.ahb.wait_states", "bus.ahb.errors",
            "bus.apb.accesses", "bus.apb.wait_states",
            "mem.sram.reads", "mem.sram.writes",
            "transport.sent_payloads", "transport.received_payloads",
            "transport.dropped_corrupt", "transport.dropped_misaddressed"}
        assert set(snap["histograms"]) == {
            "cache.miss_cycles{cache=icache}",
            "cache.miss_cycles{cache=dcache}"}
