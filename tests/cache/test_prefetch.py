"""Prefetch-unit tests (§1's 'alternative memory structure')."""

import pytest

from repro.cache import CacheController, CacheGeometry
from repro.cache.prefetch import (
    PREFETCH_POLICIES,
    NextLinePrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.mem.interface import FlatMemory
from repro.obs.collect import cache_record, simulator_snapshot

BASE = 0x4000_0000


def make(prefetch="none", size=1024, line=32):
    memory = FlatMemory(size=1 << 16, base=BASE)
    controller = CacheController(CacheGeometry(size, line), memory,
                                 prefetch=prefetch)
    return controller, memory


class TestPredictors:
    def test_nextline_prediction(self):
        unit = NextLinePrefetcher(32)
        assert unit.predict(BASE + 0x47) == BASE + 0x60  # next line base

    def test_stride_needs_two_confirmations(self):
        unit = StridePrefetcher(32)
        assert unit.predict(1000) is None          # first miss: no info
        assert unit.predict(1128) is None          # stride observed once
        assert unit.predict(1256) == 1384          # confirmed: predict

    def test_stride_disarms_on_irregularity(self):
        unit = StridePrefetcher(32)
        unit.predict(0)
        unit.predict(128)
        assert unit.predict(256) == 384
        assert unit.predict(999) is None           # pattern broken
        assert unit.predict(1127) is None          # retraining
        assert unit.predict(1255) == 1383          # re-armed

    def test_negative_stride_supported(self):
        unit = StridePrefetcher(32)
        unit.predict(4096)
        unit.predict(3968)
        assert unit.predict(3840) == 3712

    def test_factory(self):
        assert make_prefetcher("none", 32) is None
        assert isinstance(make_prefetcher("nextline", 32), NextLinePrefetcher)
        assert isinstance(make_prefetcher("stride", 32), StridePrefetcher)
        with pytest.raises(ValueError):
            make_prefetcher("oracle", 32)
        assert set(PREFETCH_POLICIES) == {"none", "nextline", "stride"}


class TestControllerIntegration:
    def test_nextline_turns_sequential_misses_into_hits(self):
        controller, _ = make("nextline")
        # Sequential walk, one access per line.
        stall_with = 0
        for index in range(16):
            _, cycles = controller.read(BASE + index * 32, 4)
            stall_with += cycles

        baseline, _ = make("none")
        stall_without = 0
        for index in range(16):
            _, cycles = baseline.read(BASE + index * 32, 4)
            stall_without += cycles

        assert stall_with < stall_without
        stats = controller.prefetcher.stats
        assert stats.useful > 10
        assert stats.accuracy > 0.9

    def test_stride_prefetcher_covers_large_strides(self):
        """The Figure 7 pattern (128 B stride) defeats next-line but not
        the stride unit."""
        def stalls(policy):
            controller, _ = make(policy, size=8192)
            total = 0
            for index in range(0, 4096, 128):
                _, cycles = controller.read(BASE + index, 4)
                total += cycles
            return total, controller

        none_total, _ = stalls("none")
        nextline_total, nextline = stalls("nextline")
        stride_total, stride = stalls("stride")
        assert stride_total < none_total / 2
        # Next-line fetches useless lines here.
        assert stride.prefetcher.stats.useful > \
            nextline.prefetcher.stats.useful

    def test_wrong_prefetches_pollute_but_stay_correct(self):
        controller, memory = make("nextline", size=1024)
        for index in range(64):
            memory.write_word(BASE + index * 32, index)
        # Random-ish pattern: prefetches will often be wrong.
        import random
        rng = random.Random(5)
        for _ in range(100):
            address = BASE + rng.randrange(64) * 32
            value, _ = controller.read(address, 4)
            assert value == (address - BASE) // 32  # data always correct

    def test_prefetch_at_device_edge_is_safe(self):
        controller, memory = make("nextline")
        # Miss on the very last line: prefetch would fall off the device.
        last_line = BASE + (1 << 16) - 32
        value, _ = controller.read(last_line, 4)
        assert value == 0  # no exception, no fill

    def test_background_cycles_accounted_separately(self):
        controller, _ = make("nextline")
        demand_stalls = 0
        for index in range(8):
            _, cycles = controller.read(BASE + index * 32, 4)
            demand_stalls += cycles
        stats = controller.prefetcher.stats
        assert stats.background_cycles > 0
        # Background traffic is not billed to the CPU beyond issue costs.
        assert demand_stalls < stats.background_cycles + demand_stalls

    def test_flush_clears_speculative_tracking(self):
        controller, _ = make("nextline")
        controller.read(BASE, 4)
        assert controller._speculative
        controller.flush()
        assert not controller._speculative

    def test_stats_dict_reports_prefetch(self):
        """A prefetching cache's record dict (``cache_record``) carries
        the prefetch unit's counters."""
        from repro.core import ArchitectureConfig
        from repro.core.sim import Simulator

        sim = Simulator(ArchitectureConfig().with_prefetch("stride"))
        for index in range(0, 1024, 128):
            sim.dcache.read(sim.memmap.sram_base + 0x1000 + index, 4)
        stats = cache_record(simulator_snapshot(sim), "dcache",
                             sim.dcache.geometry, "stride")
        assert stats["prefetch"]["policy"] == "stride"
        assert stats["prefetch"]["issued"] \
            == sim.dcache.prefetcher.stats.issued > 0
        assert stats["prefetch"]["background_cycles"] \
            == sim.dcache.prefetcher.stats.background_cycles > 0


class TestConfigurationPlumbing:
    def test_config_key_and_synthesis(self):
        from repro.core import ArchitectureConfig, SynthesisModel

        config = ArchitectureConfig().with_prefetch("stride")
        assert "pfstride" in config.key()
        model = SynthesisModel()
        base = model.estimate(ArchitectureConfig())
        with_unit = model.estimate(config)
        assert with_unit.slices == base.slices + 260
        assert with_unit.frequency_mhz < base.frequency_mhz

    def test_invalid_policy_rejected(self):
        from repro.core import ArchitectureConfig

        with pytest.raises(ValueError):
            ArchitectureConfig(prefetch="psychic")

    def test_space_dimension(self):
        from repro.core import ConfigurationSpace

        space = ConfigurationSpace().add_dimension(
            "prefetch", ["none", "nextline", "stride"])
        assert [p.prefetch for p in space] == ["none", "nextline", "stride"]

    def test_platform_wires_prefetcher(self):
        from repro.core import ArchitectureConfig
        from repro.fpx import FPXPlatform

        platform = FPXPlatform(
            ArchitectureConfig().with_prefetch("stride").platform_config())
        assert platform.dcache.prefetcher is not None
        assert platform.dcache.prefetcher.name == "stride"

    def test_figure7_kernel_speedup_with_stride_unit(self):
        """The trace analyzer's prefetch recommendation, validated: the
        Figure 7 kernel on a too-small cache runs faster with the stride
        unit than without."""
        from repro.core import ArchitectureConfig, LiquidProcessorSystem

        kernel = """
unsigned count[1024];
int main(void) {
    unsigned i;
    volatile unsigned x;
    for (i = 0; i < 20000; i = i + 32) {
        x = count[i % 1024];
    }
    return 0;
}
"""
        small = ArchitectureConfig().with_dcache_size(1024)
        plain = LiquidProcessorSystem(small).run_c(kernel)
        prefetching = LiquidProcessorSystem(
            small.with_prefetch("stride")).run_c(kernel)
        assert prefetching.cycles < plain.cycles
