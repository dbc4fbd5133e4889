"""ArchitectureConfig and ConfigurationSpace tests."""

import pytest

from repro.cache.cache import CacheGeometry
from repro.core import ArchitectureConfig, ConfigurationSpace, ExtensionSpec
from repro.core.config import BASELINE, MULTIPLIER_CYCLES
from repro.fpx import FPXPlatform, PlatformConfig


class TestArchitectureConfig:
    def test_baseline_matches_paper_setup(self):
        assert BASELINE.icache.size == 1024
        assert BASELINE.dcache.size == 4096
        assert BASELINE.icache.line_size == 32
        assert BASELINE.dcache.line_size == 32
        assert BASELINE.nwindows == 8

    def test_key_is_canonical_and_distinct(self):
        a = ArchitectureConfig()
        b = a.with_dcache_size(8192)
        assert a.key() != b.key()
        assert a.key() == ArchitectureConfig().key()

    def test_key_reflects_extensions(self):
        ext = ExtensionSpec("mac", 0x02)
        assert "xmac" in ArchitectureConfig().with_extension(ext).key()

    def test_timing_follows_multiplier(self):
        for name, cycles in MULTIPLIER_CYCLES.items():
            config = ArchitectureConfig(multiplier=name)
            assert config.timing().mul_cycles == cycles

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(multiplier="warp")

    def test_invalid_nwindows_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(nwindows=6)  # not a power of two
        with pytest.raises(ValueError):
            ArchitectureConfig(nwindows=64)

    def test_duplicate_extensions_rejected(self):
        ext = ExtensionSpec("x", 1)
        with pytest.raises(ValueError):
            ArchitectureConfig(extensions=(ext, ExtensionSpec("x", 2)))
        with pytest.raises(ValueError):
            ArchitectureConfig(extensions=(ext, ExtensionSpec("y", 1)))

    def test_platform_config_wiring(self):
        config = ArchitectureConfig(multiplier="iterative",
                                    adapter_read_burst=1).with_dcache_size(8192)
        platform = FPXPlatform(config.platform_config())
        assert platform.config.arch is config
        assert platform.dcache.geometry.size == 8192
        assert platform.cpu.pipeline.timing.mul_cycles == 35
        assert platform.sdram_adapter.config.read_burst_words == 1

    def test_stock_platform_config_is_the_stock_architecture(self):
        assert ArchitectureConfig().platform_config() == PlatformConfig()

    def test_configs_are_hashable_value_objects(self):
        assert ArchitectureConfig() == ArchitectureConfig()
        assert hash(ArchitectureConfig()) == hash(ArchitectureConfig())


class TestConfigurationSpace:
    def test_paper_sweep_is_the_figure8_axis(self):
        space = ConfigurationSpace.paper_cache_sweep()
        sizes = [config.dcache.size for config in space]
        assert sizes == [1024, 2048, 4096, 8192, 16384]
        for config in space:
            assert config.icache.size == 1024
            assert config.dcache.line_size == 32

    def test_cross_product(self):
        space = ConfigurationSpace()
        space.add_dimension("dcache_size", [1024, 4096])
        space.add_dimension("multiplier", ["iterative", "16x16"])
        points = space.points()
        assert len(points) == space.size == 4
        assert len({p.key() for p in points}) == 4

    def test_unknown_dimension_rejected(self):
        with pytest.raises(KeyError):
            ConfigurationSpace().add_dimension("warp_factor", [1])

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace().add_dimension("dcache_size", [])

    def test_line_size_dimension_touches_both_caches(self):
        space = ConfigurationSpace().add_dimension("line_size", [16, 64])
        points = space.points()
        assert points[0].icache.line_size == 16
        assert points[0].dcache.line_size == 16
        assert points[1].dcache.line_size == 64

    def test_nwindows_and_burst_dimensions(self):
        space = ConfigurationSpace()
        space.add_dimension("nwindows", [4, 8])
        space.add_dimension("adapter_read_burst", [1, 4])
        keys = {p.key() for p in space}
        assert len(keys) == 4

    def test_ways_dimension(self):
        space = ConfigurationSpace().add_dimension("dcache_ways", [1, 2, 4])
        ways = [p.dcache.ways for p in space]
        assert ways == [1, 2, 4]
