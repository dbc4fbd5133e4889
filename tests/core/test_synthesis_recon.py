"""Synthesis model (Figure 10) and reconfiguration cache/server tests."""

import warnings

import pytest

from repro.core import (
    ArchitectureConfig,
    ConfigurationSpace,
    ExtensionSpec,
    ReconCacheThrashWarning,
    ReconfigurationCache,
    SynthesisError,
    SynthesisModel,
    figure10_table,
)
from repro.core.config import BASELINE
from repro.core.synthesis import PAPER_SYNTHESIS_SECONDS


class TestFigure10Calibration:
    def test_baseline_matches_paper_exactly(self):
        """The paper's Figure 10: 7900 slices (41%), 54 BlockRAMs,
        309 IOBs, 30 MHz."""
        utilization = SynthesisModel().estimate(BASELINE)
        assert utilization.slices == 7900
        assert utilization.block_rams == 54
        assert utilization.iobs == 309
        assert utilization.frequency_mhz == 30.0
        assert round(utilization.slice_percent) == 41

    def test_table_rendering(self):
        table = figure10_table()
        assert "7900 of 19200" in table
        assert "41%" in table
        assert "54 of 160" in table
        assert "309 of 404" in table
        assert "30 MHz" in table

    def test_bigger_dcache_needs_more_brams(self):
        model = SynthesisModel()
        small = model.estimate(BASELINE.with_dcache_size(1024))
        large = model.estimate(BASELINE.with_dcache_size(16384))
        assert large.block_rams > small.block_rams

    def test_bigger_caches_slow_the_clock(self):
        model = SynthesisModel()
        small = model.estimate(BASELINE.with_dcache_size(4096))
        large = model.estimate(BASELINE.with_dcache_size(16384))
        assert large.frequency_mhz < small.frequency_mhz

    def test_multiplier_options_trade_area(self):
        model = SynthesisModel()
        iterative = model.estimate(ArchitectureConfig(multiplier="iterative"))
        fast = model.estimate(ArchitectureConfig(multiplier="32x32"))
        assert fast.slices > iterative.slices
        assert fast.frequency_mhz < iterative.frequency_mhz

    def test_extensions_charge_area(self):
        model = SynthesisModel()
        ext = ExtensionSpec("mac", 0x02, slice_cost=420)
        base = model.estimate(BASELINE)
        extended = model.estimate(BASELINE.with_extension(ext))
        assert extended.slices == base.slices + 420

    def test_whole_paper_sweep_fits_the_device(self):
        model = SynthesisModel()
        for config in ConfigurationSpace.paper_cache_sweep():
            utilization = model.estimate(config)
            assert utilization.fits(), config.key()

    def test_oversized_design_rejected(self):
        import dataclasses
        from repro.cache.cache import CacheGeometry
        huge = dataclasses.replace(
            BASELINE, dcache=CacheGeometry(size=1 << 20, line_size=32))
        with pytest.raises(SynthesisError):
            SynthesisModel().synthesize(huge)

    def test_synthesis_time_about_an_hour(self):
        """'Each such instance requires ~1 hour to synthesize.'"""
        bitfile = SynthesisModel().synthesize(BASELINE)
        assert 0.5 * PAPER_SYNTHESIS_SECONDS < bitfile.synthesis_seconds \
            < 2.0 * PAPER_SYNTHESIS_SECONDS

    def test_synthesis_deterministic(self):
        a = SynthesisModel().synthesize(BASELINE)
        b = SynthesisModel().synthesize(BASELINE)
        assert a.synthesis_seconds == b.synthesis_seconds
        assert a.name == b.name


class TestReconfigurationCache:
    def test_miss_then_hit_economics(self):
        cache = ReconfigurationCache()
        _, first, hit = cache.get(BASELINE)
        assert first > 1000.0                   # paid full synthesis
        assert not hit
        bitfile, second, hit = cache.get(BASELINE)
        assert second == 0.0                    # free switch
        assert hit
        assert cache.stats.hits == 1
        assert cache.stats.seconds_saved == pytest.approx(
            bitfile.synthesis_seconds)

    def test_distinct_configs_distinct_entries(self):
        cache = ReconfigurationCache()
        cache.get(BASELINE)
        cache.get(BASELINE.with_dcache_size(8192))
        assert len(cache) == 2

    def test_pregenerate_sweep(self):
        """The paper's workflow: pre-generate the whole parameter space."""
        cache = ReconfigurationCache()
        space = ConfigurationSpace.paper_cache_sweep()
        total = cache.pregenerate(space)
        assert len(cache) == 5
        assert total > 5 * 1000
        # Runtime switching across the space is now free.
        for config in space:
            _, seconds, hit = cache.get(config)
            assert seconds == 0.0 and hit

    def test_capacity_lru_eviction(self):
        cache = ReconfigurationCache(capacity=2)
        a = BASELINE.with_dcache_size(1024)
        b = BASELINE.with_dcache_size(2048)
        c = BASELINE.with_dcache_size(4096)
        cache.get(a)
        cache.get(b)
        cache.get(a)     # a is now more recently used than b
        cache.get(c)     # evicts b
        assert a in cache and c in cache and b not in cache
        assert cache.stats.evictions == 1

    def test_lookup_does_not_synthesize(self):
        cache = ReconfigurationCache()
        assert cache.lookup(BASELINE) is None
        assert cache.stats.misses == 0

    def test_contents_sorted_keys(self):
        cache = ReconfigurationCache()
        cache.get(BASELINE.with_dcache_size(2048))
        cache.get(BASELINE.with_dcache_size(1024))
        assert cache.contents() == sorted(cache.contents())


class CountingSynthesizer:
    """Wraps the real model, counting calls; ``cost`` overrides the
    reported synthesis time (0.0 models a degenerate free synthesis)."""

    def __init__(self, cost=None, delay_seconds=0.0):
        import dataclasses
        self._model = SynthesisModel()
        self._dataclasses = dataclasses
        self.cost = cost
        self.delay_seconds = delay_seconds
        self.calls = 0
        self._lock = __import__("threading").Lock()

    def synthesize(self, config):
        with self._lock:
            self.calls += 1
        if self.delay_seconds:
            __import__("time").sleep(self.delay_seconds)
        bitfile = self._model.synthesize(config)
        if self.cost is not None:
            bitfile = self._dataclasses.replace(bitfile,
                                                synthesis_seconds=self.cost)
        return bitfile


class TestExplicitHitFlag:
    def test_zero_cost_synthesis_is_still_a_miss(self):
        """Regression: a ``synthesis_seconds == 0.0`` sentinel would
        misreport the first get of a free-to-synthesize configuration
        as a hit; the explicit flag must not."""
        cache = ReconfigurationCache(synthesizer=CountingSynthesizer(cost=0.0))
        _, seconds, hit = cache.get(BASELINE)
        assert seconds == 0.0 and not hit
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        _, seconds, hit = cache.get(BASELINE)
        assert seconds == 0.0 and hit
        assert cache.stats.hits == 1


class TestPregenerateThrash:
    def test_over_capacity_batch_warns_and_counts_thrash(self):
        """Regression: pregenerating more distinct configurations than
        the cache holds silently burned the synthesis time and kept
        only the tail of the batch."""
        cache = ReconfigurationCache(capacity=2)
        space = [BASELINE.with_dcache_size(size)
                 for size in (1024, 2048, 4096, 8192)]
        with pytest.warns(ReconCacheThrashWarning,
                          match="4 distinct configurations.*capacity 2"):
            total = cache.pregenerate(space)
        assert total > 4 * 1000
        assert len(cache) == 2
        stats = cache.stats
        assert stats.evictions == 2
        assert stats.thrash_evictions == 2

    def test_fitting_batch_does_not_warn(self):
        cache = ReconfigurationCache(capacity=8)
        space = [BASELINE.with_dcache_size(size)
                 for size in (1024, 2048)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReconCacheThrashWarning)
            cache.pregenerate(space)
        assert cache.stats.thrash_evictions == 0

    def test_unrelated_eviction_is_not_thrash(self):
        cache = ReconfigurationCache(capacity=1)
        cache.get(BASELINE.with_dcache_size(1024))
        cache.get(BASELINE.with_dcache_size(2048))
        assert cache.stats.evictions == 1
        assert cache.stats.thrash_evictions == 0


class TestConcurrentAccess:
    def test_same_config_synthesized_exactly_once(self):
        """Eight threads race for one un-synthesized configuration: one
        pays, the rest coalesce onto its in-flight synthesis."""
        from concurrent.futures import ThreadPoolExecutor

        synthesizer = CountingSynthesizer(delay_seconds=0.02)
        cache = ReconfigurationCache(synthesizer=synthesizer)
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(lambda _: cache.get(BASELINE),
                                     range(8)))
        assert synthesizer.calls == 1
        assert len({id(outcome.bitfile) for outcome in outcomes}) == 1
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 7
        assert stats.hits + stats.misses == 8
        # Every non-owner either coalesced on the in-flight event or
        # arrived after the insert; hit accounting covers both.
        assert 0 <= stats.coalesced <= 7
        assert sum(1 for outcome in outcomes if not outcome.hit) == 1

    def test_distinct_configs_synthesize_once_each(self):
        from concurrent.futures import ThreadPoolExecutor

        synthesizer = CountingSynthesizer(delay_seconds=0.005)
        cache = ReconfigurationCache(synthesizer=synthesizer)
        space = [BASELINE.with_dcache_size(size)
                 for size in (1024, 2048, 4096, 8192)]
        work = space * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(cache.get, work))
        assert synthesizer.calls == 4
        assert len(cache) == 4
        stats = cache.stats
        assert stats.misses == 4
        assert stats.hits == 12
        assert all(outcome.bitfile.config in space for outcome in outcomes)

    def test_failed_synthesis_releases_waiters(self):
        """A synthesis that raises must wake coalesced waiters and let
        one of them retry as the new owner, not deadlock the key."""

        class FlakySynthesizer(CountingSynthesizer):
            def synthesize(self, config):
                bitfile = super().synthesize(config)
                if self.calls == 1:
                    raise SynthesisError("injected place-and-route fail")
                return bitfile

        cache = ReconfigurationCache(synthesizer=FlakySynthesizer())
        with pytest.raises(SynthesisError):
            cache.get(BASELINE)
        _, _, hit = cache.get(BASELINE)
        assert not hit
        assert cache.stats.misses == 1


class TestCrossProcessDeterminism:
    def test_synthesis_time_uses_stable_digest(self):
        """Python's ``hash()`` is salted per process; the jitter must use
        a stable digest so EXPERIMENTS.md numbers reproduce anywhere."""
        import subprocess
        import sys

        snippet = ("from repro.core import SynthesisModel;"
                   "from repro.core.config import BASELINE;"
                   "print(SynthesisModel().synthesize(BASELINE)"
                   ".synthesis_seconds)")
        runs = {
            subprocess.run([sys.executable, "-c", snippet],
                           capture_output=True, text=True,
                           check=True).stdout.strip()
            for _ in range(2)
        }
        assert len(runs) == 1
        from repro.core import SynthesisModel
        from repro.core.config import BASELINE
        in_process = str(SynthesisModel().synthesize(BASELINE)
                         .synthesis_seconds)
        assert runs == {in_process}
