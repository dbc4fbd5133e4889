"""MetricsRegistry unit tests: instruments, identity, snapshots and
diffs."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    POW2_BOUNDS,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    series_key,
)


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("pipeline.cycles") == "pipeline.cycles"

    def test_labels_sorted_by_key(self):
        assert series_key("cache.read_hits", {"cache": "dcache"}) \
            == "cache.read_hits{cache=dcache}"
        assert series_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"


class TestInstruments:
    def test_counter_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        counter = registry.counter("events", cache="dcache")
        counter.inc()
        counter.inc(4)
        assert registry.counter("events", cache="dcache") is counter
        assert counter.value == 5
        # A different label set is a different series.
        assert registry.counter("events", cache="icache") is not counter

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("occupancy", stage="EX").set(0.75)
        assert registry.snapshot()["gauges"]["occupancy{stage=EX}"] == 0.75

    def test_histogram_upper_inclusive_bounds(self):
        hist = Histogram(bounds=(0, 1, 3))
        for value in (0, 1, 2, 3, 4, 100):
            hist.observe(value)
        # buckets: <=0, <=1, <=3, +inf
        assert hist.counts == [1, 1, 2, 2]
        assert hist.count == 6
        assert hist.sum == 110

    def test_histogram_load_merges_native_buckets(self):
        hist = Histogram()
        native = [0] * 16
        native[3] = 5
        hist.load(native, total_sum=30)
        hist.load(native, total_sum=30)
        assert hist.counts[3] == 10
        assert hist.count == 10
        assert hist.sum == 60

    def test_histogram_load_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Histogram().load([0] * 3, 0)

    @given(value=st.integers(0, 1 << 20))
    def test_pow2_bounds_match_bit_length_bucketing(self, value):
        """The cache controller's native ``bit_length`` bucketing must
        land every value in the same bucket :meth:`Histogram.observe`
        would pick — the two paths feed the same series."""
        hist = Histogram()
        hist.observe(value)
        native = value.bit_length()
        native = native if native < 15 else 15
        assert hist.counts[native] == 1


class TestSnapshots:
    def test_snapshot_is_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(1)
        registry.counter("a").inc(2)
        registry.histogram("h").observe(5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert registry.snapshot_json() == registry.snapshot_json()
        json.loads(registry.snapshot_json())  # valid JSON

    def test_insertion_order_does_not_change_bytes(self):
        first = MetricsRegistry()
        first.counter("a").inc(1)
        first.counter("b").inc(2)
        second = MetricsRegistry()
        second.counter("b").inc(2)
        second.counter("a").inc(1)
        assert first.snapshot_json() == second.snapshot_json()

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(1)
        assert len(registry) == 3
        registry.reset()
        assert len(registry) == 0


class TestDiff:
    def test_counters_subtract_and_zero_series_survive(self):
        before = MetricsRegistry()
        before.counter("hits").inc(10)
        before.counter("steady").inc(5)
        after = MetricsRegistry()
        after.counter("hits").inc(25)
        after.counter("steady").inc(5)
        delta = diff_snapshots(after.snapshot(), before.snapshot())
        assert delta["counters"] == {"hits": 15, "steady": 0}

    def test_gauges_taken_from_after(self):
        before = MetricsRegistry()
        before.gauge("level").set(0.9)
        after = MetricsRegistry()
        after.gauge("level").set(0.2)
        delta = diff_snapshots(after.snapshot(), before.snapshot())
        assert delta["gauges"] == {"level": 0.2}

    def test_histograms_subtract_per_bucket(self):
        before = MetricsRegistry()
        before.histogram("lat").observe(3)
        after = MetricsRegistry()
        after.histogram("lat").observe(3)
        after.histogram("lat").observe(3)
        after.histogram("lat").observe(100)
        delta = diff_snapshots(after.snapshot(), before.snapshot())
        hist = delta["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["sum"] == 103
        assert sum(hist["counts"]) == 2

    def test_new_series_in_after_kept_verbatim(self):
        after = MetricsRegistry()
        after.counter("fresh").inc(4)
        after.histogram("h").observe(1)
        delta = diff_snapshots(after.snapshot(),
                               {"counters": {}, "gauges": {},
                                "histograms": {}})
        assert delta["counters"]["fresh"] == 4
        assert delta["histograms"]["h"]["count"] == 1

    def test_diff_of_identical_snapshots_is_all_zero(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(7)
        registry.histogram("h").observe(2)
        snap = registry.snapshot()
        delta = diff_snapshots(snap, snap)
        assert delta["counters"] == {"a": 0}
        assert delta["histograms"]["h"]["count"] == 0


class TestBounds:
    def test_pow2_bounds_shape(self):
        assert len(POW2_BOUNDS) == 15
        assert POW2_BOUNDS[0] == 0
        assert POW2_BOUNDS[-1] == (1 << 14) - 1
