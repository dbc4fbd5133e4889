"""Trace capture and analysis tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    MemoryTrace,
    TraceRecorder,
    footprint_histogram,
    observed_miss_rate,
    reuse_distances,
    simulate_miss_curve,
    stride_profile,
    working_set_bytes,
)
from repro.cache.cache import CacheGeometry
from repro.core import ArchitectureConfig, LiquidProcessorSystem
from repro.toolchain import driver
from repro.workloads import get
from tests.golden.regen import CONFLICT_SOURCE


def make_trace(addresses, writes=None, hits=None) -> MemoryTrace:
    n = len(addresses)
    return MemoryTrace(
        addresses=np.asarray(addresses, dtype=np.uint64),
        sizes=np.full(n, 4, dtype=np.uint8),
        is_write=np.asarray(writes if writes is not None else [False] * n),
        hit=np.asarray(hits if hits is not None else [True] * n),
    )


class TestRecorder:
    def test_records_and_converts(self):
        recorder = TraceRecorder()
        recorder(0x4000_0000, 4, False, True)
        recorder(0x4000_0020, 1, True, False)
        trace = recorder.trace()
        assert len(trace) == 2
        assert trace.addresses[1] == 0x4000_0020
        assert bool(trace.is_write[1])
        assert not bool(trace.hit[1])

    def test_limit_drops_beyond(self):
        recorder = TraceRecorder(limit=3)
        for i in range(10):
            recorder(i * 4, 4, False, True)
        assert len(recorder) == 3
        assert recorder.dropped == 7

    def test_attach_to_controller(self):
        from repro.cache import CacheController, CacheGeometry
        from repro.mem.interface import FlatMemory

        memory = FlatMemory(size=1 << 16, base=0x4000_0000)
        controller = CacheController(CacheGeometry(1024, 32), memory)
        recorder = TraceRecorder().attach(controller)
        controller.read(0x4000_0000, 4)
        controller.read(0x4000_0000, 4)
        trace = recorder.trace()
        assert len(trace) == 2
        assert not bool(trace.hit[0])
        assert bool(trace.hit[1])

    def test_clear(self):
        recorder = TraceRecorder()
        recorder(0, 4, False, True)
        recorder.clear()
        assert len(recorder) == 0


class TestSerialization:
    def test_roundtrip(self):
        trace = make_trace([0x10, 0x20, 0x30], writes=[True, False, True],
                           hits=[False, True, False])
        rebuilt = MemoryTrace.from_bytes(trace.to_bytes())
        assert np.array_equal(rebuilt.addresses, trace.addresses)
        assert np.array_equal(rebuilt.is_write, trace.is_write)
        assert np.array_equal(rebuilt.hit, trace.hit)

    @given(addresses=st.lists(st.integers(0, 2**32 - 1), min_size=0,
                              max_size=200))
    @settings(max_examples=30)
    def test_roundtrip_property(self, addresses):
        trace = make_trace(addresses)
        rebuilt = MemoryTrace.from_bytes(trace.to_bytes())
        assert np.array_equal(rebuilt.addresses, trace.addresses)


class TestReductions:
    def test_working_set(self):
        trace = make_trace([0, 4, 8, 32, 64, 64])
        assert working_set_bytes(trace, line_size=32) == 3 * 32

    def test_working_set_empty(self):
        assert working_set_bytes(make_trace([])) == 0

    def test_footprint_histogram_ordering(self):
        trace = make_trace([0] * 5 + [32] * 3 + [64])
        hist = footprint_histogram(trace, line_size=32)
        assert hist[0] == (0, 5)
        assert hist[1] == (32, 3)

    def test_stride_profile_detects_constant_stride(self):
        trace = make_trace(list(range(0, 4000, 128)))
        strides = stride_profile(trace)
        assert strides[0][0] == 128

    def test_observed_miss_rate(self):
        trace = make_trace([0, 4, 8, 12], hits=[False, True, True, False])
        assert observed_miss_rate(trace) == 0.5

    def test_reuse_distance_simple(self):
        # a b a : reuse distance of the second 'a' is 1 (only b between).
        trace = make_trace([0, 32, 0])
        distances = reuse_distances(trace, line_size=32)
        assert list(distances) == [1]

    def test_splits(self):
        trace = make_trace([0, 4], writes=[True, False])
        assert len(trace.writes) == 1
        assert len(trace.reads) == 1


class TestMissCurve:
    def test_figure8_pattern_knee_at_4kb(self):
        """The paper's access pattern simulated offline: 4 KB working
        set, stride 128 B — thrash below 4 KB, cold misses only at 4 KB+."""
        addresses = []
        for _ in range(5):
            addresses.extend(range(0x4000_0000, 0x4000_0000 + 4096, 128))
        trace = make_trace(addresses)
        curve = simulate_miss_curve(
            trace, [CacheGeometry(size) for size in (1024, 2048, 4096, 8192)])
        by_size = {p.cache_bytes: p for p in curve}
        assert by_size[1024].miss_rate == 1.0
        assert by_size[2048].miss_rate == 1.0
        assert by_size[4096].misses == 32   # cold misses only
        assert by_size[8192].misses == 32

    def test_writes_do_not_allocate_in_simulation(self):
        trace = make_trace([0, 0], writes=[True, False])
        curve = simulate_miss_curve(trace, [CacheGeometry(1024)])
        # The read still misses: the preceding write didn't fill the line.
        assert curve[0].misses == 1
        assert curve[0].references == 2

    def test_monotone_for_nested_direct_mapped_power_sweep(self):
        rng = np.random.default_rng(3)
        addresses = (rng.integers(0, 1 << 14, size=2000) * 4).tolist()
        trace = make_trace(addresses)
        curve = simulate_miss_curve(
            trace, [CacheGeometry(size) for size in (512, 1024, 2048, 4096,
                                                     8192, 16384, 65536)])
        # Direct-mapped caches aren't strictly monotone in general, but a
        # cache covering the whole address range must be best.
        assert curve[-1].misses == min(p.misses for p in curve)

    def test_associative_curve_matches_reference_on_small_case(self):
        addresses = [0, 512, 1024, 0, 512, 1024] * 3
        trace = make_trace([0x4000_0000 + a for a in addresses])
        direct = simulate_miss_curve(trace, [CacheGeometry(1024, 32, ways=1)])
        assoc = simulate_miss_curve(trace, [CacheGeometry(1024, 32, ways=4)])
        assert assoc[0].misses < direct[0].misses

    @given(addresses=st.lists(st.integers(0, 1 << 16), min_size=1,
                              max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_direct_mapped_matches_naive(self, addresses):
        """The tag-store walk equals a dict walk."""
        trace = make_trace([a * 4 for a in addresses])
        [point] = simulate_miss_curve(trace, [CacheGeometry(1024)])
        # naive reference
        sets = 1024 // 32
        state = {}
        misses = 0
        for address in trace.addresses.tolist():
            line = address // 32
            index = line % sets
            if state.get(index) != line:
                misses += 1
                state[index] = line
        assert point.misses == misses


@pytest.mark.parametrize("kernel, geometry", [
    ("conflict", CacheGeometry(1024, 32, ways=2, replacement="lrr")),
    ("conflict", CacheGeometry(1024, 32, ways=2, replacement="random")),
    ("qsort_rec", CacheGeometry(1024, 32, ways=4, replacement="lru")),
])
def test_curve_at_captured_geometry_counts_the_machines_misses(
        kernel, geometry):
    """The Trace Analyzer models the cache it measured: at the geometry
    a trace was captured under, the curve's misses are the read misses
    the machine saw — write hits count as uses, and lrr / random choose
    the machine's victims."""
    image = (driver.compile_c_program(CONFLICT_SOURCE)
             if kernel == "conflict" else get(kernel).image())
    system = LiquidProcessorSystem(
        replace(ArchitectureConfig(), dcache=geometry))
    recorder = TraceRecorder().attach(system.platform.dcache)
    system.run_image(image)
    trace = recorder.trace()
    observed = int((~trace.reads.hit).sum())
    [point] = simulate_miss_curve(trace, [geometry])
    assert observed > 0
    assert point.misses == observed
