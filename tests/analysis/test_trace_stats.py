"""Trace capture and analysis tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    MemoryTrace,
    TraceRecorder,
    observed_miss_rate,
    simulate_miss_curve,
    stride_profile,
    working_set_bytes,
)
from repro.cache.cache import CacheGeometry
from repro.core import ArchitectureConfig, LiquidProcessorSystem, Simulator
from repro.toolchain import driver
from repro.toolchain.driver import SourceFile, build_image
from repro.workloads import get
from tests.golden.regen import CONFLICT_SOURCE


def make_trace(addresses, writes=None, hits=None, sizes=None) -> MemoryTrace:
    n = len(addresses)
    return MemoryTrace(
        addresses=np.asarray(addresses, dtype=np.uint64),
        sizes=np.asarray(sizes if sizes is not None else [4] * n,
                         dtype=np.uint8),
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

    def test_controller_reports_a_flush_as_a_size_zero_entry(self):
        from repro.cache import CacheController, CacheGeometry
        from repro.mem.interface import FlatMemory

        memory = FlatMemory(size=1 << 16, base=0x4000_0000)
        controller = CacheController(CacheGeometry(1024, 32), memory)
        recorder = TraceRecorder().attach(controller)
        controller.read(0x4000_0000, 4)
        controller.flush()
        controller.read(0x4000_0000, 4)
        trace = recorder.trace()
        assert trace.sizes.tolist() == [4, 0, 4]
        assert trace.hit.tolist() == [False, False, False]
        assert len(trace.accesses) == len(trace.reads) == 2
        assert trace.misses.sizes.tolist() == [4, 4]

    def test_flush_recorded_only_after_a_read(self):
        """Before any read, and after only writes, every cache is empty
        already: an idle polling loop's flushes leave no entries."""
        recorder = TraceRecorder()
        recorder(0, 0, False, False)
        recorder(0x40, 4, True, False)
        recorder(0, 0, False, False)
        recorder(0x40, 4, False, False)
        for _ in range(3):
            recorder(0, 0, False, False)
        assert recorder.trace().sizes.tolist() == [4, 4, 0]


class TestSerialization:
    def test_roundtrip(self):
        trace = make_trace([0x10, 0x20, 0x30], writes=[True, False, True],
                           hits=[False, True, False])
        rebuilt = MemoryTrace.from_bytes(trace.to_bytes())
        assert np.array_equal(rebuilt.addresses, trace.addresses)
        assert np.array_equal(rebuilt.is_write, trace.is_write)
        assert np.array_equal(rebuilt.hit, trace.hit)

    def test_roundtrip_keeps_flush_markers(self):
        trace = make_trace([0x10, 0, 0x10], writes=[False, False, True],
                           hits=[False, False, False], sizes=[4, 0, 2])
        rebuilt = MemoryTrace.from_bytes(trace.to_bytes())
        for column in ("addresses", "sizes", "is_write", "hit"):
            assert np.array_equal(getattr(rebuilt, column),
                                  getattr(trace, column))
        assert len(rebuilt.accesses) == 2
        assert rebuilt.reads.addresses.tolist() == [0x10]
        assert rebuilt.writes.sizes.tolist() == [2]

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

    def test_stride_profile_detects_constant_stride(self):
        trace = make_trace(list(range(0, 4000, 128)))
        strides = stride_profile(trace)
        assert strides[0][0] == 128

    def test_observed_miss_rate(self):
        trace = make_trace([0, 4, 8, 12], hits=[False, True, True, False])
        assert observed_miss_rate(trace) == 0.5

    def test_reductions_skip_flush_markers(self):
        trace = make_trace([0, 0, 128, 0, 256], sizes=[4, 0, 4, 0, 4],
                           hits=[False, False, True, False, True])
        assert working_set_bytes(trace, line_size=32) == 3 * 32
        assert stride_profile(trace) == [(128, 2)]
        assert observed_miss_rate(trace) == pytest.approx(1 / 3)

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

    def test_flush_marker_empties_the_cache(self):
        trace = make_trace([0x40, 0, 0x40, 0x40], sizes=[4, 0, 4, 4])
        [point] = simulate_miss_curve(trace, [CacheGeometry(1024)])
        assert point.misses == 2
        assert point.references == 3

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


# A flushing loop: each call loads two words of one line and then
# flushes, so both loads miss on every call, whatever the D-cache size.
FLUSH_LOOP_C = """
extern void touch(unsigned *p);
unsigned data[8];
int main(void) {
    int i;
    for (i = 0; i < 50; i = i + 1) touch(data);
    return 0;
}
"""

FLUSH_LOOP_ASM = """
    .text
    .global touch
touch:
    ld [%o0], %o1
    ld [%o0+4], %o2
    flush [%o0]
    retl
    nop
"""


def test_curve_counts_the_machines_misses_under_flush():
    """A trace captured at 1 KB carries the program's flushes, so the
    curve equals ``Simulator.run``'s read misses at every size."""
    image = build_image([SourceFile(FLUSH_LOOP_C, "c", "app.c"),
                         SourceFile(FLUSH_LOOP_ASM, "asm", "touch.s")])
    sizes = (1024, 2048, 4096, 8192, 16384)
    captured = ArchitectureConfig().with_dcache_size(sizes[0])
    sim = Simulator(captured)
    recorder = TraceRecorder().attach(sim.dcache)
    sim.run(image)
    trace = recorder.trace()
    curve = simulate_miss_curve(
        trace, [replace(captured.dcache, size=size) for size in sizes])
    for size, point in zip(sizes, curve):
        report = Simulator(ArchitectureConfig().with_dcache_size(size)).run(
            image)
        assert report.dcache["flushes"] == 50
        assert point.misses == report.dcache["read_misses"] > 100
