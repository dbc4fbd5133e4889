"""Trace reductions used by the Trace Analyzer.

The profiles are NumPy array code over :class:`MemoryTrace` columns:
work on whole columns and reuse views instead of copies.  They skip the
trace's flush markers (size-0 entries).  The miss curve walks the
references one by one through :func:`repro.cache.cache.walk` instead,
flushes included, the same walk replay times the D-cache with: which
line a fill evicts is defined there and nowhere else, and one walk
answers every direct-mapped size of a line size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.trace import MemoryTrace
from repro.cache.cache import FLUSH, READ, WRITE, CacheGeometry, walk


def working_set_bytes(trace: MemoryTrace, line_size: int = 32) -> int:
    """Total bytes of distinct cache lines touched."""
    return int(len(np.unique(trace.accesses.lines(line_size))) * line_size)


def stride_profile(trace: MemoryTrace, top: int = 8) -> list[tuple[int, int]]:
    """Dominant address strides between consecutive references.

    A strong constant stride is the trace analyzer's cue to recommend a
    prefetch unit ("alternative memory structure (such as a prefetch
    unit)", paper §1).
    """
    trace = trace.accesses
    if len(trace) < 2:
        return []
    deltas = np.diff(trace.addresses.astype(np.int64))
    strides, counts = np.unique(deltas, return_counts=True)
    order = np.argsort(counts)[::-1][:top]
    return [(int(strides[i]), int(counts[i])) for i in order]


def observed_miss_rate(trace: MemoryTrace) -> float:
    """Miss rate as captured (under the capture-time configuration)."""
    hit = trace.accesses.hit
    if len(hit) == 0:
        return 0.0
    return float(np.mean(~hit))


@dataclass(frozen=True)
class MissCurvePoint:
    cache_bytes: int
    miss_rate: float
    misses: int
    references: int


def simulate_miss_curve(trace: MemoryTrace,
                        geometries: list[CacheGeometry]
                        ) -> list[MissCurvePoint]:
    """Offline cache simulation of the trace under each geometry.

    This is the Trace Analyzer's core trick: one captured trace answers
    "what would the miss rate be at size S?" for every S, *without*
    re-running the program — exactly the loop the paper's Figure 1 draws
    from the FPX back into the Architecture Generator.

    The trace goes through :func:`~repro.cache.cache.walk`, the walk
    replay times the machine's D-cache with, so a curve point at the
    captured geometry counts the misses the machine had: reads look up
    and fill on a miss, writes only look up (write-through,
    no-allocate), and a flush marker empties the cache.  Misses are read
    misses; the rate divides them by all references (flush markers are
    not references).
    """
    flush = trace.sizes == 0
    kinds = np.full(len(trace), READ, dtype=np.int8)
    kinds[trace.is_write] = WRITE
    kinds[flush] = FLUSH
    references = len(trace) - int(flush.sum())
    points = []
    for geometry, counts in zip(geometries, walk(
            geometries, trace.addresses, kinds)):
        misses = counts["miss", READ]
        rate = misses / references if references else 0.0
        points.append(MissCurvePoint(geometry.size, rate, misses, references))
    return points
