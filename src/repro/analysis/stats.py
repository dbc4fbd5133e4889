"""Trace reductions used by the Trace Analyzer.

The histograms and profiles are NumPy array code over
:class:`MemoryTrace` columns: work on whole columns and reuse views
instead of copies.  The miss curve walks the references one by one
through the machine's tag store instead, because which line a fill
evicts is defined there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.trace import MemoryTrace
from repro.cache.cache import CacheGeometry, tag_store


def working_set_bytes(trace: MemoryTrace, line_size: int = 32) -> int:
    """Total bytes of distinct cache lines touched."""
    if len(trace) == 0:
        return 0
    return int(len(np.unique(trace.lines(line_size))) * line_size)


def footprint_histogram(trace: MemoryTrace, line_size: int = 32,
                        top: int = 16) -> list[tuple[int, int]]:
    """Most-touched lines as (line_address, touches), descending."""
    if len(trace) == 0:
        return []
    lines, counts = np.unique(trace.lines(line_size), return_counts=True)
    order = np.argsort(counts)[::-1][:top]
    return [(int(lines[i]), int(counts[i])) for i in order]


def stride_profile(trace: MemoryTrace, top: int = 8) -> list[tuple[int, int]]:
    """Dominant address strides between consecutive references.

    A strong constant stride is the trace analyzer's cue to recommend a
    prefetch unit ("alternative memory structure (such as a prefetch
    unit)", paper §1).
    """
    if len(trace) < 2:
        return []
    deltas = np.diff(trace.addresses.astype(np.int64))
    strides, counts = np.unique(deltas, return_counts=True)
    order = np.argsort(counts)[::-1][:top]
    return [(int(strides[i]), int(counts[i])) for i in order]


def observed_miss_rate(trace: MemoryTrace) -> float:
    """Miss rate as captured (under the capture-time configuration)."""
    if len(trace) == 0:
        return 0.0
    return float(np.mean(~trace.hit))


def reuse_distances(trace: MemoryTrace, line_size: int = 32,
                    sample_limit: int = 200_000) -> np.ndarray:
    """Line-granular reuse distances (number of *distinct* lines touched
    between consecutive uses of the same line) — the classic stack
    distance, O(N·U) worst case, so the trace is subsampled beyond
    *sample_limit* references."""
    lines = trace.lines(line_size)
    if len(lines) > sample_limit:
        step = len(lines) // sample_limit + 1
        lines = lines[::step]
    last_seen: dict[int, int] = {}
    stack: list[int] = []
    distances = []
    for position, line in enumerate(lines.tolist()):
        if line in last_seen:
            # Distance = distinct lines since last touch.
            since = stack[last_seen[line] + 1:]
            distances.append(len(set(since)))
        last_seen[line] = position
        stack.append(line)
    return np.asarray(distances, dtype=np.int64)


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

    Each geometry walks the trace through the machine's own
    :class:`~repro.cache.cache.TagStore`, so a curve point at the
    captured geometry counts the misses the machine had: reads look up
    and fill on a miss, writes only look up (write-through,
    no-allocate).  Misses are read misses; the rate divides them by all
    references.
    """
    writes = trace.is_write.tolist()
    references = len(trace)
    points = []
    for geometry in geometries:
        tags = tag_store(geometry)
        lookup, fill = tags.lookup, tags.fill
        misses = 0
        lines = (trace.addresses >> np.uint64(geometry.offset_bits)).tolist()
        for line, write in zip(lines, writes):
            if not lookup(line) and not write:
                misses += 1
                fill(line)
        rate = misses / references if references else 0.0
        points.append(MissCurvePoint(geometry.size, rate, misses, references))
    return points
