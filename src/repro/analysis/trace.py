"""Execution-trace capture.

"The high-speed network facilitates ... the streaming of instrumented
traces to the Trace Analyzer."  The recorder hooks the data-cache
controller's access callback and accumulates (address, size, is_write,
hit) tuples in Python lists, converting to NumPy arrays on demand —
append-to-list then vectorize is the cheap pattern for
build-once/analyze-many data (per the scientific-Python optimization
guidance this project follows: profile first, vectorize the analysis,
keep the capture path trivial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoryTrace:
    """Immutable columnar trace of data-memory references.  A whole-cache
    flush is a size-0 entry in place (the controller reports one per
    FLUSH, as a recording's ``REF_DFLUSH`` marks it); :attr:`accesses`
    and :attr:`misses` drop those markers."""

    addresses: np.ndarray   # uint64
    sizes: np.ndarray       # uint8
    is_write: np.ndarray    # bool
    hit: np.ndarray         # bool (as observed under the capture config)

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def accesses(self) -> "MemoryTrace":
        """The references, without the flush markers."""
        return self.filter(self.sizes != 0)

    @property
    def misses(self) -> "MemoryTrace":
        """The references that missed, without the flush markers."""
        return self.filter((self.sizes != 0) & ~self.hit)

    @property
    def reads(self) -> "MemoryTrace":
        return self.filter((self.sizes != 0) & ~self.is_write)

    @property
    def writes(self) -> "MemoryTrace":
        return self.filter((self.sizes != 0) & self.is_write)

    def filter(self, mask: np.ndarray) -> "MemoryTrace":
        return MemoryTrace(self.addresses[mask], self.sizes[mask],
                           self.is_write[mask], self.hit[mask])

    def lines(self, line_size: int) -> np.ndarray:
        """Cache-line addresses for a given line size (vectorized)."""
        return self.addresses & ~np.uint64(line_size - 1)

    def to_bytes(self) -> bytes:
        """Serialize for 'streaming off the FPX' (tests round-trip this)."""
        header = np.array([len(self.addresses)], dtype="<u8").tobytes()
        return (header
                + self.addresses.astype("<u8").tobytes()
                + self.sizes.astype("u1").tobytes()
                + self.is_write.astype("u1").tobytes()
                + self.hit.astype("u1").tobytes())

    @classmethod
    def empty(cls) -> "MemoryTrace":
        """A trace of no references (a run that captured none)."""
        return cls(np.zeros(0, np.uint64), np.zeros(0, np.uint8),
                   np.zeros(0, bool), np.zeros(0, bool))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MemoryTrace":
        count = int(np.frombuffer(blob[:8], dtype="<u8")[0])
        offset = 8
        addresses = np.frombuffer(blob[offset:offset + 8 * count],
                                  dtype="<u8").copy()
        offset += 8 * count
        sizes = np.frombuffer(blob[offset:offset + count], dtype="u1").copy()
        offset += count
        is_write = np.frombuffer(blob[offset:offset + count],
                                 dtype="u1").astype(bool)
        offset += count
        hit = np.frombuffer(blob[offset:offset + count],
                            dtype="u1").astype(bool)
        return cls(addresses, sizes, is_write, hit)


class TraceRecorder:
    """Attachable recorder for a CacheController's ``on_access`` hook.

    A flush is recorded only after a read: until some read fills a
    line, every cache of every geometry is empty, so the flush changes
    nothing.  That keeps an idle polling loop, which flushes on every
    lap, from growing the trace."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self._addresses: list[int] = []
        self._sizes: list[int] = []
        self._writes: list[bool] = []
        self._hits: list[bool] = []
        self._read_since_flush = False
        self.dropped = 0

    def __call__(self, address: int, size: int, is_write: bool,
                 hit: bool) -> None:
        if self.limit is not None and len(self._addresses) >= self.limit:
            self.dropped += 1
            return
        if not size:
            if not self._read_since_flush:
                return
            self._read_since_flush = False
        elif not is_write:
            self._read_since_flush = True
        self._addresses.append(address)
        self._sizes.append(size)
        self._writes.append(is_write)
        self._hits.append(hit)

    def __len__(self) -> int:
        return len(self._addresses)

    def trace(self) -> MemoryTrace:
        return MemoryTrace(
            addresses=np.asarray(self._addresses, dtype=np.uint64),
            sizes=np.asarray(self._sizes, dtype=np.uint8),
            is_write=np.asarray(self._writes, dtype=bool),
            hit=np.asarray(self._hits, dtype=bool),
        )

    def attach(self, controller) -> "TraceRecorder":
        controller.on_access = self
        return self

    def clear(self) -> None:
        self._addresses.clear()
        self._sizes.clear()
        self._writes.clear()
        self._hits.clear()
        self._read_since_flush = False
        self.dropped = 0
