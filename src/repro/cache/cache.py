"""Set-associative cache data structure with pluggable replacement.

This is the tunable structure at the heart of the paper's evaluation: the
Figure 8/9 experiment sweeps the data-cache size from 1 KB to 16 KB with a
fixed 32-byte line and observes the running-time knee at the working-set
size.  The LEON2 defaults are direct-mapped with LRR replacement for
multi-way configurations; we support LRU/LRR/random (random is seeded and
deterministic, as a hardware LFSR would be).

The replacement decision lives in :class:`TagStore` alone: the
machine's caches, the timing replayer (:mod:`repro.core.replay`) and
the Trace Analyzer's miss curves
(:func:`repro.analysis.stats.simulate_miss_curve`) share it, so they
cannot disagree about which line a fill evicts.
:class:`SetAssociativeCache` adds the resident lines' data, so it can
sit transparently between the CPU and the AHB (the controller in
:mod:`repro.cache.controller` handles timing and write policy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import log2_exact

REPLACEMENT_POLICIES = ("lru", "lrr", "random")

#: Default seed of the ``random`` replacement policy's generator.
REPLACEMENT_SEED = 0x5EED


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache (sizes in bytes).

    ``ways = 1`` is direct-mapped.  All three parameters must be powers of
    two and ``size`` must be divisible by ``line_size * ways``.
    """

    size: int = 4096
    line_size: int = 32
    ways: int = 1
    replacement: str = "lru"

    def __post_init__(self) -> None:
        log2_exact(self.size)
        log2_exact(self.line_size)
        log2_exact(self.ways)
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(f"unknown replacement '{self.replacement}'")
        if self.size % (self.line_size * self.ways):
            raise ValueError(
                f"cache size {self.size} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}")
        if self.sets < 1:
            raise ValueError("cache must have at least one set")

    @property
    def sets(self) -> int:
        return self.size // (self.line_size * self.ways)

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.line_size)

    @property
    def index_bits(self) -> int:
        return log2_exact(self.sets)

    def split(self, address: int) -> tuple[int, int, int]:
        """Return ``(tag, set_index, line_offset)`` for *address*."""
        offset = address & (self.line_size - 1)
        index = (address >> self.offset_bits) & (self.sets - 1)
        tag = address >> (self.offset_bits + self.index_bits)
        return tag, index, offset

    def line_base(self, address: int) -> int:
        return address & ~(self.line_size - 1)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting, queried by the trace analyzer."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def read_miss_rate(self) -> float:
        return self.read_misses / self.reads if self.reads else 0.0


class TagStore:
    """Which lines of one cache are resident, and the victim choice: the
    first invalid way, else lru (least recently used), lrr (least
    recently filled) or random (a generator seeded with *seed*, drawn
    once per eviction).  The machine's caches, the timing replayer and
    the Trace Analyzer's miss curves all keep their tags here.

    Lines are line numbers (``address >> offset_bits``); a set's ways are
    consecutive slots, ``-1`` when invalid.  Only :meth:`invalidate`
    empties slots, and it empties them all, so a set's valid ways always
    come before its invalid ones."""

    def __init__(self, geometry: CacheGeometry,
                 seed: int = REPLACEMENT_SEED):
        self.ways = geometry.ways
        self.mask = geometry.sets - 1
        self.policy = geometry.replacement
        self.seed = seed
        self.slots = [-1] * (geometry.sets * geometry.ways)
        self.evictions = 0
        self.restart()

    def lookup(self, line: int) -> bool:
        """Hit test; a hit counts as a use (lru)."""
        first = (line & self.mask) * self.ways
        slots = self.slots
        for slot in range(first, first + self.ways):
            if slots[slot] == line:
                self.clock += 1
                self.used[slot] = self.clock
                return True
        return False

    def fill(self, line: int) -> int:
        """Install *line*; return the line it evicted, or -1.  Filling a
        resident line refills its own way and evicts nothing."""
        first = (line & self.mask) * self.ways
        ways = range(first, first + self.ways)
        slots = self.slots
        evicted = -1
        for slot in ways:
            if slots[slot] < 0 or slots[slot] == line:
                break
        else:
            self.evictions += 1
            if self.policy == "lru":
                slot = min(ways, key=self.used.__getitem__)
            elif self.policy == "lrr":
                slot = min(ways, key=self.filled.__getitem__)
            else:
                slot = first + int(self.rng.integers(self.ways))
            evicted = slots[slot]
        slots[slot] = line
        self.clock += 1
        self.used[slot] = self.filled[slot] = self.clock
        return evicted

    def invalidate(self) -> None:
        self.slots = [-1] * len(self.slots)

    def restart(self) -> None:
        """Power-on replacement state: the lines stay resident; the
        clock, the use and fill stamps and the generator start over.
        Only a ``random`` store has a generator (building one is what
        first imports ``numpy.random`` in a process)."""
        self.used = [0] * len(self.slots)
        self.filled = [0] * len(self.slots)
        self.clock = 0
        if self.policy == "random":
            self.rng = np.random.default_rng(self.seed)


class DirectTagStore(TagStore):
    """Direct-mapped special case: one way, so no victim choice (a
    one-way ``random`` cache would draw ``integers(1)``, which leaves
    the generator where it was)."""

    def lookup(self, line: int) -> bool:
        return self.slots[line & self.mask] == line

    def fill(self, line: int) -> int:
        slot = line & self.mask
        evicted = self.slots[slot]
        self.slots[slot] = line
        if evicted < 0 or evicted == line:
            return -1
        self.evictions += 1
        return evicted


def tag_store(geometry: CacheGeometry,
              seed: int = REPLACEMENT_SEED) -> TagStore:
    """An empty tag store for *geometry*."""
    store = DirectTagStore if geometry.ways == 1 else TagStore
    return store(geometry, seed)


class SetAssociativeCache:
    """A :class:`TagStore` plus the resident lines' data.  Timing lives
    in the controller, not here."""

    def __init__(self, geometry: CacheGeometry,
                 seed: int = REPLACEMENT_SEED):
        self.geometry = geometry
        self.stats = CacheStats()
        self.tags = tag_store(geometry, seed)
        self._lookup = self.tags.lookup
        #: Line number -> data, for exactly the lines resident in
        #: ``tags``: a miss needs no tag scan, a hit still tells the tag
        #: store of the use.
        self._data: dict[int, bytearray] = {}
        self._offset_mask = geometry.line_size - 1
        self._offset_shift = geometry.offset_bits

    # -- lookup -------------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Whether *address* is resident.  No stats, no replacement use."""
        return address >> self._offset_shift in self._data

    def read(self, address: int, size: int) -> int | None:
        """Read *size* bytes if cached, else None (recording hit/miss)."""
        line = address >> self._offset_shift
        data = self._data.get(line)
        if data is None:
            self.stats.read_misses += 1
            return None
        self._lookup(line)  # the hit is a use (lru)
        self.stats.read_hits += 1
        offset = address & self._offset_mask
        return int.from_bytes(data[offset:offset + size], "big")

    def write(self, address: int, size: int, value: int) -> bool:
        """Update the cached copy if present (write-through, no-allocate).

        Returns True on write hit.  The controller always forwards the
        write to memory regardless.
        """
        line = address >> self._offset_shift
        data = self._data.get(line)
        if data is None:
            self.stats.write_misses += 1
            return False
        self._lookup(line)
        self.stats.write_hits += 1
        offset = address & self._offset_mask
        data[offset:offset + size] = \
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")
        return True

    # -- fill / eviction -----------------------------------------------------

    def fill(self, line_base: int, data: bytes) -> int | None:
        """Install a full line; return the evicted line's base address (or
        None if nothing was evicted).  Refilling a resident line
        replaces its data in place."""
        if len(data) != self.geometry.line_size:
            raise ValueError("fill data must be exactly one line")
        line = line_base >> self._offset_shift
        evicted = self.tags.fill(line)
        self._data[line] = bytearray(data)
        if evicted < 0:
            return None
        self.stats.evictions += 1
        del self._data[evicted]
        return evicted << self._offset_shift

    # -- maintenance ---------------------------------------------------------

    def invalidate_all(self) -> None:
        """FLUSH semantics: every line becomes invalid (write-through cache
        has no dirty data to write back)."""
        self.stats.flushes += 1
        self.tags.invalidate()
        self._data.clear()

    def reset_replacement_state(self) -> None:
        """Return the replacement machinery (LRU/LRR clock, seeded RNG)
        to its power-on state.  Only meaningful right after
        :meth:`invalidate_all` — with no valid lines the timestamps
        carry no information — so this is purely a canonicalization step
        for the start of a sampled window."""
        self.tags.restart()

    @property
    def valid_lines(self) -> int:
        return len(self._data)

    def contents_summary(self) -> dict[int, list[int]]:
        """Map set index -> list of resident tags (tests / debugging)."""
        ways, index_bits = self.tags.ways, self.geometry.index_bits
        slots = self.tags.slots
        summary = {}
        for index in range(self.geometry.sets):
            tags = [line >> index_bits
                    for line in slots[index * ways:(index + 1) * ways]
                    if line >= 0]
            if tags:
                summary[index] = tags
        return summary
