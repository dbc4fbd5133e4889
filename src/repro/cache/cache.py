"""Set-associative cache data structure with pluggable replacement.

This is the tunable structure at the heart of the paper's evaluation: the
Figure 8/9 experiment sweeps the data-cache size from 1 KB to 16 KB with a
fixed 32-byte line and observes the running-time knee at the working-set
size.  The LEON2 defaults are direct-mapped with LRR replacement for
multi-way configurations; we support LRU/LRR/random (random is seeded and
deterministic, as a hardware LFSR would be).

The cache stores actual line data, so it can sit transparently between
the CPU and the AHB (the controller in
:mod:`repro.cache.controller` handles timing and write policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils import log2_exact

REPLACEMENT_POLICIES = ("lru", "lrr", "random")


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

    def as_dict(self) -> dict[str, int | float]:
        return {
            "read_hits": self.read_hits, "read_misses": self.read_misses,
            "write_hits": self.write_hits, "write_misses": self.write_misses,
            "evictions": self.evictions, "flushes": self.flushes,
            "read_miss_rate": self.read_miss_rate,
        }


@dataclass
class _Line:
    valid: bool = False
    tag: int = 0
    data: bytearray = field(default_factory=bytearray)
    last_use: int = 0     # LRU timestamp
    fill_order: int = 0   # LRR round counter


class SetAssociativeCache:
    """Tag + data store.  Timing lives in the controller, not here."""

    def __init__(self, geometry: CacheGeometry, seed: int = 0x5EED):
        self.geometry = geometry
        self.stats = CacheStats()
        self._lines = [
            [_Line(data=bytearray(geometry.line_size))
             for _ in range(geometry.ways)]
            for _ in range(geometry.sets)
        ]
        self._clock = 0
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # The geometry's address split as plain ints, derived once: the
        # access paths below run on every simulated fetch and load.
        self._offset_mask = geometry.line_size - 1
        self._offset_shift = geometry.offset_bits
        self._index_mask = geometry.sets - 1
        self._tag_shift = geometry.offset_bits + geometry.index_bits

    # -- lookup -------------------------------------------------------------

    def probe(self, address: int) -> _Line | None:
        """Return the valid line holding *address*, or None.  No stats."""
        tag = address >> self._tag_shift
        for line in self._lines[(address >> self._offset_shift)
                                & self._index_mask]:
            if line.valid and line.tag == tag:
                return line
        return None

    def read(self, address: int, size: int) -> int | None:
        """Read *size* bytes if cached, else None (recording hit/miss)."""
        self._clock += 1
        tag = address >> self._tag_shift
        for line in self._lines[(address >> self._offset_shift)
                                & self._index_mask]:
            if line.valid and line.tag == tag:
                self.stats.read_hits += 1
                line.last_use = self._clock
                offset = address & self._offset_mask
                return int.from_bytes(line.data[offset:offset + size], "big")
        self.stats.read_misses += 1
        return None

    def write(self, address: int, size: int, value: int) -> bool:
        """Update the cached copy if present (write-through, no-allocate).

        Returns True on write hit.  The controller always forwards the
        write to memory regardless.
        """
        self._clock += 1
        tag = address >> self._tag_shift
        for line in self._lines[(address >> self._offset_shift)
                                & self._index_mask]:
            if line.valid and line.tag == tag:
                self.stats.write_hits += 1
                line.last_use = self._clock
                offset = address & self._offset_mask
                line.data[offset:offset + size] = \
                    (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")
                return True
        self.stats.write_misses += 1
        return False

    # -- fill / eviction -----------------------------------------------------

    def fill(self, line_base: int, data: bytes) -> int | None:
        """Install a full line; return the evicted line's base address (or
        None if an invalid way was used)."""
        if len(data) != self.geometry.line_size:
            raise ValueError("fill data must be exactly one line")
        index = (line_base >> self._offset_shift) & self._index_mask
        ways = self._lines[index]
        victim = self._choose_victim(ways)
        evicted = None
        if victim.valid:
            self.stats.evictions += 1
            evicted = (victim.tag << self._tag_shift) \
                | (index << self._offset_shift)
        self._clock += 1
        victim.valid = True
        victim.tag = line_base >> self._tag_shift
        victim.data[:] = data
        victim.last_use = self._clock
        victim.fill_order = self._clock
        return evicted

    def _choose_victim(self, ways: list[_Line]) -> _Line:
        for line in ways:
            if not line.valid:
                return line
        policy = self.geometry.replacement
        if policy == "lru":
            return min(ways, key=lambda line: line.last_use)
        if policy == "lrr":
            return min(ways, key=lambda line: line.fill_order)
        return ways[int(self._rng.integers(len(ways)))]

    # -- maintenance ---------------------------------------------------------

    def invalidate_all(self) -> None:
        """FLUSH semantics: every line becomes invalid (write-through cache
        has no dirty data to write back)."""
        self.stats.flushes += 1
        for ways in self._lines:
            for line in ways:
                line.valid = False

    def reset_replacement_state(self) -> None:
        """Return the replacement machinery (LRU/LRR clock, seeded RNG)
        to its power-on state.  Only meaningful right after
        :meth:`invalidate_all` — with no valid lines the timestamps
        carry no information — so this is purely a canonicalization step
        for the fast-forward handoff."""
        self._clock = 0
        self._rng = np.random.default_rng(self._seed)
        for ways in self._lines:
            for line in ways:
                line.last_use = 0
                line.fill_order = 0

    def rng_state(self) -> dict:
        """Deterministic-RNG cursor (ArchState checkpointing)."""
        return self._rng.bit_generator.state

    def load_rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    def invalidate_line(self, address: int) -> None:
        line = self.probe(address)
        if line is not None:
            line.valid = False

    @property
    def valid_lines(self) -> int:
        return sum(line.valid for ways in self._lines for line in ways)

    def contents_summary(self) -> dict[int, list[int]]:
        """Map set index -> list of resident tags (tests / debugging)."""
        return {
            index: [line.tag for line in ways if line.valid]
            for index, ways in enumerate(self._lines)
            if any(line.valid for line in ways)
        }
