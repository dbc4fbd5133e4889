"""Cache controller: the timing/policy layer between the IU and the AHB.

Implements the LEON2 cache behaviour the paper relies on:

* write-through with no-allocate-on-write-miss;
* read miss triggers a full line fill over the AHB using a burst
  (``hburst = INCR``), critical-word cycle accounting;
* a *cacheability* predicate from the memory map — APB peripherals and
  the leon_ctrl mailbox region bypass the cache;
* ``flush`` (the FLUSH instruction / LEON flush ASIs) invalidates
  everything, which the modified boot ROM uses in its polling loop so it
  observes mailbox writes made while LEON was disconnected from memory.

The controller implements :class:`repro.mem.interface.MemoryPort`, so the
IU is oblivious to whether it talks to a cache, a flat test memory, or
the full platform.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.cache import CacheGeometry, CacheStats, SetAssociativeCache
from repro.cache.prefetch import ISSUE_CYCLES, make_prefetcher
from repro.mem.interface import MemoryPort


class CacheController:
    """One cache (I or D) in front of a backing port.

    Parameters
    ----------
    geometry:
        The cache shape (a Liquid configuration dimension).
    backing:
        Downstream port — normally the AHB bus.  Needs ``read``/``write``
        and, optionally, ``read_burst(address, nwords)`` for line fills.
    cacheable:
        Predicate ``address -> bool``; non-cacheable accesses bypass the
        cache entirely and pay the bus cost.
    enabled:
        A disabled cache (paper: evaluating the core without caches is a
        configuration point) forwards everything.
    flush_cycles:
        Cost of a whole-cache flush; LEON2 flushes one line per cycle.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        backing: MemoryPort,
        cacheable: Callable[[int], bool] = lambda address: True,
        enabled: bool = True,
        flush_cycles: int | None = None,
        name: str = "cache",
        prefetch: str = "none",
    ):
        self.geometry = geometry
        self.cache = SetAssociativeCache(geometry)
        self.backing = backing
        self.cacheable = cacheable
        self.enabled = enabled
        self.name = name
        self.flush_cycles = (flush_cycles if flush_cycles is not None
                             else geometry.sets * geometry.ways)
        self.fill_count = 0
        self.bypass_count = 0
        # Miss-latency distribution, bucketed by bit length (bucket i
        # holds misses costing 2**(i-1)..2**i - 1 cycles); repro.obs
        # publishes this as the cache.miss_cycles histogram.  Native
        # list-of-ints so the miss path pays a bit_length + two adds.
        self.miss_cycle_buckets = [0] * 16
        self.miss_cycles_sum = 0
        self._prefetch_policy = prefetch
        self.prefetcher = make_prefetcher(prefetch, geometry.line_size)
        # Line bases brought in speculatively but not yet demanded.
        self._speculative: set[int] = set()
        # Optional trace hook: (address, size, is_write, hit) -> None.
        self.on_access: Callable[[int, int, bool, bool], None] | None = None

    @property
    def stats(self):
        return self.cache.stats

    # -- MemoryPort ---------------------------------------------------------

    def read(self, address: int, size: int) -> tuple[int, int]:
        if not self.enabled or not self.cacheable(address):
            self.bypass_count += 1
            return self.backing.read(address, size)
        value = self.cache.read(address, size)
        if value is not None:
            if self.on_access is not None:
                self.on_access(address, size, False, True)
            self._credit_prefetch(address)
            return value, 0
        if self.on_access is not None:
            self.on_access(address, size, False, False)
        cycles = self._fill_line(address)
        value = self.cache.read(address, size)
        # The refill read is part of the miss, not a second reference.
        self.cache.stats.read_hits -= 1
        assert value is not None, "line fill must make the address resident"
        cycles += self._maybe_prefetch(address)
        bucket = cycles.bit_length()
        self.miss_cycle_buckets[bucket if bucket < 15 else 15] += 1
        self.miss_cycles_sum += cycles
        return value, cycles

    def write(self, address: int, size: int, value: int) -> int:
        if not self.enabled or not self.cacheable(address):
            self.bypass_count += 1
            return self.backing.write(address, size, value)
        hit = self.cache.write(address, size, value)
        if self.on_access is not None:
            self.on_access(address, size, True, hit)
        # Write-through: memory is always updated.  The pipeline's store
        # cost covers a non-blocked write buffer; the bus reports extra
        # wait states only (e.g. SDRAM read-modify-write).
        return self.backing.write(address, size, value)

    # -- line fill ------------------------------------------------------------

    def _fill_line(self, address: int) -> int:
        geometry = self.geometry
        base = geometry.line_base(address)
        nwords = geometry.line_size // 4
        read_burst = getattr(self.backing, "read_burst", None)
        if read_burst is not None:
            words, cycles = read_burst(base, nwords)
        else:
            words, cycles = [], 0
            for i in range(nwords):
                word, extra = self.backing.read(base + 4 * i, 4)
                words.append(word)
                cycles += 1 + extra
        data = b"".join(word.to_bytes(4, "big") for word in words)
        self.cache.fill(base, data)
        self.fill_count += 1
        return cycles

    # -- prefetching ---------------------------------------------------------

    def _maybe_prefetch(self, miss_address: int) -> int:
        """After a demand miss, let the prefetch unit fetch ahead.

        The speculative fill itself overlaps with execution (the engine
        has its own bus slots); the demand miss pays only the fixed
        issue cost.  Returns the cycles to add to the demand miss.
        """
        if self.prefetcher is None:
            return 0
        prediction = self.prefetcher.predict(miss_address)
        if prediction is None:
            return 0
        base = self.geometry.line_base(prediction)
        if not self.cacheable(base) or self.cache.probe(base) is not None:
            return 0
        try:
            background = self._fill_line(base)
        except Exception:
            return 0  # prefetching past the end of a device is harmless
        self.prefetcher.stats.issued += 1
        self.prefetcher.stats.background_cycles += background
        self._speculative.add(base)
        return ISSUE_CYCLES

    def _credit_prefetch(self, address: int) -> None:
        if self.prefetcher is None or not self._speculative:
            return
        base = self.geometry.line_base(address)
        if base not in self._speculative:
            return
        self._speculative.discard(base)
        self.prefetcher.stats.useful += 1
        # Tagged prefetching: a hit on a prefetched line keeps the
        # engine running ahead of the stream, entirely in background.
        advance = getattr(self.prefetcher, "advance", None)
        if advance is None:
            return
        target = advance(base)
        if target is None:
            return
        next_base = self.geometry.line_base(target)
        if not self.cacheable(next_base) or \
                self.cache.probe(next_base) is not None:
            return
        try:
            background = self._fill_line(next_base)
        except Exception:
            return
        self.prefetcher.stats.issued += 1
        self.prefetcher.stats.background_cycles += background
        self._speculative.add(next_base)

    # -- maintenance -----------------------------------------------------------

    def flush(self) -> int:
        """Invalidate everything; returns the flush cost in cycles."""
        self.cache.invalidate_all()
        self._speculative.clear()
        return self.flush_cycles

    def reset_stats(self) -> None:
        """Zero all accounting and retrain the speculative machinery.

        Used at the start of a sampled window: after a flush, this puts
        the controller in the same canonical state it has right after
        construction, so a measured window reports identically whether
        the machine was restored from a checkpoint or stepped there.
        """
        self.cache.stats = CacheStats()
        self.cache.reset_replacement_state()
        self.fill_count = 0
        self.bypass_count = 0
        self.miss_cycle_buckets = [0] * 16
        self.miss_cycles_sum = 0
        self.prefetcher = make_prefetcher(self._prefetch_policy,
                                          self.geometry.line_size)
        self._speculative.clear()

    def stats_dict(self) -> dict:
        data = self.cache.stats.as_dict()
        data["fills"] = self.fill_count
        data["bypasses"] = self.bypass_count
        if self.prefetcher is not None:
            data["prefetch"] = {
                "policy": self.prefetcher.name,
                "issued": self.prefetcher.stats.issued,
                "useful": self.prefetcher.stats.useful,
                "accuracy": round(self.prefetcher.stats.accuracy, 3),
                "background_cycles": self.prefetcher.stats.background_cycles,
            }
        data["geometry"] = {
            "size": self.geometry.size,
            "line_size": self.geometry.line_size,
            "ways": self.geometry.ways,
            "replacement": self.geometry.replacement,
        }
        return data
