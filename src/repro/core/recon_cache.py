"""Reconfiguration cache (Figure 1, right-hand loop).

"As features are identified for reconfiguration, instances of those
features are pre-generated in the user- or application-defined parameter
space.  Each such instance requires ~1 hour to synthesize, and the
results are captured in the reconfiguration cache.  At runtime, an
application can switch between these pre-generated modules to improve
performance."

The cache maps a configuration key to its :class:`Bitfile`.  A miss
charges full synthesis time into the model-time ledger; a hit charges
nothing — that asymmetry (×1000s) *is* the paper's argument, and
``benchmarks/bench_recon_cache.py`` measures it.

The cache is shared fleet-wide (see :mod:`repro.control.fleet`), so it
is thread-safe: a lock guards the record store, statistics live in
lock-striped shards keyed by config, and concurrent requests for the
same not-yet-synthesized configuration are *coalesced* — one caller
pays the synthesis, the others wait on it and take the result as a hit
(``stats.coalesced`` counts those).  :meth:`get` reports hits with an
explicit flag rather than a ``synthesis_seconds == 0.0`` sentinel, so a
degenerate configuration whose synthesis model legitimately costs 0.0 s
is still reported as a miss the first time.
"""

from __future__ import annotations

import threading
import warnings
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.config import ArchitectureConfig
from repro.core.synthesis import Bitfile, SynthesisModel

#: Lock stripes for the hit/miss statistics (see :class:`_StatsShard`).
STAT_SHARDS = 8


class ReconCacheThrashWarning(RuntimeWarning):
    """A pregenerate batch exceeds the cache capacity: entries the batch
    just paid synthesis time for are being evicted by the same batch."""


@dataclass
class CacheRecord:
    bitfile: Bitfile
    hits: int = 0
    last_use: int = 0


class CacheOutcome(NamedTuple):
    """What :meth:`ReconfigurationCache.get` returns.

    ``hit`` is authoritative: it is True only when the bitfile came out
    of the cache, never inferred from ``synthesis_seconds`` (which a
    degenerate synthesis model may legitimately report as 0.0 on a
    miss).
    """

    bitfile: Bitfile
    synthesis_seconds: float
    hit: bool


@dataclass
class ReconStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits that waited on another caller's in-flight synthesis of the
    #: same configuration instead of synthesizing it twice.
    coalesced: int = 0
    #: Evictions of entries inserted by the same pregenerate batch that
    #: evicted them (the thrash :meth:`ReconfigurationCache.pregenerate`
    #: warns about).
    thrash_evictions: int = 0
    synthesis_seconds: float = 0.0
    seconds_saved: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _StatsShard:
    """One lock-striped statistics bucket (stats are written far more
    often than the record store is restructured, so they take a striped
    lock instead of the global one)."""

    __slots__ = ("lock", "stats")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.stats = ReconStats()


class ReconfigurationCache:
    """LRU-bounded, thread-safe store of pre-generated bitfiles."""

    def __init__(self, synthesizer: SynthesisModel | None = None,
                 capacity: int | None = None):
        self.synthesizer = synthesizer or SynthesisModel()
        self.capacity = capacity
        self._records: dict[str, CacheRecord] = {}
        self._clock = 0
        self._lock = threading.Lock()
        #: key -> Event set when that key's in-flight synthesis lands.
        self._in_flight: dict[str, threading.Event] = {}
        self._shards = tuple(_StatsShard() for _ in range(STAT_SHARDS))
        #: Keys inserted by the pregenerate batch currently running (for
        #: thrash accounting); None outside pregenerate.
        self._batch_keys: set[str] | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, config: ArchitectureConfig) -> bool:
        with self._lock:
            return config.key() in self._records

    @property
    def stats(self) -> ReconStats:
        """Aggregate view over the stat shards (a fresh snapshot)."""
        total = ReconStats()
        for shard in self._shards:
            with shard.lock:
                stats = shard.stats
                total.hits += stats.hits
                total.misses += stats.misses
                total.evictions += stats.evictions
                total.coalesced += stats.coalesced
                total.thrash_evictions += stats.thrash_evictions
                total.synthesis_seconds += stats.synthesis_seconds
                total.seconds_saved += stats.seconds_saved
        return total

    def _shard_for(self, key: str) -> _StatsShard:
        return self._shards[zlib.crc32(key.encode()) % len(self._shards)]

    def lookup(self, config: ArchitectureConfig) -> Bitfile | None:
        """Peek without synthesizing (no miss is recorded)."""
        with self._lock:
            record = self._records.get(config.key())
        if record is None:
            return None
        return record.bitfile

    def get(self, config: ArchitectureConfig) -> CacheOutcome:
        """Return ``(bitfile, model_seconds_spent, hit)``.

        A hit costs 0 s of synthesis; a miss runs the synthesis model,
        stores the result, and returns the full synthesis time.  When
        another caller is already synthesizing the same configuration,
        wait for it and take the result as a (coalesced) hit.
        """
        key = config.key()
        shard = self._shard_for(key)
        waited = False
        while True:
            with self._lock:
                self._clock += 1
                record = self._records.get(key)
                if record is not None:
                    record.hits += 1
                    record.last_use = self._clock
                    saved = record.bitfile.synthesis_seconds
                    bitfile = record.bitfile
                elif key in self._in_flight:
                    event = self._in_flight[key]
                    bitfile = None
                else:
                    # This caller owns the miss.
                    event = self._in_flight[key] = threading.Event()
                    break
            if record is not None:
                with shard.lock:
                    shard.stats.hits += 1
                    shard.stats.seconds_saved += saved
                    if waited:
                        shard.stats.coalesced += 1
                return CacheOutcome(bitfile, 0.0, True)
            # Someone else is synthesizing this key: wait, then re-read
            # (the record may also have been evicted meanwhile, in which
            # case the loop makes this caller the new owner).
            event.wait()
            waited = True
        try:
            bitfile = self.synthesizer.synthesize(config)
        except BaseException:
            with self._lock:
                del self._in_flight[key]
            event.set()
            raise
        with shard.lock:
            shard.stats.misses += 1
            shard.stats.synthesis_seconds += bitfile.synthesis_seconds
        with self._lock:
            self._insert(key, bitfile)
            del self._in_flight[key]
        event.set()
        return CacheOutcome(bitfile, bitfile.synthesis_seconds, False)

    def pregenerate(self, configs) -> float:
        """Ahead-of-time fill (the paper's workflow); returns the total
        synthesis seconds spent.

        A batch larger than the cache capacity cannot possibly stick:
        later entries evict earlier ones the batch just paid ~an hour of
        synthesis each for.  That thrash is detected up front (a
        :class:`ReconCacheThrashWarning`) and surfaced in
        ``stats.thrash_evictions`` instead of silently burning model
        time.
        """
        configs = list(configs)
        unique = {config.key() for config in configs}
        if self.capacity is not None and len(unique) > self.capacity:
            warnings.warn(ReconCacheThrashWarning(
                f"pregenerating {len(unique)} distinct configurations "
                f"into a cache of capacity {self.capacity}: "
                f"{len(unique) - self.capacity} freshly synthesized "
                f"entries will be evicted by this same batch"),
                stacklevel=2)
        with self._lock:
            self._batch_keys = set()
        try:
            total = 0.0
            for config in configs:
                _, seconds, _ = self.get(config)
                total += seconds
                with self._lock:
                    if self._batch_keys is not None:
                        self._batch_keys.add(config.key())
            return total
        finally:
            with self._lock:
                self._batch_keys = None

    def _insert(self, key: str, bitfile: Bitfile) -> None:
        # Caller holds self._lock.
        if self.capacity is not None and len(self._records) >= self.capacity:
            victim_key = min(self._records,
                             key=lambda k: self._records[k].last_use)
            del self._records[victim_key]
            victim_shard = self._shard_for(victim_key)
            thrashed = (self._batch_keys is not None
                        and victim_key in self._batch_keys)
            with victim_shard.lock:
                victim_shard.stats.evictions += 1
                if thrashed:
                    victim_shard.stats.thrash_evictions += 1
        self._records[key] = CacheRecord(bitfile, last_use=self._clock)
        if self._batch_keys is not None:
            self._batch_keys.add(key)

    def contents(self) -> list[str]:
        with self._lock:
            return sorted(self._records)
