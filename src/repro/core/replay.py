"""Exact trace-driven replay: run a program once, time it under any
cache and pipeline configuration of its architecture.

Inside :class:`~repro.core.sim.Simulator`, cycles are a pure function of
the executed instruction stream: there is no interrupt source, the
peripheral clock never advances (so no MMIO read can observe timing),
issue cost is a per-word plan plus the load-use interlock, the caches
are write-through and no-allocate with seeded replacement, and the
SRAM, APB and AHB burst latencies are fixed.  One architectural pass
therefore answers every configuration that shares its
:meth:`~repro.core.config.ArchitectureConfig.arch_key` — the paper's
Figure-1 premise (one program's traces answering many configurations),
made exact:

* :func:`record` runs the program once on a
  :class:`~repro.cpu.blockcache.RecordingUnit` (the translated engine in
  recording mode), from boot through dispatch to the poll address, with
  ``Simulator.run``'s step budgets;
* :meth:`Replayer.report` turns that stream into the
  :class:`~repro.core.sim.SimReport` ``Simulator.run`` returns for one
  configuration: both caches walked by :func:`~repro.cache.cache.walk`
  (the machine's victim choice and seeded generator, without the data;
  every direct-mapped size of a line size in one pass), the I-cache
  over the fetches collapsed to cache-line runs, each block's static
  issue cost per :class:`~repro.cpu.pipeline.TimingConfig` with the
  load-use interlock carried across blocks and reset by traps, and the
  fixed bus and memory costs.  Boot and dispatch only warm the caches;
  every field of the report covers the program window, exactly as on
  the accurate engine;
* :meth:`Replayer.window` replays one slice of the stream instead: a
  sampled window (:mod:`repro.core.sampling`) from its ramp start,
  through the measured window's start, to its end.  ``record(...,
  marks=...)`` stops the recording engine at every window boundary, so
  no block straddles one, and notes where the stream stood there.
  The slice starts from what the accurate engine restores and
  normalizes at the ramp start (empty caches, seeded replacement
  state, no load-use carry); at the window start the lines stay
  resident while the replacement state and the counters go back to
  power-on, and the interlock carry continues — exactly as
  ``measure_window`` runs it.

Replay's memory follows a chunk of the stream, not the recording.  The
replayer holds one ``uint32`` address and one ``int8`` access kind per
data reference (5 bytes, where the recording holds 8), classified
:data:`CHUNK` references at a time through an interval table of the
memory map.  Every pass (the cache walks, the building of the fetch
stream, the issue pass, the mix fold) reads its stream a chunk at a
time and carries its cache levels, tag store or load-use carry across
chunks.  A side's reference stream (the data side's a view of those
columns, the fetch side's one ``uint32`` and one ``int8`` per run)
lives only for the one walk that serves every geometry of that side
among the replayer's configurations.

Replay refuses, raising :class:`ReplayUnsupported` with a cause from
:data:`FALLBACK_CAUSES`, where it cannot be exact: a prefetching D-cache
(the prefetcher has state), a store to code that is fetched again
without the FLUSH the architecture requires (the accurate engine's
I-cache would serve the stale word), and an access that faults on the
bus.  Callers fall back to the accurate engine for those, which stays
the oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cache.cache import CHUNK, FLUSH, READ, WRITE, CacheGeometry, walk
from repro.core.config import ArchitectureConfig
from repro.core.sim import SimReport, Simulator, word_mix
from repro.cpu.blockcache import (
    EXIT_ANNULLED,
    EXIT_TAKEN,
    REF_IFLUSH,
    REF_WRITE,
    STEP_ANNULLED,
    STEP_RETIRED,
    STEP_TAKEN,
    Recording,
    RecordingUnit,
)
from repro.cpu.decode import DecodeCache
from repro.cpu.pipeline import PipelineModel, TimingConfig
from repro.obs.collect import (
    CACHE_COUNTERS,
    cache_counts,
    cache_record,
    point_snapshot,
)
from repro.toolchain.objfile import Image
from repro.utils import log2_exact

__all__ = ["CHUNK", "FALLBACK_CAUSES", "REPLAYED", "Recorded", "Replayer",
           "ReplayUnsupported", "record", "replayable"]

#: How a replayed point or sampled run was measured when nothing fell
#: back (else the path is the fallback cause).
REPLAYED = "replayed"

#: Why a point could not be replayed (``sweep.replay_fallbacks{cause}``):
#: a prefetching D-cache, self-modifying code without the required
#: FLUSH, a faulting bus access, or a recording pass that ended in a
#: watchdog or error-mode trap (the accurate engine then raises it).
FALLBACK_CAUSES = ("prefetch", "smc", "bus_error", "error")


def replayable(config: ArchitectureConfig) -> bool:
    """Whether replay can price *config* from a recording at all: a
    prefetching D-cache has state the recording does not carry."""
    return config.prefetch == "none"


class ReplayUnsupported(Exception):
    """Replay cannot be exact for this point; ``cause`` says why."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


@dataclass
class Recorded:
    """One recording pass: the step stream plus everything about the
    run that no timing configuration can change."""

    recording: Recording
    #: ``recording.mark()`` at the program's first instruction.
    window: tuple[int, int, int]
    instructions: int
    result_word: int
    uart_output: bytes
    #: The recording machine: memory map, bus topology and device costs.
    machine: Simulator
    #: Program step -> ``(*recording.mark(), instructions retired since
    #: the program's first)`` there, for each step ``record`` stopped at.
    marks: dict[int, tuple[int, int, int, int]] = field(default_factory=dict)


def record(config: ArchitectureConfig, image: Image,
           max_instructions: int, marks=()) -> Recorded:
    """Run *image* once on the recording engine, the way
    ``Simulator(config).run(image, max_instructions)`` would run it
    (same boot, dispatch and step budgets — a watchdog raises the same
    :class:`~repro.cpu.traps.WatchdogExpired`).

    *marks* are program steps (counted from the first instruction) to
    stop at on the way, as the sampled windows' boundaries, none past
    the program's return to the polling loop."""
    sim = Simulator(config)
    poll = sim.rom_info.poll_address
    unit = sim._fast_unit(RecordingUnit)
    recording = unit.recording
    sim._dispatch_on(unit, image)
    window = recording.mark()
    start = unit.instret
    stops: dict[int, tuple[int, int, int, int]] = {}
    position = 0
    for step in sorted(marks):
        position += unit.advance(step - position, stop_pc=poll)
        if position < step:
            raise RuntimeError(
                f"program finished at step {position}, before the "
                f"planned boundary {step}")
        stops[step] = (*recording.mark(), unit.instret - start)
    unit.run(max_instructions=max_instructions - position, until_pc=poll)
    return Recorded(
        recording=recording, window=window,
        instructions=unit.instret - start,
        result_word=sim.sram.host_read_word(sim.memmap.result_addr),
        uart_output=sim.uart.transmitted(), machine=sim, marks=stops)


# Access kinds of a data reference or an instruction fetch: the cached
# kinds and the flush marker (as the cache walk numbers them), the data
# stream's I-cache flush marker, the uncached single transfers (fixed
# costs, Replayer._single), and an access that faults on the bus.
_DFLUSH, _WRITE_SRAM, _READ_SRAM = FLUSH, WRITE, READ
_READ_PROM, _IFLUSH, _SRAM_READ, _SRAM_WRITE, _APB = range(3, 8)
_FAULT = -1


class _Span:
    """A slice of the recording, replayed as two phases of which only
    the second is counted: its bounds (three of ``record``'s marks, the
    middle one where the phases split), the second phase's events
    counted once (:func:`_event_counts`) and its instruction mix, and
    the passes already made over it.

    The whole program's span splits at the program's first instruction
    and ``restart`` is false: boot and dispatch only warm the caches.
    A sampled window's span runs from its ramp start to its end and
    splits at the window start, where ``restart`` does what
    ``reset_stats`` does there (the lines stay, the replacement state
    goes back to power-on)."""

    def __init__(self, recording: Recording, lo: tuple, split: tuple,
                 hi: tuple, restart: bool):
        self.bounds = lo, split, hi
        self.restart = restart
        self.events, self.pairs = _event_counts(recording, lo, split, hi)
        #: The instruction mix of the second phase.
        self.mix = _mix(recording.blocks, self.events)
        self.issue: dict[TimingConfig, dict] = {}
        #: Each cache side's event counts, per (side, geometry).
        self.walked: dict[tuple[str, CacheGeometry], Counter] = {}


class Replayer:
    """Every configuration's report from one :class:`Recorded` run, and
    every configuration's observation of each sampled window in it.

    Config-independent work (classifying every data address and every
    word the program fetches, the SMC check) happens once here, a chunk
    of references at a time, into one ``uint32`` address and one
    ``int8`` kind per data reference; each span's events are counted
    once, for its instruction mix and every timing's issue pass.  Each
    pass runs through a span's two phases (boot and
    dispatch, then the program window; or a window's ramp, then the
    window) and counts the second — the cache pass per side and
    geometry, the issue pass per :class:`TimingConfig`, each memoized
    per span — and :meth:`_counts` prices the events into the window's
    counts mapping.  The cache pass walks a side's reference stream
    (:func:`~repro.cache.cache.walk`) for the geometry asked for and
    every geometry of that side among *configs* not yet walked, so a
    sweep over the direct-mapped sizes of one cache walks each cache's
    stream once and counts the events once; *configs* it cannot price
    (:func:`replayable`) are left out.  Every pass reads its stream
    :data:`CHUNK` entries at a time, and a side's reference stream
    lives only as long as the walk that reads it: the one walk that
    serves every listed geometry.
    """

    def __init__(self, recorded: Recorded,
                 configs: tuple[ArchitectureConfig, ...] = ()):
        self.recorded = recorded
        #: The configurations this replayer is expected to time.
        self.configs = tuple(config for config in configs
                             if replayable(config))
        rec = recorded.recording
        machine = recorded.machine
        bus = machine.bus.config
        self._overhead = bus.address_cycles + bus.arbitration_cycles
        self._memmap = memmap = machine.memmap
        self._slaves = [(m["base"], m["base"] + m["size"], m["name"])
                        for m in machine.bus.topology()]
        self._devices = [(m["base"], m["base"] + m["size"])
                         for m in machine.apb.topology()]
        #: Wait states per beat of a line fill, per cached read kind.
        self._fill_waits = {_READ_SRAM: machine.sram.wait_states,
                            _READ_PROM: machine.prom.wait_states}
        self._apb_penalty = machine.apb.penalty_cycles
        sram_wait = machine.sram.wait_states
        single = self._overhead + 1
        #: One AHB single transfer per kind: (cycles, SRAM reads, SRAM
        #: writes, APB accesses, wait states).  A cached write is one
        #: too (write-through); the uncached kinds also bypass the cache.
        write = (single + sram_wait, 0, 1, 0, sram_wait)
        self._single = {
            _SRAM_READ: (single + sram_wait, 1, 0, 0, sram_wait),
            _SRAM_WRITE: write,
            _APB: (single + self._apb_penalty, 0, 0, 1, self._apb_penalty),
            _WRITE_SRAM: write,
        }
        self.unsupported: str | None = None

        #: The address space as intervals of one access kind each: their
        #: sorted starts, and per interval its read and its write kind.
        #: The kinds change only at a bound of the memory map, a bus
        #: slave or an APB device.
        bounds = memmap.bounds().union(
            *({lo, hi} for lo, hi, _ in self._slaves),
            *({lo, hi} for lo, hi in self._devices))
        starts = sorted(bound for bound in bounds | {0} if bound < 1 << 32)
        self._starts = np.array(starts, dtype=np.uint32)
        self._interval_kinds = np.array(
            [(self._kind(start, False), self._kind(start, True))
             for start in starts], dtype=np.int8)

        self._ref_addr, self._kinds, stores, iflushes = self._classify_refs(
            rec)
        if stores is None:
            self.unsupported = "bus_error"
            return
        if _smc_hazard(rec, stores, iflushes):
            self.unsupported = "smc"
        #: Every word the recording can fetch (its blocks' words and
        #: its interpreted steps' pcs), sorted, and its access kind; a
        #: span that fetches a faulting one is not replayed.
        words = set(rec.step_pcs)
        for block in rec.blocks:
            words.update(range(block.lo, block.hi, 4))
        self._code_words = np.array(sorted(words), dtype=np.int64)
        self._code_kinds = self._classify(self._code_words, 0)
        self._decode = DecodeCache()
        self._spans: dict[tuple, _Span] = {}

    def _span(self, lo: tuple, split: tuple, hi: tuple,
              restart: bool) -> _Span:
        key = (lo, split, hi, restart)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = _Span(self.recorded.recording, lo,
                                            split, hi, restart)
        return span

    # -- addresses ---------------------------------------------------------

    def _kind(self, address: int, write: bool) -> int:
        """The access kind of *address* (``_FAULT`` on a bus fault)."""
        slave = next((name for lo, hi, name in self._slaves
                      if lo <= address < hi), None)
        if slave is None:
            return _FAULT
        if self._memmap.cacheable(address):
            if slave == "sram":
                return _WRITE_SRAM if write else _READ_SRAM
            if slave == "prom" and not write:
                return _READ_PROM
        elif slave == "sram":
            return _SRAM_WRITE if write else _SRAM_READ
        elif slave == "apb" and any(lo <= address < hi
                                    for lo, hi in self._devices):
            return _APB
        return _FAULT

    def _classify(self, addresses: np.ndarray, writes) -> np.ndarray:
        """The access kinds of *addresses*' words, read or written as
        *writes* (0 or 1, per address or for all) says: :meth:`_kind`,
        through the interval table."""
        words = np.asarray(addresses, dtype=np.uint32) & np.uint32(0xFFFFFFFC)
        at = np.searchsorted(self._starts, words, side="right") - 1
        return self._interval_kinds[at, writes]

    def _classify_refs(self, rec: Recording) -> tuple:
        """Per data reference, a chunk at a time: its address and its
        kind (flush markers included).  Also every store into a word
        the recording reads as code, as ``(reference, word)``, and every
        I-cache flush's reference, for the SMC check; or ``None`` for
        the stores if some reference faults on the bus."""
        refs = np.frombuffer(rec.refs, dtype=np.uint64)
        addresses = np.empty(len(refs), dtype=np.uint32)
        kinds = np.empty(len(refs), dtype=np.int8)
        code = _code_read_words(rec)
        stores: list[tuple[int, int]] = []
        iflushes: list[int] = []
        for lo in range(0, len(refs), CHUNK):
            chunk = refs[lo:lo + CHUNK]
            chunk_addresses = addresses[lo:lo + CHUNK]
            chunk_addresses[:] = chunk >> np.uint64(4)
            writes = chunk & np.uint64(REF_WRITE)
            chunk_kinds = kinds[lo:lo + CHUNK]
            chunk_kinds[:] = self._classify(chunk_addresses, writes)
            flush = ((chunk >> np.uint64(1)) & np.uint64(7)) == 0
            iflush = chunk == np.uint64(REF_IFLUSH)
            chunk_kinds[flush] = _DFLUSH
            chunk_kinds[iflush] = _IFLUSH
            if (chunk_kinds == _FAULT).any():
                return addresses, kinds, None, None
            stored = np.flatnonzero((writes != 0) & ~flush)
            words = chunk_addresses[stored] & np.uint32(0xFFFFFFFC)
            into_code = (np.searchsorted(code, words, side="right")
                         > np.searchsorted(code, words))
            stores += zip((stored[into_code] + lo).tolist(),
                          words[into_code].tolist())
            iflushes += (np.flatnonzero(iflush) + lo).tolist()
        return addresses, kinds, stores, iflushes

    # -- the three passes --------------------------------------------------

    def _issue(self, timing: TimingConfig, span: _Span) -> dict:
        """Pipeline counters of the span's second phase: issue cycles
        (with interlocks), retirements, taken CTIs, annulled slots,
        traps; from what each distinct event adds, and a load-use
        interlock per pair of an event and the event that set the
        carry into it where the carry is a register the event's first
        instruction reads."""
        memo = span.issue.get(timing)
        if memo is not None:
            return memo
        plan = PipelineModel(timing).plan
        lookup = self._decode.lookup
        blocks = self.recorded.recording.blocks
        tables: dict[int, tuple] = {}
        keys = {*span.events, *(setter for setter, _ in span.pairs)} - {None}
        effects = {key: _effect(key, blocks, plan, lookup, tables)
                   for key in keys}
        effects[None] = ((), None, None)  # no event set the carry
        totals = [0] * 6
        for key, count in span.events.items():
            for index, add in enumerate(effects[key][0]):
                totals[index] += add * count
        for (setter, key), count in span.pairs.items():
            if effects[setter][2] in effects[key][1]:
                totals[0] += count
                totals[1] += count
        counts = dict(zip(("issue", "interlocks", "instret", "taken",
                           "annulled", "traps"), totals))
        span.issue[timing] = counts
        return counts

    def _side(self, side: str, geometry: CacheGeometry,
              span: _Span) -> Counter:
        """The event counts of one cache side (``"icache"`` or
        ``"dcache"``) in *span*'s second phase, walked together with
        every geometry of that side among ``configs`` not walked yet,
        one walk per line size."""
        walked = span.walked
        pending = [other for other in dict.fromkeys(
            [geometry, *(getattr(config, side) for config in self.configs)])
            if (side, other) not in walked]
        # One data stream serves every line size; the fetch stream has
        # one reference per run of fetches from a line, so one per size.
        groups = [pending] if side == "dcache" else [
            [other for other in pending if other.line_size == line_size]
            for line_size in dict.fromkeys(other.line_size
                                           for other in pending)]
        for geometries in filter(None, groups):
            addresses, kinds, split, fixed = self._stream(
                side, geometries[0].line_size, span)
            for other, counts in zip(geometries, walk(
                    geometries, addresses, kinds, split, span.restart,
                    reads=(_READ_SRAM, _READ_PROM), chunk=CHUNK)):
                walked[side, other] = counts + fixed
        return walked[side, geometry]

    def _stream(self, side: str, line_size: int, span: _Span) -> tuple:
        """*span*'s references on one cache side as :func:`walk` takes
        them (``uint32`` addresses, ``int8`` kinds, where the second
        phase starts; the data side's are views of the replayer's
        columns) and the second phase's counts that no geometry
        changes: references per kind and, on the fetch side, a read hit
        for each fetch after a run's first.  The fetch side's references
        are its runs of fetches from one cache line within one block
        execution or interpreted step (uncached fetches stand alone),
        with a FLUSH marker after each event that flushed the
        I-cache."""
        lo, split, hi = span.bounds
        if side == "dcache":
            addresses = self._ref_addr[lo[1]:hi[1]]
            kinds = self._kinds[lo[1]:hi[1]]
            ref_split, read_hits = split[1] - lo[1], 0
        else:
            addresses, kinds, ref_split, read_hits = self._fetches(
                span, log2_exact(line_size))
        fixed = Counter(read_hits=read_hits)
        for start in range(ref_split, len(kinds), CHUNK):
            per_kind = np.bincount(kinds[start:start + CHUNK])
            fixed.update(dict(enumerate(per_kind.tolist())))
        return addresses, kinds, ref_split, fixed

    def _fetches(self, span: _Span, offset_bits: int) -> tuple:
        """The fetch side of :meth:`_stream`: addresses, kinds, where the
        second phase starts, and its fetches after a run's first, built
        a chunk of events at a time."""
        lo, split, hi = span.bounds
        rec = self.recorded.recording
        events = np.frombuffer(rec.events, dtype=np.int64)
        step_pcs = np.frombuffer(rec.step_pcs, dtype=np.uint64)
        iflushes = rec.iflushes
        addresses = [np.empty(0, dtype=np.uint32)]
        kinds = [np.empty(0, dtype=np.int8)]
        steps_seen, first_phase, later_fetches = lo[2], 0, 0
        for start in range(lo[0], hi[0], CHUNK):
            codes = events[start:min(start + CHUNK, hi[0])]
            # Each distinct event: a block execution (block id and
            # steps) fetches its steps' words from the block's entry, an
            # interpreted step (the complement of its pc) that one word.
            keys = codes >> 9
            stepped = codes < 0
            steps = int(np.count_nonzero(stepped))
            keys[stepped] = ~step_pcs[steps_seen:steps_seen + steps].astype(
                np.int64)
            steps_seen += steps
            keys, inverse = np.unique(keys, return_inverse=True)
            count = np.where(keys < 0, 1, keys & 127)
            entry = ~keys
            entry[keys >= 0] = [rec.blocks[key >> 7].entry
                                for key in keys[keys >= 0].tolist()]
            starts = np.cumsum(count) - count
            words = np.repeat(entry - 4 * starts, count) \
                + 4 * np.arange(int(count.sum()))
            fetched = self._code_kinds[np.searchsorted(self._code_words,
                                                       words)]
            if (fetched == _FAULT).any():
                raise ReplayUnsupported("bus_error")
            # A run starts with each event's fetches, and where the kind
            # or the line changes or the fetch is uncached.
            lines = words >> offset_bits
            first = np.ones(len(words), dtype=bool)
            first[1:] = ((fetched[1:] != fetched[:-1])
                         | (lines[1:] != lines[:-1])
                         | (fetched[1:] >= _SRAM_READ))
            first[starts[count > 0]] = True
            runs = np.flatnonzero(first)
            # Each event's runs in stream order, from its key's first run.
            key_runs = np.searchsorted(runs, np.append(starts, len(words)))
            per_event = np.diff(key_runs)[inverse]
            ends = np.cumsum(per_event)
            order = np.arange(int(per_event.sum())) + np.repeat(
                key_runs[:-1][inverse] - ends + per_event, per_event)
            later = (np.diff(runs, append=len(words)) - 1)[order]
            flushed = np.array(iflushes[bisect_left(iflushes, start):
                                        bisect_left(iflushes, start
                                                    + len(codes))],
                               dtype=np.int64) - start
            at = ends[flushed]
            addresses.append(np.insert(words[runs[order]].astype(np.uint32),
                                       at, 0))
            kinds.append(np.insert(fetched[runs[order]], at, FLUSH))
            # This chunk's events before the split, and their runs.
            before = min(max(split[0] - start, 0), len(codes))
            runs_before = int(ends[before - 1]) if before else 0
            first_phase += runs_before + int(np.count_nonzero(
                flushed < before))
            later_fetches += int(later[runs_before:].sum())
        return (np.concatenate(addresses), np.concatenate(kinds),
                first_phase, later_fetches)

    def _priced(self, counts: Counter, geometry: CacheGeometry) -> dict:
        """A cache side's controller, bus and memory counters and its
        stall cycles (``extra``) from its event counts."""
        values = {"read_hits": counts["read_hits"],
                  "write_hits": counts["write_hits"],
                  "write_misses": counts[_WRITE_SRAM] - counts["write_hits"],
                  "evictions": counts["evictions"],
                  "flushes": counts[FLUSH],
                  "buckets": [0] * 16}
        for name in ("read_misses", "bypasses", "miss_sum", "extra",
                     "transfers", "bursts", "beats", "waits", "sram_reads",
                     "sram_writes", "apb"):
            values[name] = 0
        nwords = geometry.line_size // 4
        for kind, wait in self._fill_waits.items():
            misses = counts["miss", kind]
            cycles = self._overhead + nwords + wait * nwords
            values["read_misses"] += misses
            values["miss_sum"] += misses * cycles
            values["extra"] += misses * cycles
            bucket = cycles.bit_length()
            values["buckets"][bucket if bucket < 15 else 15] += misses
            values["transfers"] += misses
            values["bursts"] += misses
            values["beats"] += misses * nwords
            values["waits"] += misses * wait * nwords
            if kind == _READ_SRAM:
                values["sram_reads"] += misses * nwords
        values["fills"] = values["read_misses"]
        for kind, single in self._single.items():
            transfers = counts[kind]
            if kind != _WRITE_SRAM:
                values["bypasses"] += transfers
            cycles, sram_reads, sram_writes, apb, wait = single
            values["extra"] += cycles * transfers
            values["transfers"] += transfers
            values["beats"] += transfers
            values["waits"] += wait * transfers
            values["sram_reads"] += sram_reads * transfers
            values["sram_writes"] += sram_writes * transfers
            values["apb"] += apb * transfers
        return values

    # -- the report ----------------------------------------------------------

    def _check(self, config: ArchitectureConfig) -> None:
        """Raise :class:`ReplayUnsupported` where *config*'s replay
        could not be exact."""
        if not replayable(config):
            raise ReplayUnsupported("prefetch")
        if self.unsupported is not None:
            raise ReplayUnsupported(self.unsupported)

    def _counts(self, config: ArchitectureConfig, span: _Span) -> dict:
        """*config*'s counts mapping (the series
        :func:`~repro.obs.collect.simulator_snapshot` reads off a
        machine) for *span*'s second phase, priced from the passes."""
        timing = config.timing()
        issue = self._issue(timing, span)
        fetch = self._priced(self._side("icache", config.icache, span),
                             config.icache)
        data_events = self._side("dcache", config.dcache, span)
        data = self._priced(data_events, config.dcache)
        mem_stall = (data["extra"]
                     + data["flushes"] * config.dcache.lines
                     + data_events[_IFLUSH] * config.icache.lines)
        cti_penalty = issue["taken"] * timing.taken_cti_penalty
        cycles = (issue["issue"] + fetch["extra"] + mem_stall + cti_penalty
                  + issue["annulled"] * timing.annulled_slot_cycles
                  + issue["traps"] * timing.trap_entry_cycles)

        def both(name: str) -> int:
            return fetch[name] + data[name]

        counts = {
            "pipeline.instructions": issue["instret"],
            "pipeline.cycles": cycles,
            "pipeline.traps": issue["traps"],
            "pipeline.flushes": issue["traps"],
            "pipeline.fetch_stall_cycles": fetch["extra"],
            "pipeline.mem_stall_cycles": mem_stall,
            "pipeline.annulled_slots": issue["annulled"],
            "pipeline.taken_ctis": issue["taken"],
            "pipeline.cti_penalty_cycles": cti_penalty,
            "pipeline.interlock_stalls": issue["interlocks"],
            "bus.ahb.transfers": both("transfers"),
            "bus.ahb.burst_transfers": both("bursts"),
            "bus.ahb.data_beats": both("beats"),
            "bus.ahb.wait_states": both("waits"),
            "bus.ahb.errors": 0,
            "bus.apb.accesses": both("apb"),
            "bus.apb.wait_states": both("apb") * self._apb_penalty,
            "mem.sram.reads": both("sram_reads"),
            "mem.sram.writes": both("sram_writes"),
        }
        for name, values in (("icache", fetch), ("dcache", data)):
            label = f"{{cache={name}}}"
            for field in CACHE_COUNTERS:
                counts[f"cache.{field}{label}"] = values[field]
            counts[f"cache.miss_cycles{label}"] = (tuple(values["buckets"]),
                                                   values["miss_sum"])
        return counts

    def report(self, config: ArchitectureConfig) -> SimReport:
        """``Simulator(config).run(image, max_instructions)``'s report,
        from the recording (no memory trace, as a sweep captures none)."""
        self._check(config)
        recorded = self.recorded
        span = self._span((0, 0, 0), recorded.window,
                          recorded.recording.mark(), restart=False)
        counts = self._counts(config, span)
        return SimReport(
            cycles=counts["pipeline.cycles"],
            instructions=recorded.instructions,
            instruction_mix=dict(span.mix),
            dcache=cache_record(counts, "dcache", config.dcache),
            icache=cache_record(counts, "icache", config.icache),
            result_word=recorded.result_word,
            uart_output=recorded.uart_output,
            obs=point_snapshot(counts),
        )

    def window(self, config: ArchitectureConfig, ramp_start: int,
               start: int, end: int) -> dict:
        """What ``measure_window`` observes of the sampled window
        ``[start, end)`` after its ramp from *ramp_start* (three of
        ``record``'s marks) on *config*'s accurate engine: steps,
        retirements, cycles, stalls, traps, the window's instruction mix
        and each cache's integer counters."""
        self._check(config)
        lo, split, hi = (self.recorded.marks[step]
                         for step in (ramp_start, start, end))
        span = self._span(lo[:3], split[:3], hi[:3], restart=True)
        counts = self._counts(config, span)
        return {
            "steps": end - start,
            "instructions": hi[3] - split[3],
            "cycles": counts["pipeline.cycles"],
            "fetch_stall_cycles": counts["pipeline.fetch_stall_cycles"],
            "mem_stall_cycles": counts["pipeline.mem_stall_cycles"],
            "traps": counts["pipeline.traps"],
            "ramp_steps": start - ramp_start,
            "ramp_instructions": split[3] - lo[3],
            "instruction_mix": span.mix,
            "dcache": cache_counts(counts, "dcache"),
            "icache": cache_counts(counts, "icache"),
        }


def _event_flags(key: int) -> tuple[bool, bool]:
    """Whether an event (keyed as :func:`_event_counts` keys it) issues
    an instruction, and whether it sets the load-use carry."""
    if key < 0:  # an interpreted step
        code = ~(~key & 7)
        return code in (STEP_RETIRED, STEP_TAKEN), code != STEP_ANNULLED
    retired = (key >> 2) & 127
    trapped = not key & EXIT_ANNULLED and (key >> 9) & 127 != retired
    return retired > 0, bool(retired or trapped)


def _event_counts(recording: Recording, lo: tuple, split: tuple,
                  hi: tuple) -> tuple[Counter, Counter]:
    """The events of the recording between *split* and *hi* (two of its
    marks, the phase before them starting at *lo*), read a chunk at a
    time: how often each distinct event occurs, and how often each
    event that issues an instruction follows each event that set the
    load-use carry last (``None`` if none did since *lo*).  A block
    execution is keyed by its exit code, an interpreted step by the
    complement of its word shifted left by three over the complement of
    its code."""
    events = np.frombuffer(recording.events, dtype=np.int64)
    step_words = np.frombuffer(recording.step_words, dtype=np.uint64)
    counts: Counter = Counter()
    pairs: Counter = Counter()
    setter = None  # the key of the event that set the carry last
    steps_seen = lo[2]
    for first, last in ((lo[0], split[0]), (split[0], hi[0])):
        for start in range(first, last, CHUNK):
            codes = events[start:min(start + CHUNK, last)]
            stepped = codes < 0
            steps = int(np.count_nonzero(stepped))
            keys = codes.copy()
            keys[stepped] = ~(step_words[steps_seen:steps_seen + steps]
                              .astype(np.int64) << 3 | ~codes[stepped])
            steps_seen += steps
            keys, inverse, key_counts = np.unique(
                keys, return_inverse=True, return_counts=True)
            keys = keys.tolist()
            issues, sets = (np.array(column)[inverse] for column in
                            zip(*map(_event_flags, keys)))
            last_set = np.where(sets, np.arange(len(codes)), -1)
            np.maximum.accumulate(last_set, out=last_set)
            if first == split[0]:
                counts.update(dict(zip(keys, key_counts.tolist())))
                # Who set the carry into each event: 0 for the one set
                # before the chunk, else 1 + the setter's distinct key.
                before = np.insert(last_set[:-1], 0, -1)
                setters = np.where(before >= 0, inverse[before] + 1, 0)
                ids, id_counts = np.unique(
                    setters[issues] * len(keys) + inverse[issues],
                    return_counts=True)
                into = [setter, *keys]
                for pair, count in zip(ids.tolist(), id_counts.tolist()):
                    pairs[into[pair // len(keys)],
                          keys[pair % len(keys)]] += count
            if last_set[-1] >= 0:
                setter = keys[inverse[last_set[-1]]]
    return counts, pairs


def _mix(blocks: list, events: Counter) -> dict[str, int]:
    """The instruction mix of :func:`_event_counts`' *events*: each
    block exit retired ``blocks[id].insts[:retired]``, and each retired
    interpreted step its word; counted per instruction word and
    classified once per word."""
    words: Counter[int] = Counter()
    for key, count in events.items():
        if key >= 0:
            for inst in blocks[key >> 16].insts[:(key >> 2) & 127]:
                words[inst.word] += count
        elif _event_flags(key)[0]:
            words[~key >> 3] += count
    return word_mix(words)


def _effect(key: int, blocks: list, plan, lookup, tables: dict) -> tuple:
    """What one event (keyed as :func:`_event_counts` keys it) does in
    the issue pass: ``(adds, sources, carry)``.  *adds* is what it adds
    to the counters (issue cycles without an interlock into its first
    instruction, interlock stalls, retirements, taken CTIs, annulled
    slots, traps), *sources* the registers its first issued instruction
    reads (``None`` when it issues none) and *carry* the load-use carry
    it leaves, if it sets one; *tables* memoizes :func:`_issue_table`
    per block id."""
    if key < 0:
        word, code = ~key >> 3, ~(~key & 7)
        if code == STEP_ANNULLED:
            return (0, 0, 0, 0, 1, 0), None, None
        if code not in (STEP_RETIRED, STEP_TAKEN):  # STEP_TRAPPED
            return (0, 0, 0, 0, 0, 1), None, None
        base, sources, load_rd = plan(lookup(word))
        return ((base, 0, 1, int(code == STEP_TAKEN), 0, 0), sources,
                load_rd)
    block_id, steps, retired = key >> 16, (key >> 9) & 127, (key >> 2) & 127
    issue = stalls = 0
    sources = carry = None
    if retired:
        table = tables.get(block_id)
        if table is None:
            table = tables[block_id] = _issue_table(blocks[block_id], plan)
        cost, stalls_per, sources, load_rds = table
        issue, stalls, carry = (cost[retired], stalls_per[retired],
                                load_rds[retired - 1])
    annulled = int(bool(key & EXIT_ANNULLED))
    trapped = int(not annulled and steps != retired)
    if trapped:
        carry = None
    return ((issue, stalls, retired, int(bool(key & EXIT_TAKEN)), annulled,
             trapped), sources, carry)


def _issue_table(block, plan) -> tuple:
    """A block's issue cost per retired prefix: ``(cost, stalls,
    first instruction's interlock sources, load destinations)`` —
    ``cost[r]``/``stalls[r]`` cover ``insts[:r]`` with the interlocks
    inside the prefix; the one into ``insts[0]`` depends on the carry."""
    plans = [plan(inst) for inst in block.insts]
    cost, stalls = [0], [0]
    total = bubbles = 0
    for k, (base, sources, _) in enumerate(plans):
        if k and plans[k - 1][2] in sources:
            total += 1
            bubbles += 1
        total += base
        cost.append(total)
        stalls.append(bubbles)
    return cost, stalls, plans[0][1], [load_rd for _, _, load_rd in plans]


def _code_read_words(recording: Recording) -> np.ndarray:
    """Every word the recording reads as code (``code_lo``/``code_hi``),
    sorted."""
    words: set[int] = set()
    for lo, hi in set(zip(recording.code_lo, recording.code_hi)):
        words.update(range(lo, hi, 4))
    return np.array(sorted(words), dtype=np.uint32)


def _smc_hazard(recording: Recording, stores: list[tuple[int, int]],
                iflushes: list[int]) -> bool:
    """Whether some word stored by the program is read as code again
    with no I-cache flush in between — the only way the accurate
    engine's I-cache could serve a stale word.  (Every read of code
    after a store is visible: the translator and the decode memo drop
    what a store overlaps, so re-executing it means reading it again.)
    *stores* are the ``(reference, word)`` of every store into a word
    read as code, in order, and *iflushes* the references that flush
    the I-cache."""
    if not stores:
        return False
    positions: dict[int, list[int]] = {}
    for at, word in stores:
        positions.setdefault(word, []).append(at)
    for lo, hi, at in zip(recording.code_lo, recording.code_hi,
                          recording.code_at):
        for word in range(lo, hi, 4):
            stored = positions.get(word)
            if stored is None:
                continue
            last = bisect_left(stored, at) - 1
            if last < 0:
                continue
            flush = bisect_right(iflushes, stored[last])
            if flush == len(iflushes) or iflushes[flush] >= at:
                return True
    return False
