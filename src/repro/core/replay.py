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
  configuration: each cache as the machine's own tag store
  (:class:`~repro.cache.cache.TagStore`, the same victim choice and
  seeded generator, without the data), each block's static issue cost per
  :class:`~repro.cpu.pipeline.TimingConfig` with the load-use interlock
  carried across blocks and reset by traps, I-fetches collapsed to
  cache-line runs, and the fixed bus and memory costs.  Boot and
  dispatch only warm the caches; every field of the report covers the
  program window, exactly as on the accurate engine;
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

from repro.cache.cache import CacheGeometry, TagStore, tag_store
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

__all__ = ["FALLBACK_CAUSES", "REPLAYED", "Recorded", "Replayer",
           "ReplayUnsupported", "record"]

#: How a replayed point or sampled run was measured when nothing fell
#: back (else the path is the fallback cause).
REPLAYED = "replayed"

#: Why a point could not be replayed (``sweep.replay_fallbacks{cause}``):
#: a prefetching D-cache, self-modifying code without the required
#: FLUSH, a faulting bus access, or a recording pass that ended in a
#: watchdog or error-mode trap (the accurate engine then raises it).
FALLBACK_CAUSES = ("prefetch", "smc", "bus_error", "error")


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
    sim = Simulator(config, obs=False)
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


# Access kinds of a data reference or an instruction fetch: the flush
# markers, the cached kinds (through the tag store) and the uncached
# single transfers (fixed costs, Replayer._single).
(_DFLUSH, _IFLUSH, _READ_SRAM, _READ_PROM, _WRITE_SRAM, _SRAM_READ,
 _SRAM_WRITE, _APB) = range(8)


class _Span:
    """A slice of the recording, replayed as two phases of which only
    the second is counted: its columns, where the phases split, the
    second phase's instruction mix, and the passes already run over it.

    The whole program's span splits at the program's first instruction
    and ``restart`` is false: boot and dispatch only warm the caches.
    A sampled window's span runs from its ramp start to its end and
    splits at the window start, where ``restart`` does what
    ``reset_stats`` does there (the lines stay, the replacement state
    goes back to power-on)."""

    def __init__(self, replayer: "Replayer", lo: tuple, split: tuple,
                 hi: tuple, restart: bool):
        rec = replayer.recorded.recording
        self.restart = restart
        self.events = rec.events[lo[0]:hi[0]].tolist()
        self.step_pcs = rec.step_pcs[lo[2]:hi[2]].tolist()
        self.step_words = rec.step_words[lo[2]:hi[2]].tolist()
        self.split = split[0] - lo[0]
        kinds = replayer._kinds[lo[1]:hi[1]]
        self.kinds = kinds.tolist()
        self.ref_addr = replayer._ref_addr[lo[1]:hi[1]]
        self.ref_split = split[1] - lo[1]
        #: How many references of each kind the second phase makes.
        self.ref_counts = Counter(
            {int(kind): int(count) for kind, count
             in zip(*np.unique(kinds[self.ref_split:], return_counts=True))})
        #: I-cache flushes per event (the flush follows its fetches).
        iflushes = rec.iflushes
        self.flushes_after = Counter(
            index - lo[0] for index in iflushes[
                bisect_left(iflushes, lo[0]):bisect_left(iflushes, hi[0])])
        #: The instruction mix of the second phase.
        self.mix = _mix(rec, split, hi)
        self.issue: dict[TimingConfig, dict] = {}
        self.fetch: dict[CacheGeometry, Counter] = {}
        self.data: dict[CacheGeometry, Counter] = {}


class Replayer:
    """Every configuration's report from one :class:`Recorded` run, and
    every configuration's observation of each sampled window in it.

    Config-independent work (classifying every address, the SMC check)
    happens once here, and each span's columns are decoded and its
    instruction mix folded once.  Each pass runs through a span's two
    phases (boot and dispatch, then the program window; or a window's
    ramp, then the window) and counts
    the second — the fetch pass per I-cache geometry, the data pass
    per D-cache geometry, the issue pass per :class:`TimingConfig`,
    each memoized per span — and :meth:`_counts` prices the events
    into the window's counts mapping, so a D-cache sweep replays the
    fetch and issue streams once and only the data stream per point.
    """

    def __init__(self, recorded: Recorded):
        self.recorded = recorded
        rec = recorded.recording
        machine = recorded.machine
        bus = machine.bus.config
        self._overhead = bus.address_cycles + bus.arbitration_cycles
        self._memmap = machine.memmap
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

        refs = np.frombuffer(rec.refs, dtype=np.uint64)
        self._ref_addr = refs >> np.uint64(4)
        self._fetch_kinds: dict[int, int] = {}
        try:
            self._kinds = self._classify_refs(refs)
        except ReplayUnsupported as exc:
            self.unsupported = exc.cause
            return
        if _smc_hazard(rec, refs):
            self.unsupported = "smc"
        self._decode = DecodeCache()
        self._spans: dict[tuple, _Span] = {}

    def _span(self, lo: tuple, split: tuple, hi: tuple,
              restart: bool) -> _Span:
        key = (lo, split, hi, restart)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = _Span(self, lo, split, hi, restart)
        return span

    # -- addresses ---------------------------------------------------------

    def _kind(self, address: int, write: bool) -> int:
        """The access kind of *address*; faults are unsupported."""
        slave = next((name for lo, hi, name in self._slaves
                      if lo <= address < hi), None)
        if slave is None:
            raise ReplayUnsupported("bus_error")
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
        raise ReplayUnsupported("bus_error")

    def _classify_refs(self, refs: np.ndarray) -> np.ndarray:
        """Per reference: its kind (flush markers included), classified
        once per distinct (word, read/write)."""
        flush = ((refs >> np.uint64(1)) & np.uint64(7)) == 0
        keys = ((self._ref_addr >> np.uint64(2)) << np.uint64(1)) \
            | (refs & np.uint64(REF_WRITE))
        unique, inverse = np.unique(keys[~flush], return_inverse=True)
        table = np.array([self._kind(int(key >> 1) << 2, bool(key & 1))
                          for key in unique.tolist()], dtype=np.int64)
        kinds = np.where(refs == REF_IFLUSH, _IFLUSH, _DFLUSH)
        kinds[~flush] = table[inverse]
        return kinds

    def _fetch_kind(self, address: int) -> int:
        kind = self._fetch_kinds.get(address)
        if kind is None:
            kind = self._fetch_kinds[address] = self._kind(address, False)
        return kind

    # -- the three passes --------------------------------------------------

    def _issue(self, timing: TimingConfig, span: _Span) -> dict:
        """Pipeline counters of the span's second phase: issue cycles
        (with interlocks), retirements, taken CTIs, annulled slots,
        traps.  The load-use carry starts empty and crosses the split."""
        memo = span.issue.get(timing)
        if memo is not None:
            return memo
        model = PipelineModel(timing)
        plan, lookup = model.plan, self._decode.lookup
        blocks = self.recorded.recording.blocks
        tables: dict[int, tuple] = {}
        words, steps_seen = span.step_words, 0
        issue = interlocks = instret = taken = annulled = traps = 0
        carry = None  # the previous instruction's load destination
        split = span.split
        for index, code in enumerate(span.events):
            if index == split:
                issue = interlocks = instret = taken = annulled = traps = 0
            if code >= 0:
                block_id = code >> 16
                retired = (code >> 2) & 127
                if retired:
                    table = tables.get(block_id)
                    if table is None:
                        table = tables[block_id] = _issue_table(
                            blocks[block_id], plan)
                    cost, stalls, first_sources, load_rds = table
                    if carry in first_sources:
                        issue += 1
                        interlocks += 1
                    issue += cost[retired]
                    interlocks += stalls[retired]
                    carry = load_rds[retired - 1]
                    instret += retired
                if code & EXIT_TAKEN:
                    taken += 1
                if code & EXIT_ANNULLED:
                    annulled += 1
                elif ((code >> 9) & 127) != retired:
                    traps += 1
                    carry = None
                continue
            word = words[steps_seen]
            steps_seen += 1
            if code == STEP_RETIRED or code == STEP_TAKEN:
                base, sources, load_rd = plan(lookup(word))
                if carry in sources:
                    issue += 1
                    interlocks += 1
                issue += base
                carry = load_rd
                instret += 1
                taken += code == STEP_TAKEN
            elif code == STEP_ANNULLED:
                annulled += 1
            else:  # STEP_TRAPPED
                traps += 1
                carry = None
        if split == len(span.events):
            issue = interlocks = instret = taken = annulled = traps = 0
        counts = {"issue": issue, "interlocks": interlocks,
                  "instret": instret, "taken": taken, "annulled": annulled,
                  "traps": traps}
        span.issue[timing] = counts
        return counts

    def _fetch(self, geometry: CacheGeometry, span: _Span) -> Counter:
        """The I-cache side's event counts in *span*'s second phase."""
        memo = span.fetch.get(geometry)
        if memo is not None:
            return memo
        tags = tag_store(geometry)
        blocks = self.recorded.recording.blocks
        offset_bits = geometry.offset_bits
        runs_memo: dict[int, list] = {}
        flushes_after = span.flushes_after
        split = span.split
        pcs = span.step_pcs
        steps_seen = 0
        window, counts = Counter(), Counter()
        for index, code in enumerate(span.events):
            if index == split:
                counts = window
                if span.restart:
                    tags.restart()
            if code >= 0:
                key = code >> 9  # block id and steps
                runs = runs_memo.get(key)
                if runs is None:
                    runs = runs_memo[key] = self._runs(
                        blocks[code >> 16], (code >> 9) & 127, offset_bits)
            else:
                pc = pcs[steps_seen]
                steps_seen += 1
                runs = ((self._fetch_kind(pc), pc >> offset_bits, 1),)
            for kind, line, count in runs:
                if kind >= _SRAM_READ:
                    counts[kind] += count
                elif tags.lookup(line):
                    counts["read_hits"] += count
                else:
                    counts["read_hits"] += count - 1
                    counts["miss", kind] += 1
                    evictions = tags.evictions
                    tags.fill(line)
                    counts["evictions"] += tags.evictions - evictions
            flushes = flushes_after.get(index)
            if flushes:
                tags.invalidate()
                counts["flushes"] += flushes
        span.fetch[geometry] = window
        return window

    def _runs(self, block, steps: int, offset_bits: int) -> list:
        """The fetches of a block execution that fetched *steps* words:
        ``(kind, line, count)`` per run of consecutive fetches from one
        cache line (uncached fetches stand alone)."""
        runs: list[list] = []
        for address in range(block.entry, block.entry + 4 * steps, 4):
            kind = self._fetch_kind(address)
            line = address >> offset_bits
            if (runs and kind < _SRAM_READ and runs[-1][0] == kind
                    and runs[-1][1] == line):
                runs[-1][2] += 1
            else:
                runs.append([kind, line, 1])
        return [tuple(run) for run in runs]

    def _data(self, geometry: CacheGeometry, span: _Span) -> Counter:
        """The D-cache side's event counts in *span*'s second phase."""
        memo = span.data.get(geometry)
        if memo is not None:
            return memo
        tags = tag_store(geometry)
        lines = (span.ref_addr >> np.uint64(geometry.offset_bits)).tolist()
        kinds, split = span.kinds, span.ref_split
        _data_pass(tags, kinds, lines, 0, split)
        if span.restart:
            tags.restart()
        counts = (_data_pass(tags, kinds, lines, split, len(kinds))
                  + span.ref_counts)
        counts["flushes"] = counts[_DFLUSH]
        span.data[geometry] = counts
        return counts

    def _priced(self, counts: Counter, geometry: CacheGeometry) -> dict:
        """A cache side's controller, bus and memory counters and its
        stall cycles (``extra``) from its event counts."""
        values = {"read_hits": counts["read_hits"],
                  "write_hits": counts["write_hits"],
                  "write_misses": counts[_WRITE_SRAM] - counts["write_hits"],
                  "evictions": counts["evictions"],
                  "flushes": counts["flushes"],
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
        if config.prefetch != "none":
            raise ReplayUnsupported("prefetch")
        if self.unsupported is not None:
            raise ReplayUnsupported(self.unsupported)

    def _counts(self, config: ArchitectureConfig, span: _Span) -> dict:
        """*config*'s counts mapping (the series
        :func:`~repro.obs.collect.simulator_snapshot` reads off a
        machine) for *span*'s second phase, priced from the passes."""
        timing = config.timing()
        issue = self._issue(timing, span)
        fetch = self._priced(self._fetch(config.icache, span), config.icache)
        data_events = self._data(config.dcache, span)
        data = self._priced(data_events, config.dcache)
        mem_stall = (data["extra"]
                     + data["flushes"] * _flush_cycles(config.dcache)
                     + data_events[_IFLUSH] * _flush_cycles(config.icache))
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


def _data_pass(tags: TagStore, kinds: list[int], lines: list[int], lo: int,
               hi: int) -> Counter:
    """The tag-dependent events of references ``lo:hi``: read hits,
    misses per kind, write hits, evictions."""
    lookup, fill = tags.lookup, tags.fill
    evictions = tags.evictions
    read_hits = write_hits = 0
    misses = {_READ_SRAM: 0, _READ_PROM: 0}
    for index in range(lo, hi):
        kind = kinds[index]
        if kind == _WRITE_SRAM:
            write_hits += lookup(lines[index])
        elif kind == _READ_SRAM or kind == _READ_PROM:
            line = lines[index]
            if lookup(line):
                read_hits += 1
            else:
                misses[kind] += 1
                fill(line)
        elif kind == _DFLUSH:
            tags.invalidate()
    counts = Counter(read_hits=read_hits, write_hits=write_hits,
                     evictions=tags.evictions - evictions)
    for kind, count in misses.items():
        counts["miss", kind] = count
    return counts


def _mix(recording: Recording, lo: tuple, hi: tuple) -> dict[str, int]:
    """The instruction mix of the recording between two of its marks:
    each block exit retired ``blocks[id].insts[:retired]``, and each
    retired interpreted step its word.  Counted once per distinct
    (block id, retired) and per distinct step word, expanded into
    counts per instruction word and classified once per word."""
    codes = np.frombuffer(recording.events, dtype=np.int64)[lo[0]:hi[0]]
    exits = codes[codes >= 0]
    words: dict[int, int] = {}
    blocks = recording.blocks
    keys, counts = np.unique((exits >> 16) << 7 | (exits >> 2) & 127,
                             return_counts=True)
    for key, count in zip(keys.tolist(), counts.tolist()):
        for inst in blocks[key >> 7].insts[:key & 127]:
            words[inst.word] = words.get(inst.word, 0) + count
    steps = codes[codes < 0]
    step_words = np.frombuffer(recording.step_words,
                               dtype=np.uint64)[lo[2]:hi[2]]
    retired = step_words[(steps == STEP_RETIRED) | (steps == STEP_TAKEN)]
    for word, count in zip(*(column.tolist() for column in np.unique(
            retired, return_counts=True))):
        words[word] = words.get(word, 0) + count
    return word_mix(words)


def _flush_cycles(geometry: CacheGeometry) -> int:
    """CacheController's default flush cost: one cycle per line."""
    return geometry.sets * geometry.ways


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


def _smc_hazard(recording: Recording, refs: np.ndarray) -> bool:
    """Whether some word stored by the program is read as code again
    with no I-cache flush in between — the only way the accurate
    engine's I-cache could serve a stale word.  (Every read of code
    after a store is visible: the translator and the decode memo drop
    what a store overlaps, so re-executing it means reading it again.)"""
    sizes = (refs >> np.uint64(1)) & np.uint64(7)
    store_at = np.nonzero((sizes != 0) & ((refs & np.uint64(REF_WRITE)) != 0))[0]
    if not len(store_at):
        return False
    store_words = ((refs[store_at] >> np.uint64(4)) & ~np.uint64(3)).tolist()
    stores: dict[int, list[int]] = {}
    for at, word in zip(store_at.tolist(), store_words):
        stores.setdefault(word, []).append(at)
    flushes = np.nonzero(refs == REF_IFLUSH)[0].tolist()
    for lo, hi, at in zip(recording.code_lo, recording.code_hi,
                          recording.code_at):
        for word in range(lo, hi, 4):
            positions = stores.get(word)
            if positions is None:
                continue
            last = bisect_left(positions, at) - 1
            if last < 0:
                continue
            flush = bisect_right(flushes, positions[last])
            if flush == len(flushes) or flushes[flush] >= at:
                return True
    return False
