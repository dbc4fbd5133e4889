"""Sim — the simulation box of Figure 1.

"Based on the reconfigured architecture and the automatically rewritten
application, simulation can provide additional instruction traces to
assist the developer in evaluating the effectiveness of the current
configuration."

:class:`Simulator` runs an image on the same
:class:`~repro.machine.LiquidCore` the FPX node is built from — same
CPU, caches, buses, boot ROM and memory — but with no network stack and
no leon_ctrl: it writes the mailbox itself.  That makes it the fast
inner loop of architecture exploration, and it sees every retired
instruction (the FPX streams only memory traces off the board).  A
:class:`SimReport` carries cycles, CPI, per-class instruction mix and
cache statistics; a memory trace for the Trace Analyzer comes from a
:class:`~repro.analysis.trace.TraceRecorder` attached to a D-cache.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from dataclasses import field as dataclass_field

from repro.core.config import ArchitectureConfig
from repro.cpu.blockcache import TranslatedUnit
from repro.cpu.decode import decode
from repro.cpu.fastpath import FastMemory, FunctionalUnit
from repro.cpu.isa import (
    OP_BRANCH_SETHI,
    OP_CALL,
    OP_MEM,
    OP2_BICC,
    Op3,
    Op3Mem,
)
from repro.machine import LiquidCore
from repro.obs.collect import (
    cache_record,
    point_snapshot,
    simulator_snapshot,
    window_counts,
)
from repro.obs.events import EventTrace
from repro.toolchain.objfile import Image

_LOAD_OPS = {Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB, Op3Mem.LDSH,
             Op3Mem.LDD, Op3Mem.LDSTUB, Op3Mem.SWAP}
_STORE_OPS = {Op3Mem.ST, Op3Mem.STB, Op3Mem.STH, Op3Mem.STD}
_MUL_DIV = {Op3.UMUL, Op3.UMULCC, Op3.SMUL, Op3.SMULCC,
            Op3.UDIV, Op3.UDIVCC, Op3.SDIV, Op3.SDIVCC}


def _classify(inst) -> str:
    if inst.op == OP_CALL:
        return "call"
    if inst.op == OP_BRANCH_SETHI:
        return "branch" if inst.op2 == OP2_BICC else "sethi"
    if inst.op == OP_MEM:
        if inst.op3 in _LOAD_OPS:
            return "load"
        if inst.op3 in _STORE_OPS:
            return "store"
        return "mem-other"
    if inst.op3 in _MUL_DIV:
        return "muldiv"
    if inst.op3 in (Op3.SAVE, Op3.RESTORE):
        return "window"
    if inst.op3 in (Op3.CPOP1, Op3.CPOP2):
        return "custom"
    if inst.op3 in (Op3.JMPL, Op3.RETT, Op3.TICC):
        return "jump"
    return "alu"


class MixRecorder:
    """Per-class instruction mix of one measured execution window on an
    engine that retires every instruction through ``on_retire``: the
    accurate engine, or the functional interpreter.

    Retirements are counted per *static* instruction word and classified
    once per distinct word, when :meth:`mix` builds the report — the hot
    path is one dict update, not a classification.  A translated engine
    is refused with :class:`TypeError`: it retires most instructions
    inside generated blocks, which ``on_retire`` never sees.  A
    translated run's mix is a fold over its recording
    (:mod:`repro.core.replay`).

    Use it as a context manager around the engine's run::

        with MixRecorder(cpu) as recorder:
            cpu.run(...)
        instruction_mix = recorder.mix()
    """

    __slots__ = ("engine", "_words")

    def __init__(self, engine):
        if isinstance(engine, TranslatedUnit):
            raise TypeError(
                "MixRecorder sees only the interpreted steps of a "
                "TranslatedUnit; fold a recording's events instead")
        self.engine = engine
        self._words: dict[int, int] = {}

    def __enter__(self) -> MixRecorder:
        self.engine.on_retire = self.on_retire
        return self

    def __exit__(self, *exc) -> None:
        self.engine.on_retire = None

    def on_retire(self, pc: int, inst) -> None:
        words = self._words
        word = inst.word
        words[word] = words.get(word, 0) + 1

    def mix(self) -> dict[str, int]:
        """Retirements per instruction class (see :func:`word_mix`)."""
        return word_mix(self._words)


def word_mix(words: dict[int, int]) -> dict[str, int]:
    """Retirements per instruction class from retirements per
    instruction word, classifying each distinct word once (classes that
    retired nothing are absent), in class-name order."""
    mix: Counter[str] = Counter()
    for word, count in words.items():
        mix[_classify(decode(word))] += count
    return dict(sorted(mix.items()))


@dataclass
class SimReport:
    """What one simulated execution measured.

    Every field covers the program window, from the program's entry to
    its return to the polling loop, as leon_ctrl times it: boot and
    dispatch are not counted, though they leave the caches warm.  On
    the accurate engine the ``dcache``/``icache`` counters equal the
    ``obs`` snapshot's ``cache.*`` series.
    """

    cycles: int
    instructions: int
    instruction_mix: dict[str, int]
    dcache: dict
    icache: dict
    result_word: int | None
    uart_output: bytes
    #: Program-window metrics snapshot (repro.obs schema: counters /
    #: gauges / histograms), covering exactly the measured execution,
    #: from the program's entry to its return to the polling loop.
    #: Empty when the simulator was built with ``obs=False``.
    obs: dict = dataclass_field(default_factory=dict)
    #: Fast-engine provenance (engine, steps, block-cache counters and
    #: ``source_chars``, the characters of generated source), set
    #: only by :meth:`Simulator.run_translated`; empty for an accurate
    #: run.
    #: Never part of the report's identity.
    fastpath: dict = dataclass_field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def summary_lines(self) -> list[str]:
        lines = [
            f"cycles       : {self.cycles}",
            f"instructions : {self.instructions}",
            f"CPI          : {self.cpi:.3f}",
            f"D-cache      : {self.dcache['read_hits']} hits / "
            f"{self.dcache['read_misses']} misses",
            "instruction mix:",
        ]
        total = max(self.instructions, 1)
        for name, count in sorted(self.instruction_mix.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {name:<9} {count:>8}  ({count / total:.1%})")
        return lines


class Simulator(LiquidCore):
    """The Liquid core plus mailbox dispatch: no network, no leon_ctrl,
    no timer, IRQ controller or SDRAM.

    The peripheral clock never advances here (only the FPX node's step
    loop advances it), so no MMIO read can observe timing — exact replay
    relies on that.  LED timestamps and the APB cycle counter therefore
    read 0 on the Sim box; a timed LED history comes from
    :class:`~repro.core.liquid.LiquidProcessorSystem`.
    """

    def __init__(self, config: ArchitectureConfig | None = None,
                 obs: bool = True):
        self.config = config or ArchitectureConfig()
        super().__init__(self.config)

        # Instructions retired by fast engines, which cpu.instret does
        # not see; ArchState adds them to the architectural retired count.
        self.fast_instret = 0

        # Telemetry (repro.obs): cycle-stamped control-plane events plus
        # per-point metrics snapshots.  Disabled, both are no-ops.
        self.obs_enabled = obs
        self.events = EventTrace(enabled=obs)
        if obs:
            self.cpu.on_trap = lambda tt, pc: self.events.record(
                self.cpu.cycles, "trap", tt=tt, pc=pc)

    # ------------------------------------------------------------------
    # Two-speed execution: translated fast path + checkpoints
    # ------------------------------------------------------------------

    def translated_unit(self) -> TranslatedUnit:
        """A block-translating executor
        (:class:`~repro.cpu.blockcache.TranslatedUnit`) over this
        simulator's *live* machine.

        Registers, control registers, decode cache, extensions and ASRs
        are shared by reference with the cycle-accurate unit; memory is
        the same SRAM/PROM byte arrays viewed flat, with the APB mapped
        through so peripheral side effects land on the same devices.
        Only PC/nPC/annul (copied in here) and the retirement counters
        are private — :meth:`_sync_from_functional` folds them back.
        """
        return self._fast_unit(TranslatedUnit)

    def _fast_unit(self, factory):
        cpu = self.cpu
        mem = FastMemory()
        mem.add_region(self.memmap.prom_base, self.prom.data,
                       writable=False, name="prom")
        mem.add_region(self.memmap.sram_base, self.sram.data, name="sram")
        mem.add_mmio(self.memmap.apb_base, self.memmap.apb_size, self.apb,
                     name="apb")
        fast = factory(mem, regs=cpu.regs, ctrl=cpu.ctrl,
                       decode_cache=cpu.decode_cache,
                       extensions=cpu.extensions, asr=cpu.asr,
                       reset_pc=self.memmap.prom_base)
        fast.pc, fast.npc, fast.annul = cpu.pc, cpu.npc, cpu.annul
        fast.halted, fast.error_tt = cpu.halted, cpu.error_tt
        fast.interrupt_source = cpu.interrupt_source
        return fast

    def _sync_from_functional(self, fast: FunctionalUnit) -> None:
        """Fold a fast execution leg back into the live machine."""
        cpu = self.cpu
        cpu.pc, cpu.npc, cpu.annul = fast.pc, fast.npc, fast.annul
        cpu.halted, cpu.error_tt = fast.halted, fast.error_tt
        cpu.trap_count += fast.trap_count
        self.fast_instret += fast.instret

    def _normalize_window_start(self) -> None:
        """Put the micro-architecture into the canonical window-start
        state.

        A restored checkpoint is architecturally exact; the caches,
        prefetchers and pipeline are not part of it, so a measured
        window always begins from flushed-and-reset machinery.  Applying
        the same normalization on a machine that stepped straight
        through on the accurate engine is what makes its windows
        byte-identical to the checkpoint-resumed ones.
        """
        self.icache.flush()
        self.dcache.flush()
        self.icache.reset_stats()
        self.dcache.reset_stats()
        self.cpu.pipeline.reset()

    def checkpoint_memory(self) -> dict:
        """ArchState protocol: name -> live byte buffer."""
        return {"sram": self.sram.data}

    def checkpoint_peripherals(self) -> dict:
        """ArchState protocol: name -> device with state()/load_state()."""
        return {"uart": self.uart, "leds": self.leds,
                "cycle_counter": self.cycle_counter}

    def _dispatch_on(self, engine, image: Image) -> None:
        """Boot *engine* (any engine over this machine) to the polling
        loop, load *image*, and run it to the program's entry."""
        engine.run(max_instructions=100_000,
                   until_pc=self.rom_info.poll_address)
        self._load_image(image)
        engine.run(max_instructions=10_000, until_pc=image.entry)

    def _load_image(self, image: Image) -> None:
        """Deposit the program and set the mailbox (the Sim box has no
        network: it plays leon_ctrl's role itself)."""
        for base, blob in image.segments.items():
            self.sram.host_write(base, blob)
        self.sram.host_write_word(self.memmap.mailbox_start, image.entry)

    # ------------------------------------------------------------------

    def run(self, image: Image,
            max_instructions: int = 50_000_000) -> SimReport:
        """Boot, dispatch *image*, run the whole program on the
        cycle-accurate engine, report."""
        cpu = self.cpu
        poll = self.rom_info.poll_address
        self._dispatch_on(cpu, image)

        before = simulator_snapshot(self)
        self.events.record(cpu.cycles, "dispatch", entry=cpu.pc)
        with MixRecorder(cpu) as mix_recorder:
            cpu.run(max_instructions=max_instructions, until_pc=poll)
        counts = window_counts(simulator_snapshot(self), before)
        cycles = counts["pipeline.cycles"]
        self.events.record(cpu.cycles, "done", cycles=cycles)

        # Clear the mailbox so the polling loop parks instead of
        # re-dispatching (leon_ctrl's job on the real platform).
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        config = self.config
        return SimReport(
            cycles=cycles,
            instructions=counts["pipeline.instructions"],
            instruction_mix=mix_recorder.mix(),
            dcache=cache_record(counts, "dcache", config.dcache,
                                config.prefetch),
            icache=cache_record(counts, "icache", config.icache),
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs=point_snapshot(counts) if self.obs_enabled else {},
        )

    def run_translated(self, image: Image,
                       max_instructions: int = 50_000_000) -> SimReport:
        """Run *image* to completion on the block-translating engine:
        full architectural fidelity (registers, traps, memory,
        peripheral side effects), byte-identical to the accurate engine
        (the differential suite holds them to it), no timing at all.
        ``cycles`` in the report equals the window's step count (CPI 1.0
        by construction), the cache sections are all-zero and ``obs``
        and ``instruction_mix`` are empty — this mode answers "what does
        the program compute", not "how fast".  The program's mix is the
        replayed report's, folded from the translated engine's
        recording: ``Replayer(record(config, image,
        max_instructions)).report(config).instruction_mix``
        (:mod:`repro.core.replay`).  The block-cache counters and the
        size of the code it generated (``source_chars``) are in the
        report's ``fastpath`` section."""
        poll = self.rom_info.poll_address
        fast = self.translated_unit()
        self._dispatch_on(fast, image)

        start_steps, start_instret = fast.cycles, fast.instret
        self.events.record(fast.cycles, "dispatch", entry=image.entry)
        fast.run(max_instructions=max_instructions, until_pc=poll)
        window = fast.cycles - start_steps
        retired = fast.instret - start_instret
        self.events.record(fast.cycles, "done", cycles=window)
        self._sync_from_functional(fast)
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        counts = simulator_snapshot(self)
        return SimReport(
            cycles=window,
            instructions=retired,
            instruction_mix={},
            dcache=cache_record(counts, "dcache", self.config.dcache,
                                self.config.prefetch),
            icache=cache_record(counts, "icache", self.config.icache),
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs={},
            fastpath={
                "engine": "translated",
                "steps": window,
                "blocks_translated": fast.blocks_translated,
                "blocks_executed": fast.blocks_executed,
                "blocks_invalidated": fast.blocks_invalidated,
                "traces_translated": fast.traces_translated,
                "source_chars": fast.source_chars,
            },
        )


def simulate(image: Image, config: ArchitectureConfig | None = None,
             max_instructions: int = 50_000_000) -> SimReport:
    """One-call Sim-box run: fresh simulator, one image, one report."""
    return Simulator(config).run(image, max_instructions)
