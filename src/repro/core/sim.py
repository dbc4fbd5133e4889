"""Sim — the simulation box of Figure 1.

"Based on the reconfigured architecture and the automatically rewritten
application, simulation can provide additional instruction traces to
assist the developer in evaluating the effectiveness of the current
configuration."

:class:`Simulator` runs an image on a standalone Liquid processor
system — same CPU, caches, buses, boot ROM and memory as the FPX node,
but with no network stack and no leon_ctrl, so it is the fast inner
loop of architecture exploration and it can capture *instruction*
traces (the FPX streams only memory traces off the board).  A
:class:`SimReport` carries cycles, CPI, per-class instruction mix,
cache statistics, and the raw traces for the Trace Analyzer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from dataclasses import field as dataclass_field

from repro.analysis.trace import MemoryTrace, TraceRecorder
from repro.bus.ahb import AhbBus
from repro.bus.apb import ApbBridge
from repro.cache import CacheController
from repro.core.config import ArchitectureConfig
from repro.core.rewriter import BUILTIN_RECIPES, install_recipes
from repro.cpu import IntegerUnit
from repro.cpu.archstate import ArchState
from repro.cpu.blockcache import MAX_BLOCKS, TranslatedBlock, TranslatedUnit
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
from repro.mem.bootrom import BootRom, build_boot_rom
from repro.mem.memmap import (
    CYCLE_COUNTER_OFFSET,
    IOPORT_OFFSET,
    UART_OFFSET,
    MemoryMap,
)
from repro.mem.sram import SramBank
from repro.obs.collect import (
    FASTPATH_SERIES,
    SAMPLING_SERIES,
    point_snapshot,
    simulator_snapshot,
)
from repro.obs.events import EventTrace
from repro.peripherals import Clock, CycleCounter, LedPort, Uart
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
    """Per-class instruction mix of one measured execution window.

    Retirements are counted per *static* instruction and classified
    once per distinct instruction word, when :meth:`mix` builds the
    report — the hot path is one dict update, not a classification:

    * single steps (accurate, functional, or a translated engine's
      interpreted fallbacks) arrive through ``on_retire`` and are
      counted by instruction word;
    * translated block executions arrive through ``on_block``, batched
      per trace call, and are counted by ``(block, retired)``.  The key is the block *object*,
      so a block re-translated after self-modifying code counts under
      its new instructions, and only the retired prefix is classified —
      exact for traps, annulled delay slots and mid-block bails.

    Use it as a context manager around the engine's run::

        with MixRecorder(cpu) as recorder:
            cpu.run(...)
        instruction_mix = recorder.mix()
    """

    #: Distinct ``(block, retired)`` keys held before they are folded
    #: into word counts: bounds what the recorder keeps alive when code
    #: is re-translated over and over (a FLUSH inside a hot loop).
    FOLD_AT = MAX_BLOCKS

    __slots__ = ("engine", "_words", "_blocks")

    def __init__(self, engine):
        self.engine = engine
        self._words: dict[int, int] = {}
        self._blocks: dict[tuple[TranslatedBlock, int], int] = {}

    def __enter__(self) -> MixRecorder:
        self.engine.on_retire = self.on_retire
        if isinstance(self.engine, TranslatedUnit):
            self.engine.on_block = self.on_block
        return self

    def __exit__(self, *exc) -> None:
        self.engine.on_retire = None
        if isinstance(self.engine, TranslatedUnit):
            self.engine.on_block = None

    def on_retire(self, pc: int, inst) -> None:
        words = self._words
        word = inst.word
        words[word] = words.get(word, 0) + 1

    def on_block(self, block: TranslatedBlock, retired: int,
                 count: int) -> None:
        blocks = self._blocks
        key = (block, retired)
        seen = blocks.get(key)
        if seen is None:
            if len(blocks) >= self.FOLD_AT:
                self._fold()
            blocks[key] = count
        else:
            blocks[key] = seen + count

    def _fold(self) -> None:
        """Move the block counts into the word counts."""
        words = self._words
        for (block, retired), count in self._blocks.items():
            for inst in block.insts[:retired]:
                words[inst.word] = words.get(inst.word, 0) + count
        self._blocks.clear()

    def mix(self) -> dict[str, int]:
        """Retirements per instruction class (classes that retired
        nothing are absent), in class-name order."""
        self._fold()
        mix: Counter[str] = Counter()
        for word, count in self._words.items():
            mix[_classify(decode(word))] += count
        return dict(sorted(mix.items()))


@dataclass
class SimReport:
    """What one simulated execution measured.

    ``cycles``, ``instructions``, ``instruction_mix`` and ``obs`` cover
    the program window (dispatch to the return to the polling loop);
    ``dcache``/``icache`` are the caches' totals since the machine was
    built, boot included — for ``return 6 * 7`` the ``icache`` dict
    shows 9 read misses where ``obs`` shows 4.
    """

    cycles: int
    instructions: int
    instruction_mix: dict[str, int]
    dcache: dict
    icache: dict
    memory_trace: MemoryTrace
    result_word: int | None
    uart_output: bytes
    #: Program-window metrics snapshot (repro.obs schema: counters /
    #: gauges / histograms), covering exactly the measured execution —
    #: the same window the FPX cycle counter arms over.  Empty when the
    #: simulator was built with ``obs=False``.
    obs: dict = dataclass_field(default_factory=dict)
    #: Fast-engine provenance (engine, steps, block-cache counters and
    #: ``source_chars``, the characters of generated source), set
    #: only by :meth:`Simulator.run_functional` and
    #: :meth:`Simulator.run_translated`; empty for an accurate run.
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


class Simulator:
    """Standalone Liquid processor system (no network, no leon_ctrl)."""

    def __init__(self, config: ArchitectureConfig | None = None,
                 capture_memory_trace: bool = True, recipes=None,
                 obs: bool = True):
        self.config = config or ArchitectureConfig()
        cfg = self.config
        self.memmap = MemoryMap()
        memmap = self.memmap

        rom_info = build_boot_rom(memmap, cfg.nwindows, modified=True)
        self.rom_info = rom_info
        self.clock = Clock()
        self.uart = Uart()
        self.leds = LedPort(self.clock)
        self.cycle_counter = CycleCounter(self.clock)

        self.bus = AhbBus()
        self.prom = BootRom(memmap.prom_base, memmap.prom_size,
                            rom_info.image)
        self.bus.attach(self.prom, memmap.prom_base, memmap.prom_size,
                        "prom")
        self.sram = SramBank(memmap.sram_base, memmap.sram_size)
        self.bus.attach(self.sram, memmap.sram_base, memmap.sram_size,
                        "sram")
        self.apb = apb = ApbBridge(memmap.apb_base)
        apb.attach(self.uart, UART_OFFSET, 0x10, "uart")
        apb.attach(self.leds, IOPORT_OFFSET, 0x10, "ioport")
        apb.attach(self.cycle_counter, CYCLE_COUNTER_OFFSET, 0x10,
                   "cycle_counter")
        self.bus.attach(apb, memmap.apb_base, memmap.apb_size, "apb")

        self.icache = CacheController(cfg.icache, self.bus, memmap.cacheable,
                                      name="icache")
        self.dcache = CacheController(cfg.dcache, self.bus, memmap.cacheable,
                                      name="dcache", prefetch=cfg.prefetch)
        self.cpu = IntegerUnit(self.icache, self.dcache,
                               nwindows=cfg.nwindows, timing=cfg.timing(),
                               reset_pc=memmap.prom_base)
        install_recipes(self.cpu, cfg, recipes or BUILTIN_RECIPES)

        self.recorder = TraceRecorder() if capture_memory_trace else None
        if self.recorder is not None:
            self.recorder.attach(self.dcache)

        # Two-speed and sampled-simulation accounting, keyed by the
        # fastpath.* / sampling.* series names it is published under.
        self.counters = dict.fromkeys(FASTPATH_SERIES + SAMPLING_SERIES, 0)
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
    # Two-speed execution: functional fast path + checkpoints
    # ------------------------------------------------------------------

    def functional_unit(self) -> FunctionalUnit:
        """A functional executor over this simulator's *live* machine.

        Registers, control registers, decode cache, extensions and ASRs
        are shared by reference with the cycle-accurate unit; memory is
        the same SRAM/PROM byte arrays viewed flat, with the APB mapped
        through so peripheral side effects land on the same devices.
        Only PC/nPC/annul (copied in here) and the retirement counters
        are private — :meth:`_sync_from_functional` folds them back.
        """
        return self._fast_unit(FunctionalUnit)

    def translated_unit(self) -> TranslatedUnit:
        """Like :meth:`functional_unit`, but with the basic-block
        translation cache (:class:`~repro.cpu.blockcache.TranslatedUnit`)
        — same architectural results, roughly an order of magnitude
        faster on straight-line-heavy code."""
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
        """Fold a functional execution leg back into the live machine."""
        cpu = self.cpu
        cpu.pc, cpu.npc, cpu.annul = fast.pc, fast.npc, fast.annul
        cpu.halted, cpu.error_tt = fast.halted, fast.error_tt
        cpu.trap_count += fast.trap_count
        self.fast_instret += fast.instret
        counters = self.counters
        counters["fastpath.instructions"] += fast.cycles
        if isinstance(fast, TranslatedUnit):
            for name in ("blocks_translated", "blocks_executed",
                         "blocks_invalidated"):
                counters[f"fastpath.{name}"] += getattr(fast, name)

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

    def checkpoint_rngs(self) -> dict:
        """ArchState protocol: name -> seeded RNG holder."""
        return {"icache": self.icache.cache, "dcache": self.dcache.cache}

    def capture_state(self, engine=None) -> ArchState:
        """Checkpoint the current architectural state.

        *engine* optionally names the executor whose position to
        capture (a functional/translated unit mid fast-forward) — see
        :meth:`ArchState.capture`."""
        state = ArchState.capture(self, engine=engine)
        self.counters["fastpath.checkpoint_captures"] += 1
        self.events.record(self.cpu.cycles, "checkpoint",
                           retired=state.retired)
        return state

    def restore_state(self, state: ArchState) -> None:
        """Adopt a previously captured architectural state."""
        state.restore(self)
        self.counters["fastpath.checkpoint_restores"] += 1

    def checkpoint(self, image: Image, steps: int) -> ArchState:
        """Boot, dispatch *image*, execute its first *steps* steps on
        the translated engine (fewer if it finishes first), and capture
        the state there.

        The returned :class:`ArchState` can be restored into any
        simulator whose configuration shares this one's *architectural*
        shape (:meth:`ArchitectureConfig.arch_key`) — timing dimensions
        like cache geometry are free to differ.
        """
        fast = self._boot_and_dispatch(image, "translated")
        fast.fast_forward(steps, stop_pc=self.rom_info.poll_address)
        self._sync_from_functional(fast)
        return self.capture_state()

    def _boot_and_dispatch(self, image: Image, kind: str):
        """Boot to the polling loop, load *image*, run to its entry.
        Returns the engine of *kind* (``"fast"``, ``"translated"`` or
        ``"accurate"``) that did it, positioned at the program's first
        instruction."""
        if kind not in ("fast", "translated", "accurate"):
            raise ValueError(f"unknown engine '{kind}'")
        if kind == "translated":
            engine = self.translated_unit()
        elif kind == "fast":
            engine = self.functional_unit()
        else:
            engine = self.cpu
        self._dispatch_on(engine, image)
        return engine

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

        # Instrument the measured window only.
        if self.recorder is not None:
            self.recorder.clear()

        start_cycles, start_instret = cpu.cycles, cpu.instret
        before = simulator_snapshot(self) if self.obs_enabled else None
        self.events.record(cpu.cycles, "dispatch", entry=cpu.pc)
        with MixRecorder(cpu) as mix_recorder:
            cpu.run(max_instructions=max_instructions, until_pc=poll)
        self.events.record(cpu.cycles, "done",
                           cycles=cpu.cycles - start_cycles)
        obs = (point_snapshot(simulator_snapshot(self), before)
               if self.obs_enabled else {})

        # Clear the mailbox so the polling loop parks instead of
        # re-dispatching (leon_ctrl's job on the real platform).
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        trace = (self.recorder.trace() if self.recorder is not None
                 else MemoryTrace.empty())
        return SimReport(
            cycles=cpu.cycles - start_cycles,
            instructions=cpu.instret - start_instret,
            instruction_mix=mix_recorder.mix(),
            dcache=self.dcache.stats_dict(),
            icache=self.icache.stats_dict(),
            memory_trace=trace,
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs=obs,
        )

    def run_sampled(self, image: Image, plan,
                    max_instructions: int = 50_000_000):
        """SMARTS-style sampled run: execute *image* under *plan* (a
        :class:`~repro.core.sampling.SamplingPlan`) — measurement
        windows replayed from one translated recording of the program,
        run on the cycle-accurate engine only where replay falls back
        (prefetch, self-modifying code, bus error) — and return the
        :class:`~repro.core.sampling.SampledRun` carrying per-window
        observations and CLT confidence intervals.

        The measurement itself runs in fresh simulators built from this
        one's config (a pure function of ``(image, config, plan)``);
        this simulator accumulates the ``sampling.*`` accounting so its
        obs snapshots cover the sampled work.
        """
        from repro.core.sampling import SampledRunner

        runner = SampledRunner(self.config)
        run = runner.run(image, plan, max_instructions=max_instructions)
        for name in SAMPLING_SERIES:
            self.counters[name] += runner.counters[name]
        self.events.record(self.cpu.cycles, "sampled",
                           windows=len(run.windows),
                           estimated_cycles=round(run.estimated_cycles))
        return run

    def run_functional(self, image: Image,
                       max_instructions: int = 50_000_000) -> SimReport:
        """Run *image* to completion entirely on the functional fast
        path: full architectural fidelity (registers, traps, memory,
        peripheral side effects), no timing at all.  ``cycles`` in the
        report equals the window's step count (CPI 1.0 by construction)
        and the cache sections are all-zero — this mode answers "what
        does the program compute", not "how fast".
        """
        return self._run_fast(image, max_instructions, "fast")

    def run_translated(self, image: Image,
                       max_instructions: int = 50_000_000) -> SimReport:
        """Like :meth:`run_functional`, on the block-translating engine:
        byte-identical architectural results (the differential suite
        holds both against the accurate engine), several times faster,
        with the block-cache counters and the size of the code it
        generated (``source_chars``) in the report's ``fastpath``
        section."""
        return self._run_fast(image, max_instructions, "translated")

    def _run_fast(self, image: Image, max_instructions: int,
                  engine_name: str) -> SimReport:
        poll = self.rom_info.poll_address
        fast = self._boot_and_dispatch(image, engine_name)

        start_steps, start_instret = fast.cycles, fast.instret
        self.events.record(fast.cycles, "dispatch", entry=image.entry)
        with MixRecorder(fast) as mix_recorder:
            fast.run(max_instructions=max_instructions, until_pc=poll)
        window = fast.cycles - start_steps
        retired = fast.instret - start_instret
        self.events.record(fast.cycles, "done", cycles=window)
        self._sync_from_functional(fast)
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        fastpath = {"engine": engine_name, "steps": window}
        if engine_name == "translated":
            fastpath["blocks_translated"] = fast.blocks_translated
            fastpath["blocks_executed"] = fast.blocks_executed
            fastpath["blocks_invalidated"] = fast.blocks_invalidated
            fastpath["traces_translated"] = fast.traces_translated
            fastpath["source_chars"] = fast.source_chars
        return SimReport(
            cycles=window,
            instructions=retired,
            instruction_mix=mix_recorder.mix(),
            dcache=self.dcache.stats_dict(),
            icache=self.icache.stats_dict(),
            memory_trace=MemoryTrace.empty(),
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs={},
            fastpath=fastpath,
        )


def simulate(image: Image, config: ArchitectureConfig | None = None,
             max_instructions: int = 50_000_000) -> SimReport:
    """One-call Sim-box run: fresh simulator, one image, one report."""
    return Simulator(config).run(image, max_instructions)
