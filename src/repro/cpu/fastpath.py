"""Functional fast path: architectural SPARC V8 execution, no timing.

The cycle-accurate :class:`~repro.cpu.iu.IntegerUnit` pays for pipeline,
cache and bus modeling on every instruction — even through boot and
warmup regions nobody is measuring.  :class:`FunctionalUnit` executes
the same architecture at interpreter speed by dropping everything
micro-architectural:

* it **shares** the decoder (:class:`~repro.cpu.decode.DecodeCache`),
  the execute handlers (``ARITH_HANDLERS``/``MEM_HANDLERS``), the
  register file/control registers and the trap machinery with the
  IntegerUnit — the dispatch, branch and trap-entry methods are
  literally the IntegerUnit's own functions, so the two engines cannot
  drift apart semantically;
* memory goes through :class:`FastMemory` — a flat byte-array view over
  the same buffers the AHB slaves expose (zero-copy), with MMIO windows
  delegating to the APB bridge so UART/LED/timer/cycle-counter side
  effects are preserved;
* every step costs exactly one "cycle" (:attr:`cycles` mirrors
  :attr:`instret` plus annulled slots and trap entries), so the engine
  reports progress but never timing.

The randomized differential suite in ``tests/difftest`` proves the two
engines produce identical final architectural state and identical UART
output.  The engines share registers, control registers and memory by
reference; :mod:`repro.cpu.archstate` captures that state so the suite
can compare them.
"""

from __future__ import annotations

from typing import Callable

from repro.cpu import isa, traps
from repro.cpu.decode import DecodeCache, DecodedInstruction
from repro.cpu.execute import ARITH_HANDLERS, MEM_HANDLERS
from repro.cpu.iu import INTERRUPT_TRAP_BASE, IntegerUnit
from repro.cpu.registers import ControlRegisters, RegisterFile
from repro.mem.interface import BusError
from repro.utils import sign_extend, u32

__all__ = ["FastMemory", "FunctionalUnit", "MEMO_CAPACITY"]

#: Per-PC decode memo bound; reaching it clears the memo wholesale (the
#: same simple policy as :class:`~repro.cpu.decode.DecodeCache`).
MEMO_CAPACITY = 1 << 16


class FastMemory:
    """Flat byte-array view of a platform memory map.

    RAM/ROM regions alias the underlying ``bytearray`` of the
    cycle-accurate model's memories (:class:`~repro.mem.sram.SramBank`,
    :class:`~repro.mem.bootrom.BootRom`), so both engines observe the
    same bytes with no copying and no coherence step.  MMIO windows
    delegate word accesses to a device port (normally the
    :class:`~repro.bus.apb.ApbBridge`), discarding its wait-state
    accounting.  Big-endian, like the AHB.
    """

    def __init__(self):
        # (base, limit, buffer, writable, name)
        self._regions: list[tuple[int, int, bytearray, bool, str]] = []
        # (base, limit, port, name) — port implements MemoryPort.
        self._mmio: list[tuple[int, int, object, str]] = []

    def add_region(self, base: int, buffer: bytearray, *,
                   writable: bool = True, name: str = "ram") -> None:
        self._regions.append((base, base + len(buffer), buffer, writable,
                              name))

    def add_mmio(self, base: int, size: int, port, *,
                 name: str = "mmio") -> None:
        self._mmio.append((base, base + size, port, name))

    def read(self, address: int, size: int) -> int:
        for base, limit, buffer, _, _ in self._regions:
            if base <= address and address + size <= limit:
                offset = address - base
                return int.from_bytes(buffer[offset:offset + size], "big")
        for base, limit, port, _ in self._mmio:
            if base <= address and address + size <= limit:
                value, _ = port.read(address, size)
                return value
        raise BusError(address, "unmapped address")

    def read_code(self, address: int) -> tuple[int, bool]:
        """Instruction fetch: ``(word, from_ram)``.

        ``from_ram`` tells the caller whether the word came from a
        byte-array region (safe to memoize its decode per-PC under the
        FLUSH coherence contract) or from an MMIO window (never
        memoized — device reads can have side effects)."""
        for base, limit, buffer, _, _ in self._regions:
            if base <= address and address + 4 <= limit:
                offset = address - base
                return int.from_bytes(buffer[offset:offset + 4], "big"), True
        for base, limit, port, _ in self._mmio:
            if base <= address and address + 4 <= limit:
                value, _ = port.read(address, 4)
                return value, False
        raise BusError(address, "unmapped address")

    def read_code_ram(self, address: int) -> int | None:
        """Side-effect-free fetch probe for the block translator: the
        word at *address* if it lies in a byte-array region, else None
        (MMIO windows and unmapped space are never translated — device
        reads can have side effects and must go through :meth:`read_code`
        one instruction at a time)."""
        for base, limit, buffer, _, _ in self._regions:
            if base <= address and address + 4 <= limit:
                offset = address - base
                return int.from_bytes(buffer[offset:offset + 4], "big")
        return None

    def write(self, address: int, size: int, value: int) -> None:
        for base, limit, buffer, writable, name in self._regions:
            if base <= address and address + size <= limit:
                if not writable:
                    raise BusError(address, f"{name} is read-only")
                offset = address - base
                buffer[offset:offset + size] = \
                    (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")
                return
        for base, limit, port, _ in self._mmio:
            if base <= address and address + size <= limit:
                port.write(address, size, value)
                return
        raise BusError(address, "unmapped address")


def _exec_call(iu, inst) -> None:
    """OP_CALL leg of :meth:`IntegerUnit._dispatch`, as a free function
    so it can live in the pre-resolved handler memo."""
    iu.regs.write(15, iu.pc)
    iu.transfer(iu.pc + (inst.disp30 << 2))


def _exec_sethi(iu, inst) -> None:
    iu.regs.write(inst.rd, (inst.imm22 << 10) & 0xFFFFFFFF)


def _resolve_handler(inst: DecodedInstruction):
    """Pre-bind the execute handler :meth:`IntegerUnit._dispatch` would
    pick for *inst*, or None for anything that traps (illegal, FPop,
    CPop-without-extension decode errors) — those fall back to the
    shared ``_dispatch`` so the trap detail stays identical."""
    op = inst.op
    if op == isa.OP_ARITH:
        return ARITH_HANDLERS.get(inst.op3)
    if op == isa.OP_MEM:
        return MEM_HANDLERS.get(inst.op3)
    if op == isa.OP_CALL:
        return _exec_call
    if inst.op2 == isa.OP2_SETHI:
        return _exec_sethi
    if inst.op2 == isa.OP2_BICC:
        return IntegerUnit._branch
    return None


class _NullTiming:
    """Timing table of an engine that has no pipeline."""

    trap_entry_cycles = 0
    annulled_slot_cycles = 1


class _NullPipeline:
    """Stateless stand-in satisfying the shared trap-entry code."""

    timing = _NullTiming()

    def reset(self) -> None:
        pass


class FunctionalUnit:
    """SPARC V8 integer unit without a clock.

    Executes the identical instruction semantics as
    :class:`~repro.cpu.iu.IntegerUnit` (the dispatch/branch/trap-entry
    methods *are* the IntegerUnit's, bound to this object) but every
    step consumes one nominal cycle: no fetch stalls, no issue costs, no
    memory wait states.

    The register file, control registers, decode cache, extension table
    and ASR file may be shared **by reference** with a cycle-accurate
    unit — that is how :meth:`repro.core.sim.Simulator.translated_unit`
    builds the fast path over the live machine, so switching engines
    needs no architectural copying at all.
    """

    #: Shared stateless stand-in for the pipeline the trap-entry code
    #: expects to flush.
    pipeline = _NullPipeline()

    def __init__(
        self,
        mem: FastMemory,
        nwindows: int = 8,
        reset_pc: int = 0x0000_0000,
        *,
        regs: RegisterFile | None = None,
        ctrl: ControlRegisters | None = None,
        decode_cache: DecodeCache | None = None,
        extensions: dict | None = None,
        asr: dict | None = None,
    ):
        self.mem = mem
        self.regs = regs if regs is not None else RegisterFile(nwindows)
        self.ctrl = ctrl if ctrl is not None else ControlRegisters(
            self.regs.nwindows)
        self.decode_cache = (decode_cache if decode_cache is not None
                             else DecodeCache())
        self.extensions = extensions if extensions is not None else {}
        self.asr = asr if asr is not None else {}

        self.pc = u32(reset_pc)
        self.npc = u32(reset_pc + 4)
        self.annul = False
        self.halted = False
        self.error_tt: int | None = None

        self.cycles = 0
        self.instret = 0
        self.trap_count = 0
        self.annulled_slots = 0
        self.pipeline_flushes = 0

        self.on_trap: Callable[[int, int], None] | None = None
        self.on_retire: Callable[[int, DecodedInstruction], None] | None = None
        self.interrupt_source: Callable[[], int] | None = None

        self._transfer_target: int | None = None
        # Decode memo keyed by PC: (instruction, pre-resolved handler) —
        # the fetch+decode+table-lookup of the hot loop collapses to one
        # dict probe.  Coherent under the same contract the real I-cache
        # relies on: stale entries survive only until a FLUSH (the
        # modified boot ROM flushes in its polling loop before
        # dispatching a newly loaded program), and stores through this
        # engine invalidate the words they touch.  Capped at
        # MEMO_CAPACITY entries by wholesale clearing.
        self._inst_cache: dict[
            int, tuple[DecodedInstruction, Callable | None]] = {}

    # ------------------------------------------------------------------
    # Shared semantics: these are the IntegerUnit's own methods, so the
    # two engines decode, dispatch, branch, trap and manage ASRs through
    # one implementation.  They only touch the executor interface
    # (regs/ctrl/pc/npc/transfer/data_read/data_write/...), which this
    # class provides in full.
    # ------------------------------------------------------------------

    _dispatch = IntegerUnit._dispatch
    _branch = IntegerUnit._branch
    _enter_trap = IntegerUnit._enter_trap
    transfer = IntegerUnit.transfer
    read_asr = IntegerUnit.read_asr
    write_asr = IntegerUnit.write_asr

    # ------------------------------------------------------------------
    # Memory access helpers used by the shared executor
    # ------------------------------------------------------------------

    def data_read(self, address: int, size: int, *, signed: bool) -> int:
        try:
            value = self.mem.read(u32(address), size)
        except BusError as exc:
            raise traps.data_access_exception(exc.address) from exc
        if signed:
            value = u32(sign_extend(value, size * 8))
        return value

    def data_write(self, address: int, size: int, value: int) -> None:
        address = u32(address)
        try:
            self.mem.write(address, size, u32(value))
        except BusError as exc:
            raise traps.data_access_exception(exc.address) from exc
        cache = self._inst_cache
        if cache:
            # Self-modifying-store coherence: drop any memoized decode
            # of the word(s) this write overlaps.
            for word_addr in range(address & ~3, address + size, 4):
                cache.pop(word_addr, None)

    def flush_icache(self) -> None:
        """FLUSH: flat memory is always coherent, but the per-PC decode
        memo plays the I-cache's role and is invalidated the same way."""
        self._inst_cache.clear()

    def flush_dcache(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction (or annul one delay slot).

        Mirrors :meth:`IntegerUnit.step` exactly — same interrupt check,
        same fetch-fault ordering, same annul handling — minus all cycle
        accounting.  One call is one step on either engine, which is
        what lets N steps mean the same machine state no matter which
        engine executes them.
        """
        if self.halted:
            raise traps.ErrorMode(self.error_tt or 0, self.pc)

        if self.interrupt_source is not None and self.ctrl.et:
            level = self.interrupt_source()
            if level and (level == 15 or level > self.ctrl.pil):
                self._enter_trap(traps.TrapException(
                    INTERRUPT_TRAP_BASE + level, "interrupt"))
                self.cycles += 1
                return 1

        pc = self.pc
        entry = self._inst_cache.get(pc)
        if entry is None:
            try:
                word, from_ram = self.mem.read_code(pc)
            except BusError:
                self._enter_trap(traps.instruction_access_exception(pc))
                self.cycles += 1
                return 1
            inst = self.decode_cache.lookup(word)
            entry = (inst, _resolve_handler(inst))
            if from_ram:
                if len(self._inst_cache) >= MEMO_CAPACITY:
                    self._inst_cache.clear()
                self._inst_cache[pc] = entry
        inst, handler = entry

        if self.annul:
            # The annulled delay slot is fetched but not executed.
            self.annul = False
            npc = self.npc
            self.pc = npc
            self.npc = (npc + 4) & 0xFFFFFFFF
            self.annulled_slots += 1
            self.cycles += 1
            return 1

        self._transfer_target = None
        try:
            if handler is not None:
                handler(self, inst)
            else:
                self._dispatch(inst)
        except traps.TrapException as trap:
            self._enter_trap(trap)
            self.cycles += 1
            return 1

        target = self._transfer_target
        npc = self.npc
        self.pc = npc
        self.npc = target if target is not None else (npc + 4) & 0xFFFFFFFF

        self.cycles += 1
        self.instret += 1
        if self.on_retire is not None:
            self.on_retire(pc, inst)
        return 1

    def fast_forward(self, budget: int, stop_pc: int | None = None) -> int:
        """Execute up to *budget* steps, stopping early when the PC
        reaches *stop_pc* (checked before each step, like ``run``).
        Returns the steps actually executed.  One step here is one step
        on any engine, which is what lets N steps mean the same machine
        state no matter who executes them — the
        block-translating subclass overrides this with a block-granular
        loop that preserves exactly that contract."""
        executed = 0
        step = self.step
        while executed < budget and self.pc != stop_pc:
            executed += step()
        return executed

    def run(self, max_instructions: int = 10_000_000,
            until_pc: int | None = None) -> int:
        """Same contract as :meth:`IntegerUnit.run`: with *until_pc*,
        stop *before* executing it and raise
        :class:`~repro.cpu.traps.WatchdogExpired` if the budget runs out
        first; without it, execute exactly ``max_instructions`` steps
        and return normally.  Returns the cycles consumed by this call;
        the loop is kept tight — this is the fast path's outer loop."""
        start_cycles = self.cycles
        step = self.step
        if until_pc is None:
            for _ in range(max_instructions):
                step()
            return self.cycles - start_cycles
        for _ in range(max_instructions):
            if self.pc == until_pc:
                return self.cycles - start_cycles
            step()
        raise traps.WatchdogExpired(
            f"did not reach pc=0x{until_pc:08x} within "
            f"{max_instructions} instructions")
