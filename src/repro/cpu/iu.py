"""The LEON2-style integer unit: fetch/decode/execute with cycle accounting.

This is the simulator core the Liquid Architecture paper runs programs on.
It binds together the windowed register file, the control registers, the
pipeline timing model and two memory ports (instruction and data — in the
full platform these are the I-cache and D-cache controllers feeding the
AMBA AHB, exactly as in the paper's Figure 3).

The unit executes one instruction per :meth:`step` and returns the number
of clock cycles that instruction consumed, including memory stalls — the
same quantity the FPX's hardware cycle-counting state machine reports in
the paper's evaluation (Figure 8).
"""

from __future__ import annotations

from typing import Callable

from repro.cpu import isa, traps
from repro.cpu.decode import DecodeCache, DecodedInstruction
from repro.cpu.execute import ARITH_HANDLERS, MEM_HANDLERS, evaluate_cond
from repro.cpu.pipeline import PipelineModel, TimingConfig
from repro.cpu.registers import ControlRegisters, RegisterFile
from repro.mem.interface import BusError, MemoryPort
from repro.utils import sign_extend, u32

#: Interrupt trap types are 0x10 + level (SPARC V8 table 7-1).
INTERRUPT_TRAP_BASE = 0x10


class IntegerUnit:
    """SPARC V8 integer unit with LEON2 timing.

    Parameters
    ----------
    iport, dport:
        Instruction and data :class:`~repro.mem.interface.MemoryPort`\\ s.
        A single port may be shared (von-Neumann test setups).
    nwindows:
        Register-window count (a Liquid configuration dimension).
    timing:
        Pipeline cost table; ``None`` selects the stock LEON2 numbers.
    reset_pc:
        Where execution begins after :meth:`reset` (the boot PROM).
    """

    def __init__(
        self,
        iport: MemoryPort,
        dport: MemoryPort,
        nwindows: int = isa.DEFAULT_NWINDOWS,
        timing: TimingConfig | None = None,
        reset_pc: int = 0x0000_0000,
    ):
        self.regs = RegisterFile(nwindows)
        self.ctrl = ControlRegisters(nwindows)
        self.pipeline = PipelineModel(timing)
        self.iport = iport
        self.dport = dport
        self.reset_pc = reset_pc
        self.decode_cache = DecodeCache()

        self.pc = 0
        self.npc = 0
        self.annul = False
        self.halted = False
        self.error_tt: int | None = None

        self.cycles = 0
        self.instret = 0
        self.trap_count = 0

        # Stall/flush accounting (collected by repro.obs into the
        # pipeline.* series).  Native ints so the hot loop pays one
        # integer add, not an instrument call.
        self.fetch_stall_cycles = 0   # I-side wait cycles (FE stalls)
        self.mem_stall_cycles = 0     # D-side wait cycles (ME stalls)
        self.annulled_slots = 0       # fetched-but-annulled delay slots
        self.taken_ctis = 0           # taken control transfers
        self.cti_penalty_cycles = 0   # redirect bubbles beyond the slot
        self.pipeline_flushes = 0     # trap entries that drained the pipe

        # Liquid Architecture custom-instruction extension points (CPop1
        # opf -> handler).  Populated by repro.core.rewriter / examples.
        self.extensions: dict[int, Callable[[IntegerUnit, DecodedInstruction], None]] = {}
        # Ancillary state registers (ASR 16..31 are impl-defined).
        self.asr: dict[int, int] = {}

        # Hooks for the platform (leon_ctrl bus snooping, tracing).
        self.on_fetch: Callable[[int], None] | None = None
        # Trap hook: (cycle, tt, pc) as the trap is taken.
        self.on_trap: Callable[[int, int, int], None] | None = None
        # Instruction-trace hook: (pc, DecodedInstruction) after retire.
        self.on_retire: Callable[[int, DecodedInstruction], None] | None = None
        # Interrupt source: callable returning pending level 0..15.
        self.interrupt_source: Callable[[], int] | None = None

        self._transfer_target: int | None = None
        self._mem_extra = 0
        self.reset()

    # ------------------------------------------------------------------
    # Reset / control
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Power-on reset: supervisor mode, traps disabled, PC at the PROM."""
        nwin = self.regs.nwindows
        self.regs = RegisterFile(nwin)
        self.ctrl = ControlRegisters(nwin)
        self.pipeline.reset()
        self.pc = self.reset_pc
        self.npc = u32(self.reset_pc + 4)
        self.annul = False
        self.halted = False
        self.error_tt = None
        self.cycles = 0
        self.instret = 0
        self.trap_count = 0
        self.fetch_stall_cycles = 0
        self.mem_stall_cycles = 0
        self.annulled_slots = 0
        self.taken_ctis = 0
        self.cti_penalty_cycles = 0
        self.pipeline_flushes = 0
        self.pipeline.interlock_stalls = 0
        self._transfer_target = None
        self._mem_extra = 0

    # ------------------------------------------------------------------
    # Memory access helpers used by the executor
    # ------------------------------------------------------------------

    def data_read(self, address: int, size: int, *, signed: bool) -> int:
        try:
            value, extra = self.dport.read(u32(address), size)
        except BusError as exc:
            raise traps.data_access_exception(exc.address) from exc
        self._mem_extra += extra
        if signed:
            value = u32(sign_extend(value, size * 8))
        return value

    def data_write(self, address: int, size: int, value: int) -> None:
        try:
            extra = self.dport.write(u32(address), size, u32(value))
        except BusError as exc:
            raise traps.data_access_exception(exc.address) from exc
        self._mem_extra += extra

    def flush_icache(self) -> None:
        flush = getattr(self.iport, "flush", None)
        if flush is not None:
            self._mem_extra += flush() or 0

    def flush_dcache(self) -> None:
        flush = getattr(self.dport, "flush", None)
        if flush is not None:
            self._mem_extra += flush() or 0

    def read_asr(self, number: int) -> int:
        if number == 17:
            # LEON configuration register: NWINDOWS-1 in bits 4:0.
            return (self.regs.nwindows - 1) & 0x1F
        if number in self.asr:
            return self.asr[number]
        raise traps.illegal_instruction(f"RDASR %asr{number}")

    def write_asr(self, number: int, value: int) -> None:
        if 16 <= number <= 31:
            self.asr[number] = u32(value)
        else:
            raise traps.illegal_instruction(f"WRASR %asr{number}")

    # ------------------------------------------------------------------
    # Control transfer (called from the executor)
    # ------------------------------------------------------------------

    def transfer(self, target: int) -> None:
        """Schedule a delayed control transfer to *target* (after the
        delay-slot instruction at the current nPC executes)."""
        self._transfer_target = u32(target)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction (or annul one delay slot).

        Returns the cycles consumed; updates :attr:`cycles`/:attr:`instret`.
        Raises :class:`~repro.cpu.traps.ErrorMode` if a trap occurs while
        ET=0 (the processor halts, as on hardware).
        """
        if self.halted:
            raise traps.ErrorMode(self.error_tt or 0, self.pc)

        # Interrupt check happens between instructions.
        if self.interrupt_source is not None and self.ctrl.et:
            level = self.interrupt_source()
            if level and (level == 15 or level > self.ctrl.pil):
                cycles = self._enter_trap(
                    traps.TrapException(INTERRUPT_TRAP_BASE + level, "interrupt"))
                self.cycles += cycles
                return cycles

        pc = self.pc
        if self.on_fetch is not None:
            self.on_fetch(pc)

        try:
            word, fetch_extra = self.iport.read(pc, 4)
        except BusError:
            cycles = self._enter_trap(traps.instruction_access_exception(pc))
            self.cycles += cycles
            return cycles

        if self.annul:
            # The annulled delay slot is fetched but not executed.
            self.annul = False
            self.pc = self.npc
            self.npc = u32(self.npc + 4)
            cycles = fetch_extra + self.pipeline.timing.annulled_slot_cycles
            self.fetch_stall_cycles += fetch_extra
            self.annulled_slots += 1
            self.cycles += cycles
            return cycles

        inst = self.decode_cache.lookup(word)
        self._transfer_target = None
        self._mem_extra = 0

        try:
            self._dispatch(inst)
        except traps.TrapException as trap:
            cycles = fetch_extra + self._enter_trap(trap)
            self.fetch_stall_cycles += fetch_extra
            self.cycles += cycles
            return cycles

        taken_cti = self._transfer_target is not None
        if taken_cti:
            self.pc, self.npc = self.npc, self._transfer_target
        else:
            self.pc, self.npc = self.npc, u32(self.npc + 4)

        cycles = fetch_extra + self.pipeline.issue_cycles(inst) + self._mem_extra
        if taken_cti:
            cycles += self.pipeline.timing.taken_cti_penalty
            self.taken_ctis += 1
            self.cti_penalty_cycles += self.pipeline.timing.taken_cti_penalty
        self.fetch_stall_cycles += fetch_extra
        self.mem_stall_cycles += self._mem_extra
        self.cycles += cycles
        self.instret += 1
        if self.on_retire is not None:
            self.on_retire(pc, inst)
        return cycles

    def run(self, max_instructions: int = 10_000_000,
            until_pc: int | None = None) -> int:
        """Step until *until_pc* is about to execute (or the budget runs
        out, raising :class:`~repro.cpu.traps.WatchdogExpired`).

        Returns total cycles consumed by this call.
        """
        start_cycles = self.cycles
        for _ in range(max_instructions):
            if until_pc is not None and self.pc == until_pc:
                return self.cycles - start_cycles
            self.step()
        if until_pc is None:
            return self.cycles - start_cycles
        raise traps.WatchdogExpired(
            f"did not reach pc=0x{until_pc:08x} within {max_instructions} instructions")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, inst: DecodedInstruction) -> None:
        op = inst.op
        if op == isa.OP_ARITH:
            handler = ARITH_HANDLERS.get(inst.op3)
            if handler is None:
                raise traps.illegal_instruction(f"op3=0x{inst.op3:02x}")
            handler(self, inst)
        elif op == isa.OP_MEM:
            handler = MEM_HANDLERS.get(inst.op3)
            if handler is None:
                raise traps.illegal_instruction(f"mem op3=0x{inst.op3:02x}")
            handler(self, inst)
        elif op == isa.OP_CALL:
            self.regs.write(15, self.pc)
            self.transfer(self.pc + (inst.disp30 << 2))
        else:  # OP_BRANCH_SETHI
            op2 = inst.op2
            if op2 == isa.OP2_SETHI:
                self.regs.write(inst.rd, u32(inst.imm22 << 10))
            elif op2 == isa.OP2_BICC:
                self._branch(inst)
            elif op2 == isa.OP2_FBFCC:
                raise traps.fp_disabled()
            elif op2 == isa.OP2_CBCCC:
                raise traps.cp_disabled()
            else:  # UNIMP and reserved op2 values
                raise traps.illegal_instruction(f"op2={op2}")

    def _branch(self, inst: DecodedInstruction) -> None:
        n, z, v, c = self.ctrl.icc
        taken = evaluate_cond(inst.cond, n, z, v, c)
        if taken:
            self.transfer(self.pc + (inst.disp22 << 2))
            # "branch always" with the annul bit set annuls its delay slot.
            if inst.annul and inst.cond == isa.Cond.A:
                self.annul = True
        else:
            if inst.annul:
                self.annul = True

    # ------------------------------------------------------------------
    # Traps
    # ------------------------------------------------------------------

    def _enter_trap(self, trap: traps.TrapException) -> int:
        ctrl = self.ctrl
        if not ctrl.et:
            self.halted = True
            self.error_tt = trap.tt
            raise traps.ErrorMode(trap.tt, self.pc)
        self.trap_count += 1
        self.pipeline_flushes += 1
        if self.on_trap is not None:
            self.on_trap(self.cycles, trap.tt, self.pc)
        ctrl.et = False
        ctrl.ps = ctrl.s
        ctrl.s = True
        new_cwp = (ctrl.cwp - 1) % self.regs.nwindows
        ctrl.cwp = new_cwp
        self.regs.cwp = new_cwp
        # %l1 / %l2 of the new window receive PC / nPC.
        self.regs.write(17, self.pc)
        self.regs.write(18, self.npc)
        ctrl.tt = trap.tt
        vector = u32(ctrl.tba | (trap.tt << 4))
        self.pc = vector
        self.npc = u32(vector + 4)
        self.annul = False
        self.pipeline.reset()
        return self.pipeline.timing.trap_entry_cycles

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_summary(self) -> dict:
        """Debug snapshot used by tests and the control-software console."""
        return {
            "pc": self.pc,
            "npc": self.npc,
            "psr": self.ctrl.psr,
            "cwp": self.ctrl.cwp,
            "wim": self.ctrl.wim,
            "y": self.ctrl.y,
            "cycles": self.cycles,
            "instret": self.instret,
            "halted": self.halted,
            "regs": self.regs.snapshot(),
        }


__all__ = ["IntegerUnit", "INTERRUPT_TRAP_BASE"]
