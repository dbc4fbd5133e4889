"""LEON2 pipeline timing model.

The LEON2 integer unit is a 5-stage single-issue pipeline (FE, DE, EX, ME,
WR).  Rather than simulating the stages signal-by-signal, the Liquid
Architecture model charges each instruction its documented issue cost on a
cache hit (LEON2 user's manual, "instruction timing" table) and lets the
memory hierarchy report additional stall cycles for misses.  This is the
same quantity the paper's hardware cycle counter measures.

The table is parameterised by the multiplier/divider configuration, which
is part of the Liquid configuration space ("modifiable pipeline depth" and
"specialized hardware to accelerate frequently used instructions" are the
paper's own examples of tunable dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.decode import DecodedInstruction
from repro.cpu.isa import (
    OP_BRANCH_SETHI,
    OP_CALL,
    OP_MEM,
    OP2_BICC,
    Op3,
    Op3Mem,
)


@dataclass(frozen=True)
class TimingConfig:
    """Per-operation issue costs (cycles, assuming cache hits).

    ``mul_cycles`` defaults to the LEON2 iterative (small-area) multiplier;
    a Liquid image with the pipelined 16x16 multiplier uses 4 (it shows up
    as a distinct point in the configuration space and in the synthesis
    area model).  ``load_use_interlock`` charges the 1-cycle bubble when a
    load result is consumed by the immediately following instruction.
    """

    alu_cycles: int = 1
    load_cycles: int = 2
    load_double_cycles: int = 3
    store_cycles: int = 3
    store_double_cycles: int = 4
    atomic_cycles: int = 3
    swap_cycles: int = 3
    branch_cycles: int = 1
    annulled_slot_cycles: int = 1
    # Extra bubbles on a *taken* control transfer beyond the delay slot.
    # The 5-stage LEON2 resolves branches early enough that the single
    # delay slot hides the redirect (0); a deeper pipeline resolves later
    # and pays bubbles; a 3-stage pipeline also pays 0.
    taken_cti_penalty: int = 0
    call_cycles: int = 1
    jmpl_cycles: int = 2
    rett_cycles: int = 2
    mul_cycles: int = 5
    div_cycles: int = 35
    wrpsr_cycles: int = 2
    trap_entry_cycles: int = 4
    custom_op_cycles: int = 1
    load_use_interlock: bool = True


_LOADS = frozenset({
    Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB, Op3Mem.LDSH,
    Op3Mem.LDA, Op3Mem.LDUBA, Op3Mem.LDUHA, Op3Mem.LDSBA, Op3Mem.LDSHA,
})
_LOADS_D = frozenset({Op3Mem.LDD, Op3Mem.LDDA})
_STORES = frozenset({
    Op3Mem.ST, Op3Mem.STB, Op3Mem.STH,
    Op3Mem.STA, Op3Mem.STBA, Op3Mem.STHA,
})
_STORES_D = frozenset({Op3Mem.STD, Op3Mem.STDA})
_STORES_ANY = _STORES | _STORES_D
_MULS = frozenset({Op3.UMUL, Op3.UMULCC, Op3.SMUL, Op3.SMULCC})
_DIVS = frozenset({Op3.UDIV, Op3.UDIVCC, Op3.SDIV, Op3.SDIVCC})


class PipelineModel:
    """Cycle accountant for the 5-stage LEON2 integer pipeline.

    Everything the model needs from an instruction is a function of its
    word and :attr:`timing`, so it is derived once per word into a plan
    ``(base issue cycles, nonzero registers the load-use interlock
    checks, load destination register or None)``.  The plan table is
    per model (plans depend on the timing, which is fixed for the
    model's lifetime) and, like :class:`~repro.cpu.decode.DecodeCache`,
    is cleared wholesale when it reaches :attr:`PLAN_CAPACITY` words.
    """

    PLAN_CAPACITY = 65536

    def __init__(self, timing: TimingConfig | None = None):
        self.timing = timing or TimingConfig()
        self._last_load_rd: int | None = None
        #: Load-use bubbles charged (the repro.obs pipeline-stall series).
        self.interlock_stalls = 0
        self._plans: dict[int, tuple[int, frozenset[int], int | None]] = {}

    def reset(self) -> None:
        self._last_load_rd = None

    def issue_cycles(self, inst: DecodedInstruction) -> int:
        """Cycles to issue *inst* assuming all memory accesses hit.

        Also tracks the load-use interlock: if the previous instruction
        was a load and this instruction sources its destination register,
        one bubble cycle is charged (LEON2 has no load-forward path to EX).
        """
        plan = self._plans.get(inst.word)
        if plan is None:
            plan = self._plan(inst)
        cycles, sources, load_rd = plan
        if self._last_load_rd in sources:
            cycles += 1
            self.interlock_stalls += 1
        self._last_load_rd = load_rd
        return cycles

    def plan(self, inst: DecodedInstruction
             ) -> tuple[int, frozenset[int], int | None]:
        """The issue plan of *inst* (see the class docstring)."""
        plan = self._plans.get(inst.word)
        return plan if plan is not None else self._plan(inst)

    def _plan(self, inst: DecodedInstruction
              ) -> tuple[int, frozenset[int], int | None]:
        if len(self._plans) >= self.PLAN_CAPACITY:
            self._plans.clear()
        sources: frozenset[int] = frozenset()
        if self.timing.load_use_interlock:
            sources = frozenset(
                reg for reg in range(1, 32)
                if self._reads_register(inst, reg))
        load_rd = None
        if inst.op == OP_MEM:
            if inst.op3 in _LOADS:
                load_rd = inst.rd
            elif inst.op3 in _LOADS_D:
                load_rd = inst.rd + 1
        plan = (self._base_cycles(inst), sources, load_rd)
        self._plans[inst.word] = plan
        return plan

    def _base_cycles(self, inst: DecodedInstruction) -> int:
        t = self.timing
        op = inst.op
        if op == OP_CALL:
            return t.call_cycles
        if op == OP_BRANCH_SETHI:
            if inst.op2 == OP2_BICC:
                return t.branch_cycles
            return t.alu_cycles  # SETHI / UNIMP issue like ALU ops
        if op == OP_MEM:
            op3 = inst.op3
            if op3 in _LOADS:
                return t.load_cycles
            if op3 in _LOADS_D:
                return t.load_double_cycles
            if op3 in _STORES:
                return t.store_cycles
            if op3 in _STORES_D:
                return t.store_double_cycles
            if op3 in (Op3Mem.LDSTUB, Op3Mem.LDSTUBA):
                return t.atomic_cycles
            if op3 in (Op3Mem.SWAP, Op3Mem.SWAPA):
                return t.swap_cycles
            return t.alu_cycles
        # op == OP_ARITH
        op3 = inst.op3
        if op3 == Op3.JMPL:
            return t.jmpl_cycles
        if op3 == Op3.RETT:
            return t.rett_cycles
        if op3 in _MULS:
            return t.mul_cycles
        if op3 in _DIVS:
            return t.div_cycles
        if op3 in (Op3.WRPSR, Op3.WRWIM, Op3.WRTBR):
            return t.wrpsr_cycles
        if op3 in (Op3.CPOP1, Op3.CPOP2):
            return t.custom_op_cycles
        return t.alu_cycles

    @staticmethod
    def _reads_register(inst: DecodedInstruction, reg: int) -> bool:
        """Conservative source-register check for the load-use interlock."""
        if inst.op == OP_CALL:
            return False
        if inst.op == OP_BRANCH_SETHI:
            return False
        if inst.rs1 == reg:
            return True
        if not inst.imm and inst.rs2 == reg:
            return True
        # Stores read rd as data.
        if inst.op == OP_MEM and inst.op3 in _STORES_ANY and inst.rd == reg:
            return True
        return False
