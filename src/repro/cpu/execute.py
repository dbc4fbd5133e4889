"""SPARC V8 instruction semantics.

Each handler takes the integer unit (which owns registers, control state
and the memory ports) and a decoded instruction, mutates architectural
state, and returns nothing; control-flow handlers additionally set the
IU's ``(pc, npc)`` successor pair via :meth:`IntegerUnit.transfer`.

The dispatch tables at the bottom (``ARITH_HANDLERS``/``MEM_HANDLERS``)
are indexed by ``op3`` and consulted by :mod:`repro.cpu.iu` — a flat table
lookup keeps the interpreter's inner loop cheap, per the profiling-first
guidance this project follows.

Handlers raise :class:`repro.cpu.traps.TrapException` for architectural
traps; the step loop performs trap entry.  State mutated *before* a trap
is raised must be architecturally safe: every handler validates (alignment,
privilege, WIM) before writing results, which the property-based tests in
``tests/cpu/test_execute_properties.py`` exercise.
"""

from __future__ import annotations

from repro.cpu import isa, traps
from repro.cpu.decode import DecodedInstruction
from repro.cpu.isa import Cond, Op3, Op3Mem
from repro.utils import s32, u32

# ---------------------------------------------------------------------------
# Condition-code evaluation
# ---------------------------------------------------------------------------


def evaluate_cond(cond: int, n: int, z: int, v: int, c: int) -> bool:
    """Evaluate an integer condition code against the icc bits."""
    if cond == Cond.A:
        return True
    if cond == Cond.N:
        return False
    if cond == Cond.NE:
        return not z
    if cond == Cond.E:
        return bool(z)
    if cond == Cond.G:
        return not (z or (n ^ v))
    if cond == Cond.LE:
        return bool(z or (n ^ v))
    if cond == Cond.GE:
        return not (n ^ v)
    if cond == Cond.L:
        return bool(n ^ v)
    if cond == Cond.GU:
        return not (c or z)
    if cond == Cond.LEU:
        return bool(c or z)
    if cond == Cond.CC:
        return not c
    if cond == Cond.CS:
        return bool(c)
    if cond == Cond.POS:
        return not n
    if cond == Cond.NEG:
        return bool(n)
    if cond == Cond.VC:
        return not v
    if cond == Cond.VS:
        return bool(v)
    raise traps.illegal_instruction(f"bad cond {cond}")


# ---------------------------------------------------------------------------
# Operand helpers
# ---------------------------------------------------------------------------


def operand2(iu, inst: DecodedInstruction) -> int:
    """Second ALU operand: simm13 when the i-bit is set, else r[rs2]."""
    return u32(inst.simm13) if inst.imm else iu.regs.read(inst.rs2)


# ---------------------------------------------------------------------------
# Arithmetic / logical
# ---------------------------------------------------------------------------


def _add(iu, inst, *, cc: bool, carry_in: bool, tagged: bool = False,
         trap_v: bool = False) -> None:
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    cin = iu.ctrl.icc[3] if carry_in else 0
    total = a + b + cin
    result = u32(total)
    v = ((~(a ^ b) & (a ^ result)) >> 31) & 1
    if tagged and ((a | b) & 3):
        v = 1
    if trap_v and v:
        raise traps.tag_overflow()
    iu.regs.write(inst.rd, result)
    if cc:
        iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, v,
                        1 if total > 0xFFFF_FFFF else 0)


def _sub(iu, inst, *, cc: bool, carry_in: bool, tagged: bool = False,
         trap_v: bool = False, write_rd: bool = True) -> None:
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    cin = iu.ctrl.icc[3] if carry_in else 0
    total = a - b - cin
    result = u32(total)
    v = (((a ^ b) & (a ^ result)) >> 31) & 1
    if tagged and ((a | b) & 3):
        v = 1
    if trap_v and v:
        raise traps.tag_overflow()
    if write_rd:
        iu.regs.write(inst.rd, result)
    if cc:
        iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, v,
                        1 if total < 0 else 0)


def _logic(iu, inst, fn, *, cc: bool) -> None:
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    result = u32(fn(a, b))
    iu.regs.write(inst.rd, result)
    if cc:
        iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, 0, 0)


def exec_add(iu, inst):
    _add(iu, inst, cc=False, carry_in=False)


def exec_addcc(iu, inst):
    _add(iu, inst, cc=True, carry_in=False)


def exec_addx(iu, inst):
    _add(iu, inst, cc=False, carry_in=True)


def exec_addxcc(iu, inst):
    _add(iu, inst, cc=True, carry_in=True)


def exec_taddcc(iu, inst):
    _add(iu, inst, cc=True, carry_in=False, tagged=True)


def exec_taddcctv(iu, inst):
    _add(iu, inst, cc=True, carry_in=False, tagged=True, trap_v=True)


def exec_sub(iu, inst):
    _sub(iu, inst, cc=False, carry_in=False)


def exec_subcc(iu, inst):
    _sub(iu, inst, cc=True, carry_in=False)


def exec_subx(iu, inst):
    _sub(iu, inst, cc=False, carry_in=True)


def exec_subxcc(iu, inst):
    _sub(iu, inst, cc=True, carry_in=True)


def exec_tsubcc(iu, inst):
    _sub(iu, inst, cc=True, carry_in=False, tagged=True)


def exec_tsubcctv(iu, inst):
    _sub(iu, inst, cc=True, carry_in=False, tagged=True, trap_v=True)


def exec_and(iu, inst):
    _logic(iu, inst, lambda a, b: a & b, cc=False)


def exec_andcc(iu, inst):
    _logic(iu, inst, lambda a, b: a & b, cc=True)


def exec_andn(iu, inst):
    _logic(iu, inst, lambda a, b: a & ~b, cc=False)


def exec_andncc(iu, inst):
    _logic(iu, inst, lambda a, b: a & ~b, cc=True)


def exec_or(iu, inst):
    _logic(iu, inst, lambda a, b: a | b, cc=False)


def exec_orcc(iu, inst):
    _logic(iu, inst, lambda a, b: a | b, cc=True)


def exec_orn(iu, inst):
    _logic(iu, inst, lambda a, b: a | ~b, cc=False)


def exec_orncc(iu, inst):
    _logic(iu, inst, lambda a, b: a | ~b, cc=True)


def exec_xor(iu, inst):
    _logic(iu, inst, lambda a, b: a ^ b, cc=False)


def exec_xorcc(iu, inst):
    _logic(iu, inst, lambda a, b: a ^ b, cc=True)


def exec_xnor(iu, inst):
    _logic(iu, inst, lambda a, b: a ^ ~b, cc=False)


def exec_xnorcc(iu, inst):
    _logic(iu, inst, lambda a, b: a ^ ~b, cc=True)


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------


def exec_sll(iu, inst):
    count = operand2(iu, inst) & 0x1F
    iu.regs.write(inst.rd, u32(iu.regs.read(inst.rs1) << count))


def exec_srl(iu, inst):
    count = operand2(iu, inst) & 0x1F
    iu.regs.write(inst.rd, iu.regs.read(inst.rs1) >> count)


def exec_sra(iu, inst):
    count = operand2(iu, inst) & 0x1F
    iu.regs.write(inst.rd, u32(s32(iu.regs.read(inst.rs1)) >> count))


# ---------------------------------------------------------------------------
# Multiply / divide (SPARC V8 optional instructions — present in LEON2)
# ---------------------------------------------------------------------------


def _mul(iu, inst, *, signed: bool, cc: bool) -> None:
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    if signed:
        product = s32(a) * s32(b)
    else:
        product = a * b
    product &= 0xFFFF_FFFF_FFFF_FFFF
    iu.ctrl.y = (product >> 32) & 0xFFFF_FFFF
    result = u32(product)
    iu.regs.write(inst.rd, result)
    if cc:
        iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, 0, 0)


def exec_umul(iu, inst):
    _mul(iu, inst, signed=False, cc=False)


def exec_umulcc(iu, inst):
    _mul(iu, inst, signed=False, cc=True)


def exec_smul(iu, inst):
    _mul(iu, inst, signed=True, cc=False)


def exec_smulcc(iu, inst):
    _mul(iu, inst, signed=True, cc=True)


def _div(iu, inst, *, signed: bool, cc: bool) -> None:
    divisor = operand2(iu, inst)
    if divisor == 0:
        raise traps.division_by_zero()
    dividend = (iu.ctrl.y << 32) | iu.regs.read(inst.rs1)
    overflow = 0
    if signed:
        if dividend & (1 << 63):
            dividend -= 1 << 64
        sdiv = s32(divisor)
        quotient = int(dividend / sdiv)  # SPARC divides toward zero
        if quotient > 0x7FFF_FFFF:
            quotient, overflow = 0x7FFF_FFFF, 1
        elif quotient < -0x8000_0000:
            quotient, overflow = -0x8000_0000, 1
    else:
        quotient = dividend // divisor
        if quotient > 0xFFFF_FFFF:
            quotient, overflow = 0xFFFF_FFFF, 1
    result = u32(quotient)
    iu.regs.write(inst.rd, result)
    if cc:
        iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, overflow, 0)


def exec_udiv(iu, inst):
    _div(iu, inst, signed=False, cc=False)


def exec_udivcc(iu, inst):
    _div(iu, inst, signed=False, cc=True)


def exec_sdiv(iu, inst):
    _div(iu, inst, signed=True, cc=False)


def exec_sdivcc(iu, inst):
    _div(iu, inst, signed=True, cc=True)


def exec_mulscc(iu, inst):
    """Multiply-step: one iteration of the original SPARC mul support."""
    n, z, v, c = iu.ctrl.icc
    rs1 = iu.regs.read(inst.rs1)
    op1 = ((n ^ v) << 31) | (rs1 >> 1)
    op2 = operand2(iu, inst) if (iu.ctrl.y & 1) else 0
    total = op1 + op2
    result = u32(total)
    iu.ctrl.y = ((rs1 & 1) << 31) | (iu.ctrl.y >> 1)
    vbit = ((~(op1 ^ op2) & (op1 ^ result)) >> 31) & 1
    iu.regs.write(inst.rd, result)
    iu.ctrl.set_icc((result >> 31) & 1, 1 if result == 0 else 0, vbit,
                    1 if total > 0xFFFF_FFFF else 0)


# ---------------------------------------------------------------------------
# SAVE / RESTORE
# ---------------------------------------------------------------------------


def exec_save(iu, inst):
    ctrl = iu.ctrl
    new_cwp = (ctrl.cwp - 1) % iu.regs.nwindows
    if (ctrl.wim >> new_cwp) & 1:
        raise traps.window_overflow()
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    result = u32(a + b)
    ctrl.cwp = new_cwp
    iu.regs.cwp = new_cwp
    iu.regs.write(inst.rd, result)


def exec_restore(iu, inst):
    ctrl = iu.ctrl
    new_cwp = (ctrl.cwp + 1) % iu.regs.nwindows
    if (ctrl.wim >> new_cwp) & 1:
        raise traps.window_underflow()
    a = iu.regs.read(inst.rs1)
    b = operand2(iu, inst)
    result = u32(a + b)
    ctrl.cwp = new_cwp
    iu.regs.cwp = new_cwp
    iu.regs.write(inst.rd, result)


# ---------------------------------------------------------------------------
# Control transfer
# ---------------------------------------------------------------------------


def exec_jmpl(iu, inst):
    target = u32(iu.regs.read(inst.rs1) + (inst.simm13 if inst.imm
                                           else iu.regs.read(inst.rs2)))
    if target & 3:
        raise traps.mem_address_not_aligned(target)
    iu.regs.write(inst.rd, iu.pc)
    iu.transfer(target)


def exec_rett(iu, inst):
    ctrl = iu.ctrl
    if ctrl.et:
        # RETT with traps enabled is an illegal-instruction trap.
        raise traps.illegal_instruction("RETT with ET=1")
    if not ctrl.s:
        raise traps.privileged_instruction("RETT in user mode")
    target = u32(iu.regs.read(inst.rs1) + (inst.simm13 if inst.imm
                                           else iu.regs.read(inst.rs2)))
    if target & 3:
        raise traps.mem_address_not_aligned(target)
    new_cwp = (ctrl.cwp + 1) % iu.regs.nwindows
    if (ctrl.wim >> new_cwp) & 1:
        raise traps.window_underflow()
    ctrl.cwp = new_cwp
    iu.regs.cwp = new_cwp
    ctrl.et = True
    ctrl.s = ctrl.ps
    iu.transfer(target)


def exec_ticc(iu, inst):
    n, z, v, c = iu.ctrl.icc
    if evaluate_cond(inst.cond, n, z, v, c):
        number = u32(iu.regs.read(inst.rs1) +
                     (inst.simm13 if inst.imm else iu.regs.read(inst.rs2)))
        raise traps.software_trap(number)


# ---------------------------------------------------------------------------
# State-register access
# ---------------------------------------------------------------------------


def exec_rdasr(iu, inst):
    if inst.rs1 == 0:  # RDY
        iu.regs.write(inst.rd, iu.ctrl.y)
    elif inst.rs1 == 15 and inst.rd == 0:
        pass  # STBAR: store barrier — a no-op in this memory model
    else:
        value = iu.read_asr(inst.rs1)
        iu.regs.write(inst.rd, value)


def exec_rdpsr(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("RDPSR")
    iu.regs.write(inst.rd, iu.ctrl.psr)


def exec_rdwim(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("RDWIM")
    iu.regs.write(inst.rd, iu.ctrl.wim & ((1 << iu.regs.nwindows) - 1))


def exec_rdtbr(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("RDTBR")
    iu.regs.write(inst.rd, iu.ctrl.tbr)


def exec_wrasr(iu, inst):
    value = u32(iu.regs.read(inst.rs1) ^ operand2(iu, inst))
    if inst.rd == 0:  # WRY
        iu.ctrl.y = value
    else:
        iu.write_asr(inst.rd, value)


def exec_wrpsr(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("WRPSR")
    value = u32(iu.regs.read(inst.rs1) ^ operand2(iu, inst))
    if (value & 0x1F) >= iu.regs.nwindows:
        raise traps.illegal_instruction("WRPSR CWP out of range")
    iu.ctrl.write_psr(value)
    iu.regs.cwp = iu.ctrl.cwp


def exec_wrwim(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("WRWIM")
    value = u32(iu.regs.read(inst.rs1) ^ operand2(iu, inst))
    iu.ctrl.wim = value & ((1 << iu.regs.nwindows) - 1)


def exec_wrtbr(iu, inst):
    if not iu.ctrl.s:
        raise traps.privileged_instruction("WRTBR")
    value = u32(iu.regs.read(inst.rs1) ^ operand2(iu, inst))
    iu.ctrl.tba = value


def exec_flush(iu, inst):
    """FLUSH: cache coherence point.  LEON2's flush empties both caches
    (the modified boot ROM leans on this to observe mailbox writes made
    while the processor was disconnected from main memory)."""
    iu.flush_icache()
    iu.flush_dcache()


def exec_fpop(iu, inst):
    """LEON2 on the FPX was synthesized without the Meiko FPU: EF=0 so
    every FPop raises fp_disabled (software emulation is the OS's job)."""
    raise traps.fp_disabled()


def exec_cpop1(iu, inst):
    """CPop1 space is reclaimed for Liquid Architecture custom instructions.

    The architecture generator can attach accelerator semantics here (see
    :mod:`repro.core.rewriter`); without a registered extension the LEON
    behaves as shipped and raises cp_disabled.
    """
    handler = iu.extensions.get(inst.opf)
    if handler is None:
        raise traps.cp_disabled()
    handler(iu, inst)


def exec_cpop2(iu, inst):
    raise traps.cp_disabled()


# ---------------------------------------------------------------------------
# Memory operations
# ---------------------------------------------------------------------------


def _effective_address(iu, inst) -> int:
    return u32(iu.regs.read(inst.rs1) +
               (inst.simm13 if inst.imm else iu.regs.read(inst.rs2)))


def _check_alternate(iu, inst) -> None:
    """Alternate-space forms are privileged and never have an i-bit."""
    if inst.imm:
        raise traps.illegal_instruction("alternate-space access with i=1")
    if not iu.ctrl.s:
        raise traps.privileged_instruction("ASI access in user mode")


def _load(iu, inst, size: int, signed: bool) -> None:
    addr = _effective_address(iu, inst)
    if size > 1 and addr % size:
        raise traps.mem_address_not_aligned(addr)
    value = iu.data_read(addr, size, signed=signed)
    iu.regs.write(inst.rd, u32(value))


def exec_ld(iu, inst):
    _load(iu, inst, 4, False)


def exec_ldub(iu, inst):
    _load(iu, inst, 1, False)


def exec_lduh(iu, inst):
    _load(iu, inst, 2, False)


def exec_ldsb(iu, inst):
    _load(iu, inst, 1, True)


def exec_ldsh(iu, inst):
    _load(iu, inst, 2, True)


def exec_ldd(iu, inst):
    if inst.rd & 1:
        raise traps.illegal_instruction("LDD with odd rd")
    addr = _effective_address(iu, inst)
    if addr % 8:
        raise traps.mem_address_not_aligned(addr)
    hi = iu.data_read(addr, 4, signed=False)
    lo = iu.data_read(addr + 4, 4, signed=False)
    iu.regs.write(inst.rd, hi)
    iu.regs.write(inst.rd + 1, lo)


def _store(iu, inst, size: int) -> None:
    addr = _effective_address(iu, inst)
    if size > 1 and addr % size:
        raise traps.mem_address_not_aligned(addr)
    iu.data_write(addr, size, iu.regs.read(inst.rd))


def exec_st(iu, inst):
    _store(iu, inst, 4)


def exec_stb(iu, inst):
    _store(iu, inst, 1)


def exec_sth(iu, inst):
    _store(iu, inst, 2)


def exec_std(iu, inst):
    if inst.rd & 1:
        raise traps.illegal_instruction("STD with odd rd")
    addr = _effective_address(iu, inst)
    if addr % 8:
        raise traps.mem_address_not_aligned(addr)
    iu.data_write(addr, 4, iu.regs.read(inst.rd))
    iu.data_write(addr + 4, 4, iu.regs.read(inst.rd + 1))


def exec_ldstub(iu, inst):
    """Atomic load-store unsigned byte (the SPARC test-and-set)."""
    addr = _effective_address(iu, inst)
    value = iu.data_read(addr, 1, signed=False)
    iu.data_write(addr, 1, 0xFF)
    iu.regs.write(inst.rd, value)


def exec_swap(iu, inst):
    addr = _effective_address(iu, inst)
    if addr % 4:
        raise traps.mem_address_not_aligned(addr)
    old = iu.data_read(addr, 4, signed=False)
    iu.data_write(addr, 4, iu.regs.read(inst.rd))
    iu.regs.write(inst.rd, old)


def _alternate(plain_handler):
    """Wrap a plain memory handler into its privileged ASI twin.

    The LEON model routes the cache-flush ASIs specially; all other ASIs
    fall through to the normal address space (the FPX build had no MMU).
    """

    def handler(iu, inst):
        _check_alternate(iu, inst)
        if inst.asi == isa.ASI_ICACHE_FLUSH:
            iu.flush_icache()
            return
        if inst.asi == isa.ASI_DCACHE_FLUSH:
            iu.flush_dcache()
            return
        plain_handler(iu, inst)

    handler.__name__ = plain_handler.__name__ + "a"
    return handler


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------

ARITH_HANDLERS = {
    Op3.ADD: exec_add, Op3.ADDCC: exec_addcc,
    Op3.ADDX: exec_addx, Op3.ADDXCC: exec_addxcc,
    Op3.TADDCC: exec_taddcc, Op3.TADDCCTV: exec_taddcctv,
    Op3.SUB: exec_sub, Op3.SUBCC: exec_subcc,
    Op3.SUBX: exec_subx, Op3.SUBXCC: exec_subxcc,
    Op3.TSUBCC: exec_tsubcc, Op3.TSUBCCTV: exec_tsubcctv,
    Op3.AND: exec_and, Op3.ANDCC: exec_andcc,
    Op3.ANDN: exec_andn, Op3.ANDNCC: exec_andncc,
    Op3.OR: exec_or, Op3.ORCC: exec_orcc,
    Op3.ORN: exec_orn, Op3.ORNCC: exec_orncc,
    Op3.XOR: exec_xor, Op3.XORCC: exec_xorcc,
    Op3.XNOR: exec_xnor, Op3.XNORCC: exec_xnorcc,
    Op3.SLL: exec_sll, Op3.SRL: exec_srl, Op3.SRA: exec_sra,
    Op3.UMUL: exec_umul, Op3.UMULCC: exec_umulcc,
    Op3.SMUL: exec_smul, Op3.SMULCC: exec_smulcc,
    Op3.UDIV: exec_udiv, Op3.UDIVCC: exec_udivcc,
    Op3.SDIV: exec_sdiv, Op3.SDIVCC: exec_sdivcc,
    Op3.MULSCC: exec_mulscc,
    Op3.SAVE: exec_save, Op3.RESTORE: exec_restore,
    Op3.JMPL: exec_jmpl, Op3.RETT: exec_rett, Op3.TICC: exec_ticc,
    Op3.RDASR: exec_rdasr, Op3.RDPSR: exec_rdpsr,
    Op3.RDWIM: exec_rdwim, Op3.RDTBR: exec_rdtbr,
    Op3.WRASR: exec_wrasr, Op3.WRPSR: exec_wrpsr,
    Op3.WRWIM: exec_wrwim, Op3.WRTBR: exec_wrtbr,
    Op3.FLUSH: exec_flush,
    Op3.FPOP1: exec_fpop, Op3.FPOP2: exec_fpop,
    Op3.CPOP1: exec_cpop1, Op3.CPOP2: exec_cpop2,
}

MEM_HANDLERS = {
    Op3Mem.LD: exec_ld, Op3Mem.LDUB: exec_ldub, Op3Mem.LDUH: exec_lduh,
    Op3Mem.LDD: exec_ldd, Op3Mem.LDSB: exec_ldsb, Op3Mem.LDSH: exec_ldsh,
    Op3Mem.ST: exec_st, Op3Mem.STB: exec_stb, Op3Mem.STH: exec_sth,
    Op3Mem.STD: exec_std, Op3Mem.LDSTUB: exec_ldstub, Op3Mem.SWAP: exec_swap,
    Op3Mem.LDA: _alternate(exec_ld), Op3Mem.LDUBA: _alternate(exec_ldub),
    Op3Mem.LDUHA: _alternate(exec_lduh), Op3Mem.LDDA: _alternate(exec_ldd),
    Op3Mem.LDSBA: _alternate(exec_ldsb), Op3Mem.LDSHA: _alternate(exec_ldsh),
    Op3Mem.STA: _alternate(exec_st), Op3Mem.STBA: _alternate(exec_stb),
    Op3Mem.STHA: _alternate(exec_sth), Op3Mem.STDA: _alternate(exec_std),
    Op3Mem.LDSTUBA: _alternate(exec_ldstub), Op3Mem.SWAPA: _alternate(exec_swap),
}
