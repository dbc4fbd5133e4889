"""SPARC V8 instruction-set constants.

Encodings follow *The SPARC Architecture Manual, Version 8* and match what
the LEON2 integer unit implements.  The tables here are shared by the
decoder (:mod:`repro.cpu.decode`), the executor (:mod:`repro.cpu.execute`),
the assembler (:mod:`repro.toolchain.asm`) and the disassembler.
"""

from __future__ import annotations

from enum import IntEnum

# ---------------------------------------------------------------------------
# Top-level instruction formats (bits 31:30).
# ---------------------------------------------------------------------------

OP_BRANCH_SETHI = 0  # format 2: Bicc / SETHI / FBfcc / CBccc / UNIMP
OP_CALL = 1          # format 1: CALL
OP_ARITH = 2         # format 3: arithmetic / logical / control
OP_MEM = 3           # format 3: loads / stores

# op2 values within format 2.
OP2_UNIMP = 0
OP2_BICC = 2
OP2_SETHI = 4
OP2_FBFCC = 6
OP2_CBCCC = 7


class Op3(IntEnum):
    """``op3`` values for format-3 (``op = 2``) instructions."""

    ADD = 0x00
    AND = 0x01
    OR = 0x02
    XOR = 0x03
    SUB = 0x04
    ANDN = 0x05
    ORN = 0x06
    XNOR = 0x07
    ADDX = 0x08
    UMUL = 0x0A
    SMUL = 0x0B
    SUBX = 0x0C
    UDIV = 0x0E
    SDIV = 0x0F
    ADDCC = 0x10
    ANDCC = 0x11
    ORCC = 0x12
    XORCC = 0x13
    SUBCC = 0x14
    ANDNCC = 0x15
    ORNCC = 0x16
    XNORCC = 0x17
    ADDXCC = 0x18
    UMULCC = 0x1A
    SMULCC = 0x1B
    SUBXCC = 0x1C
    UDIVCC = 0x1E
    SDIVCC = 0x1F
    TADDCC = 0x20
    TSUBCC = 0x21
    TADDCCTV = 0x22
    TSUBCCTV = 0x23
    MULSCC = 0x24
    SLL = 0x25
    SRL = 0x26
    SRA = 0x27
    RDASR = 0x28  # also RDY when rs1 == 0
    RDPSR = 0x29
    RDWIM = 0x2A
    RDTBR = 0x2B
    WRASR = 0x30  # also WRY when rd == 0
    WRPSR = 0x31
    WRWIM = 0x32
    WRTBR = 0x33
    FPOP1 = 0x34
    FPOP2 = 0x35
    CPOP1 = 0x36  # reclaimed by Liquid Architecture for custom instructions
    CPOP2 = 0x37
    JMPL = 0x38
    RETT = 0x39
    TICC = 0x3A
    FLUSH = 0x3B
    SAVE = 0x3C
    RESTORE = 0x3D


class Op3Mem(IntEnum):
    """``op3`` values for memory (``op = 3``) instructions."""

    LD = 0x00
    LDUB = 0x01
    LDUH = 0x02
    LDD = 0x03
    ST = 0x04
    STB = 0x05
    STH = 0x06
    STD = 0x07
    LDSB = 0x09
    LDSH = 0x0A
    LDSTUB = 0x0D
    SWAP = 0x0F
    LDA = 0x10
    LDUBA = 0x11
    LDUHA = 0x12
    LDDA = 0x13
    STA = 0x14
    STBA = 0x15
    STHA = 0x16
    STDA = 0x17
    LDSBA = 0x19
    LDSHA = 0x1A
    LDSTUBA = 0x1D
    SWAPA = 0x1F


class Cond(IntEnum):
    """Integer condition codes for Bicc / Ticc (SPARC V8 table 5-9)."""

    N = 0x0    # never
    E = 0x1    # equal                     Z
    LE = 0x2   # less or equal             Z or (N xor V)
    L = 0x3    # less                      N xor V
    LEU = 0x4  # less or equal, unsigned   C or Z
    CS = 0x5   # carry set (lu)            C
    NEG = 0x6  # negative                  N
    VS = 0x7   # overflow set              V
    A = 0x8    # always
    NE = 0x9   # not equal                 not Z
    G = 0xA    # greater                   not (Z or (N xor V))
    GE = 0xB   # greater or equal          not (N xor V)
    GU = 0xC   # greater, unsigned         not (C or Z)
    CC = 0xD   # carry clear (geu)         not C
    POS = 0xE  # positive                  not N
    VC = 0xF   # overflow clear            not V


#: Branch mnemonic per condition value, used by disassembler and assembler.
BRANCH_MNEMONICS = {
    Cond.N: "bn", Cond.E: "be", Cond.LE: "ble", Cond.L: "bl",
    Cond.LEU: "bleu", Cond.CS: "bcs", Cond.NEG: "bneg", Cond.VS: "bvs",
    Cond.A: "ba", Cond.NE: "bne", Cond.G: "bg", Cond.GE: "bge",
    Cond.GU: "bgu", Cond.CC: "bcc", Cond.POS: "bpos", Cond.VC: "bvc",
}

TRAP_MNEMONICS = {
    Cond.N: "tn", Cond.E: "te", Cond.LE: "tle", Cond.L: "tl",
    Cond.LEU: "tleu", Cond.CS: "tcs", Cond.NEG: "tneg", Cond.VS: "tvs",
    Cond.A: "ta", Cond.NE: "tne", Cond.G: "tg", Cond.GE: "tge",
    Cond.GU: "tgu", Cond.CC: "tcc", Cond.POS: "tpos", Cond.VC: "tvc",
}


class Trap(IntEnum):
    """Trap types (``tt`` field of TBR) used by the LEON2 model."""

    RESET = 0x00
    INSTRUCTION_ACCESS = 0x01
    ILLEGAL_INSTRUCTION = 0x02
    PRIVILEGED_INSTRUCTION = 0x03
    FP_DISABLED = 0x04
    WINDOW_OVERFLOW = 0x05
    WINDOW_UNDERFLOW = 0x06
    MEM_ADDRESS_NOT_ALIGNED = 0x07
    FP_EXCEPTION = 0x08
    DATA_ACCESS = 0x09
    TAG_OVERFLOW = 0x0A
    CP_DISABLED = 0x24
    DIVISION_BY_ZERO = 0x2A
    TRAP_INSTRUCTION_BASE = 0x80  # + software trap number (Ticc)


# ---------------------------------------------------------------------------
# PSR field layout (SPARC V8 figure 4-4).
# ---------------------------------------------------------------------------

PSR_CWP_SHIFT = 0       # bits 4:0  current window pointer
PSR_ET_SHIFT = 5        # enable traps
PSR_PS_SHIFT = 6        # previous supervisor
PSR_S_SHIFT = 7         # supervisor
PSR_PIL_SHIFT = 8       # bits 11:8 processor interrupt level
PSR_EF_SHIFT = 12       # enable floating point
PSR_EC_SHIFT = 13       # enable coprocessor
PSR_ICC_SHIFT = 20      # bits 23:20 = N Z V C
PSR_VER_SHIFT = 24
PSR_IMPL_SHIFT = 28

ICC_C = 1 << 20
ICC_V = 1 << 21
ICC_Z = 1 << 22
ICC_N = 1 << 23

#: LEON2 reports impl/ver = 0xF/0x3 (Gaisler Research assignment).
LEON_IMPL = 0xF
LEON_VER = 0x3

# Default number of register windows in the LEON2 configuration record.
DEFAULT_NWINDOWS = 8

# ---------------------------------------------------------------------------
# ASIs (address-space identifiers) the LEON2 model recognises.
# ---------------------------------------------------------------------------

ASI_USER_INSTRUCTION = 0x08
ASI_SUPERVISOR_INSTRUCTION = 0x09
ASI_USER_DATA = 0x0A
ASI_SUPERVISOR_DATA = 0x0B
ASI_ICACHE_FLUSH = 0x05  # LEON-specific: flush instruction cache
ASI_DCACHE_FLUSH = 0x06  # LEON-specific: flush data cache
