"""Basic-block translation cache: the second 10x on raw speed.

:class:`~repro.cpu.fastpath.FunctionalUnit` still interprets one
instruction per dispatch — a dict probe, a handler call, and half a
dozen attribute touches per step.  :class:`TranslatedUnit` removes the
per-instruction dispatch entirely: the second time a PC is entered it
decodes *forward* to the next control-transfer instruction (CALL, Bicc,
JMPL — delayed-branch and annul semantics included), pre-resolves every
instruction's handler and register slots, and compiles the whole block
into one specialized Python function cached per entry PC.  The first
entry is interpreted: compiling a block costs as much as interpreting
it dozens of times, and boot, crt0 and set-up code run once (see
:data:`HOT_ENTRY`).  Hot ALU,
load/store and branch instructions become straight-line Python operating
on the register file's raw lists; everything rare (SAVE/RESTORE, mul/
div, traps, alternate-space accesses) calls the *shared* execute
handlers, so the semantics cannot drift from the interpreters'.

Coherence piggybacks on the contract the per-PC decode memo already
obeys (see ``FunctionalUnit.data_write``/``flush_icache``):

* every store that could touch translated code goes through
  :meth:`TranslatedUnit.data_write`, which drops the blocks whose pages
  the write overlaps — a page map keeps that check O(pages written);
* a store into the *currently executing* block (or a FLUSH from inside
  one) raises the ``_code_dirty`` flag; generated code checks it after
  every memory-writing site and bails out of the block with exact
  step/retire accounting, so self-modifying code observes its own
  writes with the interpreters' timing;
* FLUSH drops every block, exactly as it clears the decode memo.

Step accounting is identical to the other engines — one step is one
retired instruction, one annulled delay slot or one trap entry — so
N steps land on the same architectural state no matter which engine
executes them.  The randomized differential suite in
``tests/difftest`` runs in translated mode to prove it.
"""

from __future__ import annotations

from array import array

from repro.cpu import isa, traps
from repro.cpu.decode import DecodedInstruction
from repro.cpu.fastpath import FunctionalUnit, _resolve_handler
from repro.cpu.isa import Cond, Op3, Op3Mem
from repro.cpu.iu import IntegerUnit
from repro.utils import u32

__all__ = ["TranslatedUnit", "TranslatedBlock", "MAX_BLOCK", "MAX_BLOCKS",
           "HOT_ENTRY", "Recording", "RecordingUnit"]

#: Longest block, in instructions (CTI + delay slot included).
MAX_BLOCK = 64
#: Block-cache capacity; reaching it clears the cache wholesale.
MAX_BLOCKS = 4096
#: A PC's block is compiled on this entry to it; the entries before it
#: are interpreted, since code that runs once (boot, crt0, set-up) costs
#: less to interpret than to compile.  The entry counts are cleared with
#: the block cache at MAX_BLOCKS.
HOT_ENTRY = 2
#: Granularity of the code-page invalidation map (bytes = 1 << shift).
PAGE_SHIFT = 8

_M32 = 0xFFFFFFFF

# Recording-mode encodings (see :class:`Recording`).  A block exit is
# ``block id << 16 | steps << 9 | retired << 2 | taken << 1 | annulled``;
# an interpreted step is one of the negative STEP_* codes.
EXIT_TAKEN, EXIT_ANNULLED = 2, 1
STEP_RETIRED, STEP_TAKEN, STEP_ANNULLED, STEP_TRAPPED = -1, -2, -3, -4
# A data reference is ``address << 4 | size << 1 | write``; size 0 marks
# a cache flush in the same column (REF_IFLUSH: I-cache, else D-cache).
REF_WRITE = 1
REF_DFLUSH, REF_IFLUSH = 0, 1

# Instruction roles during block discovery.
_PLAIN, _CTI, _BREAK = 0, 1, 2

#: icc truth expressions over ``vp`` (a PSR snapshot): n=23 z=22 v=21 c=20.
_COND_EXPR = {
    Cond.NE: "not (vp & 0x400000)",
    Cond.E: "vp & 0x400000",
    Cond.G: "not ((vp & 0x400000) or ((vp >> 23 ^ vp >> 21) & 1))",
    Cond.LE: "(vp & 0x400000) or ((vp >> 23 ^ vp >> 21) & 1)",
    Cond.GE: "not ((vp >> 23 ^ vp >> 21) & 1)",
    Cond.L: "(vp >> 23 ^ vp >> 21) & 1",
    Cond.GU: "not (vp & 0x500000)",
    Cond.LEU: "vp & 0x500000",
    Cond.CC: "not (vp & 0x100000)",
    Cond.CS: "vp & 0x100000",
    Cond.POS: "not (vp & 0x800000)",
    Cond.NEG: "vp & 0x800000",
    Cond.VC: "not (vp & 0x200000)",
    Cond.VS: "vp & 0x200000",
}

#: op3 -> (python expression template, needs 32-bit mask) for the pure
#: logic ops; cc twins share the templates.
_LOGIC_EXPR = {
    Op3.AND: "{a} & {b}", Op3.ANDCC: "{a} & {b}",
    Op3.ANDN: "{a} & ~{b}", Op3.ANDNCC: "{a} & ~{b}",
    Op3.OR: "{a} | {b}", Op3.ORCC: "{a} | {b}",
    Op3.ORN: "({a} | ~{b}) & 0xFFFFFFFF",
    Op3.ORNCC: "({a} | ~{b}) & 0xFFFFFFFF",
    Op3.XOR: "{a} ^ {b}", Op3.XORCC: "{a} ^ {b}",
    Op3.XNOR: "({a} ^ ~{b}) & 0xFFFFFFFF",
    Op3.XNORCC: "({a} ^ ~{b}) & 0xFFFFFFFF",
}
_LOGIC_CC = {Op3.ANDCC, Op3.ANDNCC, Op3.ORCC, Op3.ORNCC, Op3.XORCC,
             Op3.XNORCC}

#: op3 -> (subtract, carry_in, cc) for the inline add/sub family.
_ADDSUB = {
    Op3.ADD: (False, False, False), Op3.ADDCC: (False, False, True),
    Op3.ADDX: (False, True, False), Op3.ADDXCC: (False, True, True),
    Op3.SUB: (True, False, False), Op3.SUBCC: (True, False, True),
    Op3.SUBX: (True, True, False), Op3.SUBXCC: (True, True, True),
}

#: op3 -> (size, signed) for the inline loads, op3 -> size for stores.
_LOADS = {Op3Mem.LD: (4, False), Op3Mem.LDUB: (1, False),
          Op3Mem.LDUH: (2, False), Op3Mem.LDSB: (1, True),
          Op3Mem.LDSH: (2, True)}
_STORES = {Op3Mem.ST: 4, Op3Mem.STB: 1, Op3Mem.STH: 2}

#: Generic ARITH handlers after which CWP may have moved (the generated
#: window base must be recomputed).
_CWP_OPS = {Op3.SAVE, Op3.RESTORE, Op3.WRPSR}


def _kind(inst: DecodedInstruction) -> int:
    """Role of *inst* in block discovery: straight-line, block-ending
    CTI, or untranslatable (RETT changes CWP *and* transfers; CPOP1 runs
    arbitrary extension code that may transfer) — the interpreter steps
    those."""
    op = inst.op
    if op == isa.OP_CALL:
        return _CTI
    if op == isa.OP_BRANCH_SETHI:
        return _CTI if inst.op2 == isa.OP2_BICC else _PLAIN
    if op == isa.OP_ARITH:
        op3 = inst.op3
        if op3 == Op3.JMPL:
            return _CTI
        if op3 in (Op3.RETT, Op3.CPOP1):
            return _BREAK
    return _PLAIN


class TranslatedBlock:
    """One compiled basic block: entry PC, decoded instructions, pages
    it spans (for store invalidation) and the generated step function.

    Calling ``code(unit)`` executes the block and returns the number of
    steps consumed (= retired instructions + annulled slot + trap
    entry); the unit's pc/npc/counters are left exactly as if the
    interpreter had stepped the same instructions."""

    __slots__ = ("entry", "length", "code", "insts", "pages", "source",
                 "writes")

    def __init__(self, entry, length, code, insts, pages, source, writes):
        self.entry = entry
        self.length = length
        self.code = code
        self.insts = insts
        self.pages = pages
        self.source = source
        self.writes = writes

    def __repr__(self):
        return (f"TranslatedBlock(entry=0x{self.entry:08x}, "
                f"length={self.length})")


class _Codegen:
    """Emit one block's Python source.

    Register reads/writes address the register file's raw lists through
    per-register index locals unpacked from a per-CWP row table
    (recomputed after any handler that can move CWP);
    condition codes are bit operations on ``ctrl.psr``; loads and stores
    carry an inline fast path over the largest writable RAM region with
    the slow path (MMIO, faults, coherence) delegated to the unit's own
    ``data_read``/``data_write``.

    A recording unit's blocks are a separate variant: the inline RAM
    paths also log their data reference (``_D``) and every exit logs
    its exit code (``_EV``); ``tk`` tracks whether the block's CTI was
    taken, for a trap in its delay slot."""

    def __init__(self, unit, entry, insts, cti, block_id=None):
        self.entry = entry
        self.insts = insts
        self.cti = cti
        #: The recording's id for this code, or None (plain variant).
        self.block_id = block_id
        self.recording = block_id is not None
        ram = unit._ram
        self.has_ram = ram is not None
        if self.has_ram:
            self.ram_base, self.ram_limit = ram[0], ram[1]
        self.lines: list[str] = []
        # Windowed registers the block touches: their in-file indices
        # are hoisted into locals once (and recomputed after any CWP
        # move) so the hot path never repeats the modulo arithmetic.
        used: set[int] = set()
        for inst in insts:
            if inst.op == isa.OP_CALL:  # format 1: no register fields
                continue
            if inst.rs1 >= 8:
                used.add(inst.rs1)
            if inst.rd >= 8:
                used.add(inst.rd)
            if not inst.imm and inst.rs2 >= 8:
                used.add(inst.rs2)
        self.window_regs = sorted(used)

    # -- low-level helpers ------------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    @staticmethod
    def _read(reg: int) -> str:
        if reg == 0:
            return "0"
        if reg < 8:
            return f"G[{reg}]"
        return f"W[w{reg}]"

    def _write(self, ind: int, rd: int, expr: str) -> None:
        """Write *expr* (already masked to 32 bits) to ``rd``."""
        if rd == 0:
            return
        if rd < 8:
            self.emit(ind, f"G[{rd}] = {expr}")
        else:
            self.emit(ind, f"W[w{rd}] = {expr}")

    def _emit_window_bases(self, ind: int) -> None:
        """Load the in-file indices of every windowed register the block
        touches from the per-CWP row table — one tuple unpack instead of
        an add+modulo per register access."""
        if not self.window_regs:
            return
        names = ", ".join(f"w{reg}" for reg in self.window_regs)
        trail = "," if len(self.window_regs) == 1 else ""
        self.emit(ind, f"{names}{trail} = _RT[ctrl.psr & 0x1F]")

    @staticmethod
    def _op2(inst) -> str:
        """Second ALU operand, as the handlers compute it."""
        return str(u32(inst.simm13)) if inst.imm else _Codegen._read(inst.rs2)

    def _guard(self, ind: int, k: int, pc: int, npc: str) -> None:
        """Before any instruction that can trap: pin pc/npc (consumed by
        ``_enter_trap``) and the retired-so-far count ``n``."""
        self.emit(ind, f"u.pc = {pc}")
        self.emit(ind, f"u.npc = {npc}")
        self.emit(ind, f"n = {k}")

    def _record_exit(self, ind: int, steps: int, retired: int,
                     taken: bool, annulled: bool = False) -> None:
        """Recording variant: log this (static) exit's code."""
        if self.recording:
            code = (self.block_id << 16 | steps << 9 | retired << 2
                    | (EXIT_TAKEN if taken else 0)
                    | (EXIT_ANNULLED if annulled else 0))
            self.emit(ind, f"_EV({code})")

    def _bail(self, ind: int, k: int, pc: int) -> None:
        """Leave the block after instruction *k* retired (its decoded
        successors may be stale): straight-line continuation."""
        self._record_exit(ind, k + 1, k + 1, False)
        self.emit(ind, f"u.pc = {(pc + 4) & _M32}")
        self.emit(ind, f"u.npc = {(pc + 8) & _M32}")
        self.emit(ind, f"u.cycles += {k + 1}")
        self.emit(ind, f"u.instret += {k + 1}")
        self.emit(ind, f"return {k + 1}")

    # -- per-instruction emitters -----------------------------------------

    def emit_inst(self, ind: int, k: int, npc: str, in_slot: bool) -> None:
        inst = self.insts[k]
        pc = (self.entry + 4 * k) & _M32
        op = inst.op
        if op == isa.OP_BRANCH_SETHI and inst.op2 == isa.OP2_SETHI:
            self._write(ind, inst.rd, str((inst.imm22 << 10) & _M32))
            return
        if op == isa.OP_ARITH:
            op3 = inst.op3
            if op3 in _LOGIC_EXPR:
                self._emit_logic(ind, inst)
                return
            if op3 in _ADDSUB:
                self._emit_addsub(ind, inst)
                return
            if op3 in (Op3.SLL, Op3.SRL, Op3.SRA):
                self._emit_shift(ind, inst)
                return
        elif op == isa.OP_MEM:
            op3 = inst.op3
            if op3 in _LOADS:
                self._emit_load(ind, k, pc, npc, inst)
                return
            if op3 in _STORES:
                self._emit_store(ind, k, pc, npc, inst, in_slot)
                return
        self._emit_generic(ind, k, pc, npc, inst, in_slot)

    def _emit_logic(self, ind, inst) -> None:
        expr = _LOGIC_EXPR[inst.op3].format(a=self._read(inst.rs1),
                                            b=self._op2(inst))
        if inst.op3 not in _LOGIC_CC:
            self._write(ind, inst.rd, expr)
            return
        self.emit(ind, f"vr = {expr}")
        self._write(ind, inst.rd, "vr")
        self.emit(ind, "ctrl.psr = (ctrl.psr & 0xFF0FFFFF)"
                       " | ((vr >> 8) & 0x800000)"
                       " | (0x400000 if vr == 0 else 0)")

    def _emit_addsub(self, ind, inst) -> None:
        sub, cin, cc = _ADDSUB[inst.op3]
        a, b = self._read(inst.rs1), self._op2(inst)
        sign = "-" if sub else "+"
        carry = f" {sign} ((ctrl.psr >> 20) & 1)" if cin else ""
        if not cc:
            self._write(ind, inst.rd,
                        f"({a} {sign} {b}{carry}) & 0xFFFFFFFF")
            return
        self.emit(ind, f"va = {a}")
        self.emit(ind, f"vb = {b}")
        self.emit(ind, f"vt = va {sign} vb{carry}")
        self.emit(ind, "vr = vt & 0xFFFFFFFF")
        self._write(ind, inst.rd, "vr")
        if sub:
            vterm = "((((va ^ vb) & (va ^ vr)) >> 31) & 1) << 21"
            cterm = "(0x100000 if vt < 0 else 0)"
        else:
            vterm = "(((~(va ^ vb) & (va ^ vr)) >> 31) & 1) << 21"
            cterm = "(0x100000 if vt > 0xFFFFFFFF else 0)"
        self.emit(ind, "ctrl.psr = (ctrl.psr & 0xFF0FFFFF)"
                       " | ((vr >> 8) & 0x800000)"
                       f" | (0x400000 if vr == 0 else 0) | {vterm}"
                       f" | {cterm}")

    def _emit_shift(self, ind, inst) -> None:
        a = self._read(inst.rs1)
        count = (str(u32(inst.simm13) & 0x1F) if inst.imm
                 else f"({self._read(inst.rs2)} & 31)")
        op3 = inst.op3
        if op3 == Op3.SLL:
            self._write(ind, inst.rd, f"({a} << {count}) & 0xFFFFFFFF")
        elif op3 == Op3.SRL:
            self._write(ind, inst.rd, f"{a} >> {count}")
        else:  # SRA: arithmetic shift via 64-bit sign extension
            self.emit(ind, f"va = {a}")
            self._write(
                ind, inst.rd,
                f"((va | 0xFFFFFFFF00000000) >> {count}) & 0xFFFFFFFF"
                f" if va & 0x80000000 else va >> {count}")

    def _effective_address(self, ind, inst) -> None:
        off = (str(inst.simm13) if inst.imm else self._read(inst.rs2))
        self.emit(ind, f"ea = ({self._read(inst.rs1)} + {off}) & 0xFFFFFFFF")

    def _emit_load(self, ind, k, pc, npc, inst) -> None:
        size, signed = _LOADS[inst.op3]
        self._effective_address(ind, inst)
        # Trap guards live inside the branches that can actually trap,
        # keeping the in-RAM aligned path guard-free.
        if size > 1:
            self.emit(ind, f"if ea & {size - 1}:")
            self._guard(ind + 1, k, pc, npc)
            self.emit(ind + 1, "raise _misaligned(ea)")
        if self.has_ram:
            self.emit(ind, f"of = ea - {self.ram_base}")
            self.emit(ind, f"if 0 <= of <= {self.ram_limit - self.ram_base - size}:")
            if size == 4:
                self.emit(ind + 1, "vr = (_B[of] << 24) | (_B[of + 1] << 16)"
                                   " | (_B[of + 2] << 8) | _B[of + 3]")
            elif size == 2:
                self.emit(ind + 1, "vr = (_B[of] << 8) | _B[of + 1]")
                if signed:
                    self.emit(ind + 1, "if vr & 0x8000:")
                    self.emit(ind + 2, "vr |= 0xFFFF0000")
            else:
                self.emit(ind + 1, "vr = _B[of]")
                if signed:
                    self.emit(ind + 1, "if vr & 0x80:")
                    self.emit(ind + 2, "vr |= 0xFFFFFF00")
            if self.recording:
                self.emit(ind + 1, f"_D(ea << 4 | {size << 1})")
            self.emit(ind, "else:")
            self._guard(ind + 1, k, pc, npc)
            self.emit(ind + 1,
                      f"vr = u.data_read(ea, {size}, signed={signed})")
        else:
            self._guard(ind, k, pc, npc)
            self.emit(ind, f"vr = u.data_read(ea, {size}, signed={signed})")
        self._write(ind, inst.rd, "vr")

    def _emit_store(self, ind, k, pc, npc, inst, in_slot) -> None:
        size = _STORES[inst.op3]
        self._effective_address(ind, inst)
        if size > 1:
            self.emit(ind, f"if ea & {size - 1}:")
            self._guard(ind + 1, k, pc, npc)
            self.emit(ind + 1, "raise _misaligned(ea)")
        self.emit(ind, f"vv = {self._read(inst.rd)}")
        slow_ind = ind
        if self.has_ram:
            # The inline path must preserve both coherence contracts:
            # skip it when the stored word is memoized (_ic) or lands on
            # a page holding translated code (_pages).
            self.emit(ind, f"of = ea - {self.ram_base}")
            self.emit(ind,
                      f"if (0 <= of <= {self.ram_limit - self.ram_base - size}"
                      " and (ea & 0xFFFFFFFC) not in _ic"
                      f" and (ea >> {PAGE_SHIFT}) not in _pages):")
            if size == 4:
                self.emit(ind + 1, "_B[of] = vv >> 24")
                self.emit(ind + 1, "_B[of + 1] = (vv >> 16) & 255")
                self.emit(ind + 1, "_B[of + 2] = (vv >> 8) & 255")
                self.emit(ind + 1, "_B[of + 3] = vv & 255")
            elif size == 2:
                self.emit(ind + 1, "_B[of] = (vv >> 8) & 255")
                self.emit(ind + 1, "_B[of + 1] = vv & 255")
            else:
                self.emit(ind + 1, "_B[of] = vv & 255")
            if self.recording:
                self.emit(ind + 1, f"_D(ea << 4 | {size << 1 | REF_WRITE})")
            self.emit(ind, "else:")
            slow_ind = ind + 1
        self._guard(slow_ind, k, pc, npc)
        self.emit(slow_ind, f"u.data_write(ea, {size}, vv)")
        if not in_slot:
            self.emit(slow_ind, "if u._code_dirty:")
            self._bail(slow_ind + 1, k, pc)

    def _emit_generic(self, ind, k, pc, npc, inst, in_slot) -> None:
        """Anything rare runs through the shared execute handlers (or
        the shared dispatch, for instructions that always trap)."""
        self._guard(ind, k, pc, npc)
        self.emit(ind, f"_H[{k}](u, _I[{k}])")
        if inst.op == isa.OP_ARITH and inst.op3 in _CWP_OPS:
            self._emit_window_bases(ind)
        dirty = (inst.op == isa.OP_MEM
                 or (inst.op == isa.OP_ARITH and inst.op3 == Op3.FLUSH))
        if dirty and not in_slot:
            self.emit(ind, "if u._code_dirty:")
            self._bail(ind + 1, k, pc)

    # -- block endings -----------------------------------------------------

    def _epilogue(self, ind, pc_expr, npc_expr, steps, retired,
                  taken, annulled=False) -> None:
        self._record_exit(ind, steps, retired, taken, annulled)
        self.emit(ind, f"u.pc = {pc_expr}")
        self.emit(ind, f"u.npc = {npc_expr}")
        if annulled:
            self.emit(ind, "u.annulled_slots += 1")
        self.emit(ind, f"u.cycles += {steps}")
        self.emit(ind, f"u.instret += {retired}")
        self.emit(ind, f"return {steps}")

    def _emit_taken_arm(self, ind, c, target_pc, target_npc, annul) -> None:
        if annul:
            self._epilogue(ind, target_pc, target_npc, c + 2, c + 1, True,
                           annulled=True)
        else:
            if self.recording:
                self.emit(ind, f"tk = {EXIT_TAKEN}")
            self.emit_inst(ind, c + 1, target_pc, in_slot=True)
            self._epilogue(ind, target_pc, target_npc, c + 2, c + 2, True)

    def _emit_untaken_arm(self, ind, c, pc_c, annul) -> None:
        cont = (pc_c + 8) & _M32
        if annul:
            self._epilogue(ind, cont, (pc_c + 12) & _M32, c + 2, c + 1,
                           False, annulled=True)
        else:
            self.emit_inst(ind, c + 1, str(cont), in_slot=True)
            self._epilogue(ind, cont, (pc_c + 12) & _M32, c + 2, c + 2,
                           False)

    def _emit_cti(self, ind: int) -> None:
        c = self.cti
        inst = self.insts[c]
        pc_c = (self.entry + 4 * c) & _M32
        if inst.op == isa.OP_BRANCH_SETHI:  # Bicc
            cond, annul = inst.cond, inst.annul
            target = (pc_c + (inst.disp22 << 2)) & _M32
            t_npc = (target + 4) & _M32
            if cond == Cond.A:
                # BA,a annuls its delay slot unconditionally.
                self._emit_taken_arm(ind, c, target, t_npc, annul)
            elif cond == Cond.N:
                self._emit_untaken_arm(ind, c, pc_c, annul)
            else:
                self.emit(ind, "vp = ctrl.psr")
                self.emit(ind, f"if {_COND_EXPR[cond]}:")
                # A taken conditional branch never annuls its slot.
                self._emit_taken_arm(ind + 1, c, target, t_npc, False)
                self.emit(ind, "else:")
                self._emit_untaken_arm(ind + 1, c, pc_c, annul)
            return
        # CALL / JMPL: run the shared handler, read the delayed target.
        self._guard(ind, c, pc_c, str((pc_c + 4) & _M32))
        self.emit(ind, "u._transfer_target = None")
        self.emit(ind, f"_H[{c}](u, _I[{c}])")
        self.emit(ind, "tgt = u._transfer_target")
        if self.recording:
            self.emit(ind, f"tk = {EXIT_TAKEN}")
        self.emit_inst(ind, c + 1, "tgt", in_slot=True)
        self._epilogue(ind, "tgt", "(tgt + 4) & 0xFFFFFFFF", c + 2, c + 2,
                       True)

    # -- whole function ----------------------------------------------------

    def source(self) -> str:
        e = self.emit
        # ctrl/G/W are bound as defaults at compile time (blocks are
        # per-unit, and the unit shares these objects for its lifetime)
        # so the prologue is two statements, not six.
        if self.recording:
            e(0, "def _block(u, ctrl=_ctrl, G=_G, W=_W, _RT=_RT, _D=_D,"
                 " _EV=_EV):")
        else:
            e(0, "def _block(u, ctrl=_ctrl, G=_G, W=_W, _RT=_RT):")
        self._emit_window_bases(1)
        e(1, "n = 0")
        if self.recording:
            e(1, "tk = 0")
        e(1, "try:")
        straight = self.cti if self.cti is not None else len(self.insts)
        for k in range(straight):
            pc = (self.entry + 4 * k) & _M32
            self.emit_inst(2, k, str((pc + 4) & _M32), in_slot=False)
        if self.cti is not None:
            self._emit_cti(2)
        else:
            end = (self.entry + 4 * straight) & _M32
            self._epilogue(2, end, (end + 4) & _M32, straight, straight,
                           False)
        e(1, "except _Trap as trap:")
        if self.recording:
            e(2, f"_EV({self.block_id << 16} | (n + 1) << 9 | n << 2 | tk)")
        e(2, "u.cycles += n")
        e(2, "u.instret += n")
        e(2, "u._enter_trap(trap)")
        e(2, "u.cycles += 1")
        e(2, "return n + 1")
        return "\n".join(self.lines) + "\n"


#: OP_MEM op3s that cannot write memory (the rest, plus FLUSH, mark the
#: block as write-capable so the dispatch loop tracks the active range).
_PURE_LOADS = frozenset(_LOADS) | {Op3Mem.LDD}


def _compile_block(unit, entry: int, insts: list, cti: int | None
                   ) -> TranslatedBlock:
    recording = unit.recording
    block_id = None
    if recording is not None:
        block_id = recording._ids.setdefault(
            (entry, tuple(inst.word for inst in insts)), len(recording._ids))
    gen = _Codegen(unit, entry, insts, cti, block_id)
    source = gen.source()
    handlers = tuple(_resolve_handler(inst) or IntegerUnit._dispatch
                     for inst in insts)
    size = unit.regs._size
    row_table = tuple(
        tuple(((cwp % (size // 16)) * 16 + reg - 8) % size
              for reg in gen.window_regs)
        for cwp in range(32))
    namespace = {
        "_Trap": traps.TrapException,
        "_misaligned": traps.mem_address_not_aligned,
        "_I": tuple(insts),
        "_H": handlers,
        "_B": unit._ram[2] if unit._ram is not None else None,
        "_ic": unit._inst_cache,
        "_pages": unit._code_pages,
        "_ctrl": unit.ctrl,
        "_G": unit.regs._globals,
        "_W": unit.regs._window_regs,
        "_RT": row_table,
    }
    if recording is not None:
        namespace["_D"] = recording.refs.append
        namespace["_EV"] = recording.events.append
    exec(compile(source, f"<block 0x{entry:08x}>", "exec"), namespace)
    # The function's globals are the namespace: leaving the function in
    # it would make a cycle that pins the unit's memory until a full GC.
    code = namespace.pop("_block")
    length = len(insts)
    pages = tuple(range(entry >> PAGE_SHIFT,
                        ((entry + 4 * length - 1) >> PAGE_SHIFT) + 1))
    writes = any(
        (inst.op == isa.OP_MEM and inst.op3 not in _PURE_LOADS)
        or (inst.op == isa.OP_ARITH and inst.op3 == Op3.FLUSH)
        for inst in insts)
    block = TranslatedBlock(entry, length, code,
                            tuple(insts), pages, source, writes)
    if block_id is not None and block_id == len(recording.blocks):
        recording.blocks.append(block)
    return block


class TranslatedUnit(FunctionalUnit):
    """Functional engine with a basic-block translation cache.

    Drop-in for :class:`FunctionalUnit` (same constructor, same sharing
    of registers/control/decode with the cycle-accurate unit, same
    step-count contract); ``run``/``fast_forward`` execute whole
    translated blocks and fall back to single interpreted steps for
    anything a block cannot carry: annulled entry states, MMIO fetches,
    RETT/CPOP1, a pending ``until_pc`` inside the block, or interrupt
    delivery.  A PC's first entry is interpreted too, and its block is
    compiled on the next (:data:`HOT_ENTRY`), so code that runs once is
    never compiled.  A FLUSH or a store that drops a block does not make
    its PC cold again: the next entry retranslates it.

    Retirement hooks split along the same line: ``on_block(block,
    retired)`` fires once per block execution, for which
    ``block.insts[:retired]`` retired, and ``on_retire`` sees only the
    interpreted single steps — an instruction executed inside a block
    never reaches it.  Set both to observe every retirement (see
    :class:`~repro.core.sim.MixRecorder`).
    """

    #: The :class:`Recording` a :class:`RecordingUnit` fills; ``None``
    #: selects the plain (non-recording) block variant.
    recording = None
    #: While :meth:`advance` runs: the step count past which no block is
    #: translated.  A class default, so that units which never advance
    #: gain no instance attribute.
    _horizon = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks_translated = 0
        self.blocks_executed = 0
        self.blocks_invalidated = 0
        #: Optional block-retirement hook: ``on_block(block, retired)``
        #: after each block execution; it replaces ``on_retire`` for the
        #: instructions executed inside blocks.
        self.on_block = None
        self._blocks: dict[int, TranslatedBlock] = {}
        #: Interpreted entries per PC, up to HOT_ENTRY - 1; a dropped
        #: block leaves its count, so its PC stays hot.
        self._entries: dict[int, int] = {}
        self._code_pages: dict[int, set[int]] = {}
        self._code_dirty = False
        self._active_lo = 0
        self._active_hi = 0
        # Inline load/store fast path: the largest writable byte-array
        # region (the SRAM in the platform map); everything else takes
        # the data_read/data_write slow path.
        best = None
        for base, limit, buffer, writable, _ in self.mem._regions:
            if writable and (best is None
                             or limit - base > best[1] - best[0]):
                best = (base, limit, buffer)
        self._ram = best

    # -- coherence ---------------------------------------------------------

    def data_write(self, address: int, size: int, value: int) -> None:
        super().data_write(address, size, value)
        address = address & _M32
        end = address + size
        if address < self._active_hi and end > self._active_lo:
            # The store landed inside the currently executing block:
            # its remaining decoded instructions may be stale.
            self._code_dirty = True
        if self._code_pages:
            for page in range(address >> PAGE_SHIFT,
                              ((end - 1) >> PAGE_SHIFT) + 1):
                entries = self._code_pages.get(page)
                if entries:
                    for entry in tuple(entries):
                        self._invalidate(entry)

    def flush_icache(self) -> None:
        super().flush_icache()
        if self._blocks:
            self.blocks_invalidated += len(self._blocks)
            self._blocks.clear()
            self._code_pages.clear()
        self._code_dirty = True

    def _invalidate(self, entry: int) -> None:
        block = self._blocks.pop(entry, None)
        if block is None:
            return
        self.blocks_invalidated += 1
        for page in block.pages:
            entries = self._code_pages.get(page)
            if entries is not None:
                entries.discard(entry)
                if not entries:
                    del self._code_pages[page]

    # -- translation -------------------------------------------------------

    def _translate(self, entry: int) -> TranslatedBlock | None:
        """Decode forward from *entry* to the next CTI (inclusive, with
        its delay slot) and compile; None if the entry cannot anchor a
        block (non-RAM fetch, RETT/CPOP1 first, CTI in a delay slot) or
        :meth:`advance` is within a block's length of its stop."""
        if self._horizon is not None and self.cycles > self._horizon:
            return None
        mem = self.mem
        lookup = self.decode_cache.lookup
        insts: list[DecodedInstruction] = []
        cti: int | None = None
        pc = entry
        while len(insts) < MAX_BLOCK - 1:
            word = mem.read_code_ram(pc)
            if word is None:
                break
            inst = lookup(word)
            kind = _kind(inst)
            if kind == _BREAK:
                break
            if kind == _CTI:
                slot_word = mem.read_code_ram(pc + 4)
                if slot_word is None:
                    break
                if _kind(lookup(slot_word)) != _PLAIN:
                    break
                insts.append(inst)
                insts.append(lookup(slot_word))
                cti = len(insts) - 2
                break
            insts.append(inst)
            pc += 4
        if not insts:
            return None
        if len(self._blocks) >= MAX_BLOCKS:
            self.blocks_invalidated += len(self._blocks)
            self._blocks.clear()
            self._code_pages.clear()
            self._entries.clear()
        block = _compile_block(self, entry, insts, cti)
        self.blocks_translated += 1
        self._blocks[entry] = block
        for page in block.pages:
            self._code_pages.setdefault(page, set()).add(entry)
        return block

    # -- execution ---------------------------------------------------------

    def fast_forward(self, budget: int, stop_pc: int | None = None) -> int:
        """Advance up to *budget* steps, stopping early when the PC
        reaches *stop_pc*.  Blockwise where possible.  Each block
        execution calls ``on_block(block, retired)``, if set, once — the
        retired instructions are always a prefix of ``block.insts``
        (branch arms, traps and SMC bails only cut it short) and the
        machine state it observes is the block's *exit* state.
        ``on_retire`` fires only for the steps interpreted here."""
        executed = 0
        blocks = self._blocks
        entries = self._entries
        step = self.step
        on_block = self.on_block
        block_count = 0
        while executed < budget:
            pc = self.pc
            if pc == stop_pc:
                break
            if (self.halted or self.annul
                    or self.npc != ((pc + 4) & _M32)
                    or self.interrupt_source is not None):
                # A non-sequential npc means a delayed transfer is in
                # flight (an interpreted CTI's slot, or the pc/npc pair
                # a jmp/rett couple leaves behind): generated blocks
                # assume straight-line entry, so interpret.
                executed += step()
                continue
            block = blocks.get(pc)
            if block is None:
                nth = entries.get(pc, 0) + 1
                if nth < HOT_ENTRY:
                    entries[pc] = nth
                    executed += step()
                    continue
                block = self._translate(pc)
                if block is None:
                    executed += step()
                    continue
            length = block.length
            if (budget - executed < length
                    or (stop_pc is not None
                        and pc < stop_pc < pc + 4 * length)):
                # Not enough budget for a worst-case full block, or the
                # stop PC lies inside it: keep the step-exact contract
                # by interpreting.
                executed += step()
                continue
            if block.writes:
                # Only write-capable blocks can reach data_write, the
                # sole reader of the active range / dirty flag.
                self._active_lo = pc
                self._active_hi = pc + 4 * length
                self._code_dirty = False
            block_count += 1
            if on_block is None:
                executed += block.code(self)
            else:
                before = self.instret
                try:
                    executed += block.code(self)
                finally:
                    # Also when a trap in error mode escapes the block:
                    # the prefix it retired is still reported.
                    on_block(block, self.instret - before)
        self.blocks_executed += block_count
        self._active_lo = self._active_hi = 0
        return executed

    def advance(self, budget: int, stop_pc: int | None = None) -> int:
        """:meth:`fast_forward` for stopping at an exact step boundary
        (a sampled window's edge) and resuming there.  The plain loop
        interprets the last steps before the stop and translates a new
        block at each of them, and resumes by translating one more from
        mid-block: blocks that never run again.  Here no block is
        translated within a block's length of the stop, and a resume
        interprets up to the next translated block's entry first."""
        executed = 0
        while (executed < budget and executed < MAX_BLOCK
               and self.pc not in self._blocks and self.pc != stop_pc):
            executed += self.step()
        self._horizon = self.cycles + budget - executed - MAX_BLOCK
        try:
            executed += self.fast_forward(budget - executed, stop_pc)
        finally:
            self._horizon = None
        return executed

    def run(self, max_instructions: int = 10_000_000,
            until_pc: int | None = None) -> int:
        """Same contract as :meth:`FunctionalUnit.run`, block-granular."""
        start_cycles = self.cycles
        executed = self.fast_forward(max_instructions, until_pc)
        if until_pc is None or executed < max_instructions:
            return self.cycles - start_cycles
        raise traps.WatchdogExpired(
            f"did not reach pc=0x{until_pc:08x} within "
            f"{max_instructions} instructions")


class Recording:
    """The step stream a :class:`RecordingUnit` executed, in the columns
    the accurate engine's caches and pipeline would have consumed it.

    * ``events`` — one entry per block execution or interpreted step, in
      execution order: a block exit ``block id << 16 | steps << 9 |
      retired << 2 | taken << 1 | annulled`` (the block fetched
      ``steps`` consecutive words from its entry; a trap, if any, is
      the step neither retired nor annulled), or a negative ``STEP_*``
      code whose pc and instruction word (0 unless retired) are the
      next entries of ``step_pcs``/``step_words``;
    * ``blocks`` — the translated blocks, indexed by block id; a block
      re-translated with the same entry and words (after a FLUSH, say)
      keeps its id, so a flushing hot loop does not grow the list;
    * ``refs`` — data references in exact ``data_read``/``data_write``
      call order, ``address << 4 | size << 1 | write``, with each cache
      flush as a size-0 marker (``REF_IFLUSH``/``REF_DFLUSH``) in place;
    * ``iflushes`` — for each I-cache flush, the index of the event
      during which it happened (the flush follows that event's fetches);
    * ``code_lo``/``code_hi``/``code_at`` — every read of code from
      memory that can execute (a translation up to its first FLUSH, or
      an interpreted step's fetch): the word range and ``len(refs)`` at
      that moment, for the SMC check.

    :meth:`mark` snapshots the column lengths, so a consumer can split
    the stream into phases (boot and dispatch vs the program window, or
    a sampled window's ramp and measured legs).
    """

    def __init__(self):
        self.blocks: list[TranslatedBlock] = []
        self._ids: dict[tuple, int] = {}
        self.events = array("q")
        self.step_pcs = array("Q")
        self.step_words = array("Q")
        self.refs = array("Q")
        self.iflushes = array("Q")
        self.code_lo = array("Q")
        self.code_hi = array("Q")
        self.code_at = array("Q")

    def mark(self) -> tuple[int, int, int]:
        """``(events, refs, interpreted steps)`` recorded so far."""
        return len(self.events), len(self.refs), len(self.step_pcs)

    def _code_read(self, lo: int, hi: int) -> None:
        self.code_lo.append(lo)
        self.code_hi.append(hi)
        self.code_at.append(len(self.refs))


class RecordingUnit(TranslatedUnit):
    """A :class:`TranslatedUnit` that records its step stream into
    :attr:`recording` as it runs — same architectural results, same
    ``run``/``fast_forward`` step contract and budgets, with every
    block compiled in the recording variant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recording = Recording()
        self._retired = None

    def data_read(self, address: int, size: int, *, signed: bool) -> int:
        self.recording.refs.append((address & _M32) << 4 | size << 1)
        return super().data_read(address, size, signed=signed)

    def data_write(self, address: int, size: int, value: int) -> None:
        self.recording.refs.append(
            (address & _M32) << 4 | size << 1 | REF_WRITE)
        super().data_write(address, size, value)

    def flush_icache(self) -> None:
        recording = self.recording
        recording.refs.append(REF_IFLUSH)
        recording.iflushes.append(len(recording.events))
        super().flush_icache()

    def flush_dcache(self) -> None:
        self.recording.refs.append(REF_DFLUSH)
        super().flush_dcache()

    def _translate(self, entry: int) -> TranslatedBlock | None:
        block = super()._translate(entry)
        if block is not None:
            # Words past a FLUSH never execute from this translation: the
            # FLUSH bails out of the block and drops every translation.
            executable = next((k + 1 for k, inst in enumerate(block.insts)
                               if inst.op == isa.OP_ARITH
                               and inst.op3 == Op3.FLUSH), block.length)
            self.recording._code_read(entry, entry + 4 * executable)
        return block

    def _catch_retired(self, pc: int, inst: DecodedInstruction) -> None:
        self._retired = inst

    def step(self) -> int:
        recording = self.recording
        pc, traps_taken = self.pc, self.trap_count
        recording._code_read(pc, pc + 4)
        # The interpreter reports the instruction it retired only through
        # on_retire: borrow the hook for this step, then forward.
        hook = self.on_retire
        self.on_retire = self._catch_retired
        try:
            steps = super().step()
        finally:
            self.on_retire = hook
        inst, self._retired = self._retired, None
        if inst is not None:
            taken = self._transfer_target is not None
            recording.events.append(STEP_TAKEN if taken else STEP_RETIRED)
            recording.step_words.append(inst.word)
            if hook is not None:
                hook(pc, inst)
        else:
            recording.events.append(STEP_TRAPPED
                                    if self.trap_count != traps_taken
                                    else STEP_ANNULLED)
            recording.step_words.append(0)
        recording.step_pcs.append(pc)
        return steps
