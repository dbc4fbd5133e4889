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
:data:`HOT_ENTRY`).  Hot ALU, multiply,
load/store and branch instructions become straight-line Python operating
on the register file; everything rare (SAVE/RESTORE,
divide, traps, alternate-space accesses) calls the *shared* execute
handlers, so the semantics cannot drift from the interpreters'.

A hot loop is not one block branching to itself but a nest: a loop of
a few blocks with a branch inside, rotated so that it is entered
mid-cycle, inside a loop that runs a few blocks around it.  Once
generated code has exited back to a block :data:`HOT_TRACE` times,
every translated block that is reachable from it and leads back to it
is compiled into a :class:`Trace`, a *loop region*: one function in
which an exit from one member to another is an in-function transfer,
so the dispatch loop's per-block work (state checks, the cache probe,
the budget and stop-PC tests, the call and the register window unpack)
happens once per call instead.  A block is a region of one that does
not loop; both come from one code generator and run through one
dispatch loop.  A block reads and writes the register file's lists; a
region keeps every register its code touches in a Python local for the
whole call, as a translator keeps guest registers in host registers,
and writes the ones it changed back to the file around each shared
handler call, before a trap is entered, and once on the way out.

Coherence piggybacks on the contract the per-PC decode memo already
obeys (see ``FunctionalUnit.data_write``/``flush_icache``):

* every store that could touch translated code goes through
  :meth:`TranslatedUnit.data_write`, which drops the blocks whose pages
  the write overlaps — a page map keeps that check O(pages written) —
  and the regions they belong to;
* a store into the *currently executing* block (or a FLUSH from inside
  one) raises the ``_code_dirty`` flag; the helper that ran the write
  from generated code checks it and bails out of the block with exact
  step/retire accounting, so self-modifying code observes its own
  writes with the interpreters' timing;
* a region checks after each member that can write whether any of its
  members was dropped, and if so returns before running another;
* FLUSH drops every block and region, exactly as it clears the decode
  memo.

Step accounting is identical to the other engines — one step is one
retired instruction, one annulled delay slot or one trap entry — so
N steps land on the same architectural state no matter which engine
executes them.  The randomized differential suite in
``tests/difftest`` runs in translated mode to prove it.
"""

from __future__ import annotations

import itertools
import struct
from array import array

from repro.cpu import isa, traps
from repro.cpu.decode import DecodedInstruction
from repro.cpu.fastpath import FunctionalUnit, _resolve_handler
from repro.cpu.isa import Cond, Op3, Op3Mem
from repro.cpu.iu import IntegerUnit
from repro.utils import u32

__all__ = ["TranslatedUnit", "TranslatedBlock", "Trace", "MAX_BLOCK",
           "MAX_REGION", "MAX_BLOCKS", "HOT_ENTRY", "HOT_TRACE", "Recording",
           "RecordingUnit"]

#: Longest block, in instructions (CTI + delay slot included).
MAX_BLOCK = 64
#: Most blocks in one loop region (:class:`Trace`): the long kernels'
#: nests have 7 (``fir_stream``) and 21 (``xtea_stream``), and a region
#: costs about 0.4 ms of ``compile`` per 1,000 characters of source, some
#: 1,500-2,000 per member (EXPERIMENTS E32).
MAX_REGION = 32
#: Block-cache capacity; reaching it clears the cache wholesale.
MAX_BLOCKS = 4096
#: A PC's block is compiled on this entry to it; the entries before it
#: are interpreted, since code that runs once (boot, crt0, set-up) costs
#: less to interpret than to compile.  The entry counts are cleared with
#: the block cache at MAX_BLOCKS.
HOT_ENTRY = 2
#: A loop region is compiled into a :class:`Trace` when control returns
#: to its head from generated code this many times.  A region costs
#: about as much to compile as its blocks did and saves about a
#: microsecond per member per lap, so only a loop that runs about a
#: thousand times repays it.  A store that drops a member restarts the
#: head's count; the counts are cleared with the block cache at
#: MAX_BLOCKS.
HOT_TRACE = 1024
#: Granularity of the code-page invalidation map (bytes = 1 << shift).
PAGE_SHIFT = 8

_M32 = 0xFFFFFFFF
#: A big-endian word: the inline RAM paths load and store words with it.
_WORD = struct.Struct(">I")

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

#: op3 -> (signed, cc) for the inline multiplies.
_MULS = {Op3.UMUL: (False, False), Op3.UMULCC: (False, True),
         Op3.SMUL: (True, False), Op3.SMULCC: (True, True)}

#: Generic ARITH handlers after which CWP may have moved (the generated
#: window base must be recomputed).
_CWP_OPS = {Op3.SAVE, Op3.RESTORE, Op3.WRPSR}

#: ARITH op3s the generated code runs inline, besides the loads/stores.
_INLINE_ALU = (frozenset(_LOGIC_EXPR) | frozenset(_ADDSUB) | frozenset(_MULS)
               | {Op3.SLL, Op3.SRL, Op3.SRA})

#: A region's local for each register: ``g0``-``g7``, ``o0``-``o7``,
#: ``l0``-``l7``, ``i0``-``i7``.
_NAMES = tuple(f"{bank}{n}" for bank in "goli" for n in range(8))


def _inline_regs(inst) -> tuple[tuple, int]:
    """``(registers read, register written or 0)`` of *inst* as the
    generated code runs it inline; none for an instruction it hands to
    a shared handler, which reads and writes the register file itself."""
    op = inst.op
    if op == isa.OP_BRANCH_SETHI:
        return (), (inst.rd if inst.op2 == isa.OP2_SETHI else 0)
    sources = (inst.rs1,) if inst.imm else (inst.rs1, inst.rs2)
    if op == isa.OP_ARITH and inst.op3 in _INLINE_ALU:
        return sources, inst.rd
    if op == isa.OP_MEM and inst.op3 in _LOADS:
        return sources, inst.rd
    if op == isa.OP_MEM and inst.op3 in _STORES:
        return sources + (inst.rd,), 0
    return (), 0


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
    """One compiled basic block: entry PC, decoded instructions (``cti``
    indexes the block-ending control transfer, if any), pages it spans
    (for store invalidation) and the generated step function.

    Calling ``code(unit, left)`` executes the block and returns the
    number of steps consumed (= retired instructions + annulled slot +
    trap entry); the unit's pc/npc/counters are left exactly as if the
    interpreter had stepped the same instructions.  It leaves
    ``unit._exit`` as the dispatch loop set it, 0, as a :class:`Trace`
    of this one member would.  ``succ`` is the PC the block last exited
    to: a region's hot path follows it, and a CALL or JMPL member
    stays in the region only towards it."""

    __slots__ = ("entry", "length", "code", "insts", "cti", "pages",
                 "source", "writes", "lo", "hi", "succ", "walked")

    #: A block is a trace of one: nothing smaller to fall back to.
    fallback = None

    def __init__(self, entry, length, code, insts, cti, pages, source,
                 writes):
        self.entry = entry
        self.length = length
        self.code = code
        self.insts = insts
        self.cti = cti
        self.pages = pages
        self.source = source
        self.writes = writes
        #: The code's address range.
        self.lo, self.hi = entry, entry + 4 * length
        self.succ = None
        #: The unit's ``blocks_translated`` when a region walk from here
        #: last found no cycle, or one still missing a member a store
        #: dropped: only a newly translated block can change that, so
        #: the walk waits for the next.
        self.walked = -1

    def __repr__(self):
        return (f"TranslatedBlock(entry=0x{self.entry:08x}, "
                f"length={self.length})")


class Trace:
    """A hot loop region: the translated blocks on a cycle through its
    head (its *members*, head first, then in hot-path order), compiled
    into one generated function.

    The region is every translated block reachable from the head through
    the blocks' exits that leads back to it: both arms of a branch in the
    loop, a loop rotated so that it is entered mid-cycle, the loops
    nested in it and those around it, as far as they are translated
    when it forms (:meth:`TranslatedUnit._chain`).  A member exit
    towards another member stays in the function.  Control leaves it
    only at an exit out of the region, before a member that ``left``
    steps cannot cover whole, on a trap, on an SMC bail, or after a
    write-capable member when a store or FLUSH dropped any member's
    translation.  The exit leaves ``unit._exit`` = the member bodies the
    call completed before the one that exited, from which the dispatch
    loop's ``blocks_executed`` counts every member body.  ``succ`` is
    the PC the region last exited to, kept as a block's is; nothing
    reads it.

    ``length`` is the head member's: the dispatch loop enters a region
    only with at least that much budget and with no stop PC between
    ``lo`` and ``hi`` (the members' address hull), else runs its head
    block alone (``fallback``).  Either way each member exit is the same
    step sequence and the same recorded event."""

    __slots__ = ("entry", "length", "code", "members", "entries",
                 "pages", "source", "lo", "hi", "alive", "succ")

    def __init__(self, members, code, source, alive):
        head = members[0]
        self.entry = head.entry
        self.length = head.length
        self.code = code
        self.members = tuple(members)
        self.entries = frozenset(block.entry for block in members)
        self.pages = head.pages
        self.source = source
        self.lo = min(block.lo for block in members)
        self.hi = max(block.hi for block in members)
        #: ``[False]`` once a member's translation is dropped; the
        #: generated code reads it after each write-capable member.
        self.alive = alive
        self.succ = None

    @property
    def fallback(self) -> TranslatedBlock:
        return self.members[0]

    def __repr__(self):
        return (f"Trace(entry=0x{self.entry:08x}, members="
                f"{[hex(block.entry) for block in self.members]})")


class _Codegen:
    """Emit the Python source of one generated function: a block, or a
    loop region of member blocks (a block is a region of one that does
    not loop).

    A block's register reads/writes address the register file's raw
    lists through per-register index locals unpacked from a per-CWP row
    table (recomputed after any handler that can move CWP).  A region
    holds each register its inline code touches in a local named as the
    register (``g1``, ``o0``, ``l7``, ``i6``), loaded once after the
    index locals.  The file holds the registers only where code other
    than the region's reads or writes them, so the locals the region
    writes go back to it before each shared-handler call (``_H[...]``,
    ``_stale(...)``), every local is loaded again after it (after the
    index locals, when the handler can move CWP), the ``except`` arms
    write back before :meth:`_RareExits.leave` enters a trap, and one
    ``finally`` writes back for every other way out.  ``sy`` is 1 while
    the file holds the truth, from a handler call's write-back until the
    locals are loaded again: a handler that raises after writing its
    ``rd`` leaves it so, and no arm overwrites that ``rd``.  Condition
    codes are bit operations on ``ctrl.psr``.

    Only the paths that run on every execution are inline.  A load or
    store computes ``of``, its address less the RAM base, unwrapped, and
    makes one test, alignment and RAM range together (for a store also
    the decode memo ``_ic`` and the code pages ``_pages``), then runs
    its inline RAM access; anything else is one call to a module helper,
    :func:`_ld` or :func:`_st`, which wraps the address, pins pc/npc,
    raises the misaligned trap or runs the unit's own
    ``data_read``/``data_write`` (MMIO, faults, coherence).  Other
    handler calls pin pc/npc inline first.  The two rare exits are each
    one ``except`` arm calling :meth:`_RareExits.leave`: a trap, and a
    write that made the rest of the running member stale
    (:class:`_Stale`).  Whatever raised pinned
    ``u.pc`` to its instruction, so the exit finds ``n``, the running
    member's retired instructions, from ``u.pc`` and that member's
    entry (member ``m`` in a region); no per-instruction count is kept.

    A region's members are the arms of one ``while`` loop, each under
    ``if m == j``: an exit towards member ``k`` sets ``m = k`` and falls
    through into the next arms when ``k`` comes later, the hot path's
    next member first, or ``continue``\\ s to the loop's top when it does
    not.  Before it does, it subtracts its static step count from
    ``lf``, the call's budget left, and returns if ``lf`` cannot cover
    member ``k`` whole (or if a write-capable member dropped a member's
    translation).  The call's counts are running sums: its steps are
    ``left - lf``, ``nb`` counts the member bodies it completed and
    ``na`` their annulled slots, and every exit that leaves passes them
    to :func:`_out`.

    A recording unit's functions are a separate variant: the inline RAM
    paths also log their data reference (``_D``) and every member exit
    logs its exit code (``_EV``); ``tk`` tracks whether the member's CTI
    was taken, for a trap in its delay slot."""

    def __init__(self, unit, members, links, block_ids=None):
        #: Per member: ``(entry, insts, cti)``.
        self.members = members
        #: A region's, per member: the PC whose member a CALL or JMPL
        #: exit stays in the region towards, compared at run time.  None
        #: for a block.
        self.links = links
        self.loop = links is not None
        self.index = ({entry: j for j, (entry, _, _) in enumerate(members)}
                      if self.loop else {})
        #: The recording's id for each member's code, or None (plain
        #: variant).
        self.block_ids = block_ids
        self.recording = block_ids is not None
        ram = unit._ram
        self.has_ram = ram is not None
        self.ram_base = unit._ram_base
        if self.has_ram:
            self.ram_limit = ram[1]
        self.lines: list[str] = []
        # The registers the generated code itself reads and writes.  The
        # in-file indices of the windowed ones are hoisted into locals
        # once (and recomputed after any CWP move) so the hot path never
        # repeats the modulo arithmetic; a region also keeps their values
        # in locals.
        touched: set[int] = set()
        written: set[int] = set()
        for _, insts, _ in members:
            for inst in insts:
                reads, rd = _inline_regs(inst)
                touched.update(reads)
                written.add(rd)
        touched |= written
        touched.discard(0)
        written.discard(0)
        self.window_regs = sorted(reg for reg in touched if reg >= 8)
        #: A region's registers in locals, and those it writes back.
        self.held = sorted(touched) if self.loop else []
        self.dirty = sorted(written) if self.loop else []
        self.writes = [any(_writes(inst) for inst in insts)
                       for _, insts, _ in members]

    def _enter(self, j: int) -> None:
        """Make member *j* the one being emitted."""
        self.j = j
        self.entry, self.insts, self.cti = self.members[j]
        self.base = sum(len(insts) for _, insts, _ in self.members[:j])
        self.block_id = self.block_ids[j] if self.recording else None

    # -- low-level helpers ------------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    @staticmethod
    def _slot(reg: int) -> str:
        """Register *reg*'s element of the register file's lists."""
        return f"G[{reg}]" if reg < 8 else f"W[w{reg}]"

    def _read(self, reg: int) -> str:
        if reg == 0:
            return "0"
        return _NAMES[reg] if self.loop else self._slot(reg)

    def _write(self, ind: int, rd: int, expr: str) -> None:
        """Write *expr* (already masked to 32 bits) to ``rd``."""
        if rd != 0:
            self.emit(ind, f"{self._read(rd)} = {expr}")

    def _store_regs(self, ind: int, flag: bool = True) -> None:
        """Region: write the registers it writes back from their locals
        to the register file, which then holds them (``sy``)."""
        if self.dirty:
            self.emit(ind, ", ".join(map(self._slot, self.dirty)) + " = "
                      + ", ".join(_NAMES[reg] for reg in self.dirty))
            if flag:
                self.emit(ind, "sy = 1")

    def _sync(self, ind: int, flag: bool = True) -> None:
        """Region, on a way out: store its registers unless the file
        holds them."""
        if self.dirty:
            self.emit(ind, "if not sy:")
            self._store_regs(ind + 1, flag)

    def _load_regs(self, ind: int) -> None:
        """Region: load its registers' locals from the register file,
        which from here on the locals overrule."""
        if self.held:
            self.emit(ind, ", ".join(_NAMES[reg] for reg in self.held)
                      + " = " + ", ".join(map(self._slot, self.held)))
        if self.dirty:
            self.emit(ind, "sy = 0")

    def _call(self, ind: int, call: str, cwp: bool = False) -> None:
        """A shared-handler call, which reads and writes the register
        file: a region stores its registers before it and loads them
        after it (once a CWP move, *cwp*, has moved the window bases)."""
        self._store_regs(ind)
        self.emit(ind, call)
        if cwp:
            self._emit_window_bases(ind)
        self._load_regs(ind)

    def _emit_window_bases(self, ind: int) -> None:
        """Load the in-file indices of every windowed register the
        function touches from the per-CWP row table — one tuple unpack
        instead of an add+modulo per register access."""
        if not self.window_regs:
            return
        names = ", ".join(f"w{reg}" for reg in self.window_regs)
        trail = "," if len(self.window_regs) == 1 else ""
        self.emit(ind, f"{names}{trail} = _RT[ctrl.psr & 0x1F]")

    def _op2(self, inst) -> str:
        """Second ALU operand, as the handlers compute it."""
        return str(u32(inst.simm13)) if inst.imm else self._read(inst.rs2)

    def _guard(self, ind: int, pc: int, npc: str) -> None:
        """Before a handler call: pin pc/npc, which the handler and
        ``_enter_trap`` read, and from which the trap arm counts the
        member's retired instructions."""
        self.emit(ind, f"u.pc = {pc}")
        self.emit(ind, f"u.npc = {npc}")

    @staticmethod
    def _pc_args(pc: int, npc: str) -> str:
        """The pc (and npc, unless it is pc + 4) a slow-path helper
        pins."""
        if npc == str((pc + 4) & _M32):
            return str(pc)
        return f"{pc}, npc={npc}"

    def _record_exit(self, ind: int, steps: int, retired: int,
                     taken: bool, annulled: bool = False) -> None:
        """Recording variant: log this (static) member exit's code."""
        if self.recording:
            code = (self.block_id << 16 | steps << 9 | retired << 2
                    | (EXIT_TAKEN if taken else 0)
                    | (EXIT_ANNULLED if annulled else 0))
            self.emit(ind, f"_EV({code})")

    def _add(self, ind: int, name: str, const: int) -> None:
        if const != 0:
            self.emit(ind, f"u.{name} += {const}")

    def _epilogue(self, ind, pc_expr, npc_expr, steps, retired,
                  taken, annulled=False, tail=True) -> None:
        """Leave a block through this exit; without *tail* the caller
        emits the count and return, shared with another exit."""
        self._record_exit(ind, steps, retired, taken, annulled)
        self.emit(ind, f"u.pc = {pc_expr}")
        self.emit(ind, f"u.npc = {npc_expr}")
        if tail:
            self._tail(ind, steps, retired, int(annulled))

    def _tail(self, ind, steps, retired, annulled) -> None:
        self._add(ind, "annulled_slots", annulled)
        self._add(ind, "cycles", steps)
        self._add(ind, "instret", retired)
        self.emit(ind, f"return {steps}")

    def _out(self, ind, pc_expr, steps, retired, taken,
             annulled=False) -> None:
        """Leave a region through a member exit out of it."""
        self._record_exit(ind, steps, retired, taken, annulled)
        na = "na + 1" if annulled else "na"
        self.emit(ind, f"return _out(u, {pc_expr}, left - lf + {steps}, "
                       f"nb, {na})")

    def _transfer(self, ind, k, steps, retired, taken,
                  annulled=False) -> None:
        """Member exit towards member *k*: run it next, unless ``lf``
        cannot cover it or a member's translation was dropped."""
        self._record_exit(ind, steps, retired, taken, annulled)
        target, insts, _ = self.members[k]
        self.emit(ind, f"lf -= {steps}")
        if annulled:
            self.emit(ind, "na += 1")
        stop = f"lf < {len(insts)}"
        if self.writes[self.j]:
            stop += " or not _alive[0]"
        self.emit(ind, f"if {stop}:")
        self.emit(ind + 1, f"return _out(u, {target}, left - lf, nb, na)")
        self.emit(ind, "nb += 1")
        if len(self.members) > 1:
            self.emit(ind, f"m = {k}")
        if self.recording:
            self.emit(ind, "tk = 0")
        if k <= self.j:
            self.emit(ind, "continue")

    def _leave(self, ind, pc, npc, steps, retired, taken,
               annulled=False, tail=True) -> None:
        """Member exit to the static *pc*: a transfer if a member starts
        there, else out of the function."""
        if not self.loop:
            self._epilogue(ind, pc, npc, steps, retired, taken, annulled,
                           tail)
        elif pc in self.index:
            self._transfer(ind, self.index[pc], steps, retired, taken,
                           annulled)
        else:
            self._out(ind, pc, steps, retired, taken, annulled)

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
            if op3 in _MULS:
                self._emit_mul(ind, inst)
                return
        elif op == isa.OP_MEM:
            op3 = inst.op3
            if op3 in _LOADS:
                self._emit_load(ind, pc, npc, inst)
                return
            if op3 in _STORES:
                self._emit_store(ind, pc, npc, inst, in_slot)
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
        self._emit_nz(ind)

    def _emit_nz(self, ind) -> None:
        """icc from ``vr``: N and Z set by the result, V and C cleared."""
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

    def _emit_mul(self, ind, inst) -> None:
        """UMUL/SMUL(cc), as ``execute._mul``: the 64-bit product's high
        word goes to Y; the cc forms set N/Z from the low word and clear
        V/C."""
        signed, cc = _MULS[inst.op3]
        a, b = self._read(inst.rs1), self._op2(inst)
        if signed:
            a = f"(({a} ^ 0x80000000) - 0x80000000)"
            b = (str(inst.simm13) if inst.imm
                 else f"(({b} ^ 0x80000000) - 0x80000000)")
            self.emit(ind, f"vt = ({a} * {b}) & 0xFFFFFFFFFFFFFFFF")
        else:
            self.emit(ind, f"vt = {a} * {b}")
        self.emit(ind, "ctrl.y = vt >> 32")
        if not cc:
            self._write(ind, inst.rd, "vt & 0xFFFFFFFF")
            return
        self.emit(ind, "vr = vt & 0xFFFFFFFF")
        self._write(ind, inst.rd, "vr")
        self._emit_nz(ind)

    def _offset(self, ind, inst) -> None:
        """``of``: the access's address less the RAM base (0 without a
        RAM region), not wrapped to 32 bits.  A sum that wraps past 2**32
        or below 0 is outside RAM either way, so the range test sends it
        to the slow path, which wraps it (:func:`_ld`, :func:`_st`)."""
        terms = [self._read(inst.rs1)]
        const = -self.ram_base
        if inst.imm:
            const += inst.simm13
        else:
            terms.append(self._read(inst.rs2))
        expr = " + ".join(term for term in terms if term != "0")
        if not expr:
            expr = str(const)
        elif const:
            expr += f" - {-const}" if const < 0 else f" + {const}"
        self.emit(ind, f"of = {expr}")

    def _ram_miss(self, size: int) -> str:
        """The one test that sends an access of *size* bytes at offset
        ``of`` to its slow path: misaligned, or not wholly inside RAM.
        Over a power-of-two region at an aligned base, both are one
        negative mask (a negative ``of`` has every high bit set, and one
        past 2**32 a bit the mask keeps)."""
        span = self.ram_limit - self.ram_base
        if span & (span - 1) == 0 and self.ram_base % 4 == 0:
            return f"of & {-span | (size - 1)}"
        test = f"not 0 <= of <= {span - size}"
        if size == 1:
            return test
        low = self.ram_base & (size - 1)
        return f"{test} or {f'(of + {low})' if low else 'of'} & {size - 1}"

    def _ref(self, code: int) -> str:
        """Recording variant: log the inline RAM access at ``of`` whose
        reference code (see :class:`Recording`) has low bits *code*."""
        return f"_D((of << 4) + {self.ram_base << 4 | code})"

    def _emit_load(self, ind, pc, npc, inst) -> None:
        size, signed = _LOADS[inst.op3]
        self._offset(ind, inst)
        # Unless a sign extension follows, both paths write rd directly.
        dest = "vr"
        if inst.rd != 0 and (size == 4 or not signed):
            dest = self._read(inst.rd)
        slow = (f"{dest} = _ld(u, of, {size}, {int(signed)}, "
                f"{self._pc_args(pc, npc)})")
        if self.has_ram:
            self.emit(ind, f"if {self._ram_miss(size)}:")
            self.emit(ind + 1, slow)
            self.emit(ind, "else:")
            fast = {4: "_LW(_B, of)[0]", 2: "(_B[of] << 8) | _B[of + 1]",
                    1: "_B[of]"}[size]
            self.emit(ind + 1, f"{dest} = {fast}")
            if signed:
                bit = 0x80 << 8 * (size - 1)
                self.emit(ind + 1, f"if vr & {bit:#x}:")
                self.emit(ind + 2, f"vr |= {_M32 ^ (2 * bit - 1):#x}")
            if self.recording:
                self.emit(ind + 1, self._ref(size << 1))
        else:
            self.emit(ind, slow)
        if dest == "vr":
            self._write(ind, inst.rd, "vr")

    def _span(self, in_slot: bool) -> str:
        """The running member's address range, for a write that may
        make the rest of it stale (see :func:`_stale`); None in a delay
        slot, after which the member ends anyway."""
        return "None" if in_slot else f"_SPAN[{self.j}]"

    def _emit_store(self, ind, pc, npc, inst, in_slot) -> None:
        size = _STORES[inst.op3]
        self._offset(ind, inst)
        value = self._read(inst.rd)
        slow = (f"_st(u, of, {size}, {value}, {self._span(in_slot)}, "
                f"{self._pc_args(pc, npc)})")
        if not self.has_ram:
            self.emit(ind, slow)
            return
        # The inline path must preserve both coherence contracts: skip
        # it when the stored word is memoized (_ic) or lands on a page
        # holding translated code (_pages).  Past the range test, ``ea``
        # is the exact address.
        ea = f"(ea := of + {self.ram_base})"
        word = ea if size == 4 else f"{ea} & -4"
        self.emit(ind, f"if {self._ram_miss(size)} or {word} in _ic"
                       f" or ea >> {PAGE_SHIFT} in _pages:")
        self.emit(ind + 1, slow)
        self.emit(ind, "else:")
        if size == 4:
            self.emit(ind + 1, f"_SW(_B, of, {value})")
        elif size == 2:
            self.emit(ind + 1, f"_B[of] = ({value} >> 8) & 255")
            self.emit(ind + 1, f"_B[of + 1] = {value} & 255")
        else:
            self.emit(ind + 1, f"_B[of] = {value} & 255")
        if self.recording:
            self.emit(ind + 1, self._ref(size << 1 | REF_WRITE))

    def _emit_generic(self, ind, k, pc, npc, inst, in_slot) -> None:
        """Anything rare runs through the shared execute handlers (or
        the shared dispatch, for instructions that always trap)."""
        self._guard(ind, pc, npc)
        call, args = f"_H[{self.base + k}]", f"u, _I[{self.base + k}]"
        if _writes(inst) and not in_slot:
            call = f"_stale(u, {self._span(False)}, {call}, {args})"
        else:
            call = f"{call}({args})"
        self._call(ind, call,
                   cwp=inst.op == isa.OP_ARITH and inst.op3 in _CWP_OPS)

    # -- member endings ----------------------------------------------------

    def _emit_taken_arm(self, ind, c, target_pc, target_npc, annul,
                        tail=True) -> None:
        if annul:
            self._leave(ind, target_pc, target_npc, c + 2, c + 1, True,
                        annulled=True, tail=tail)
        else:
            if self.recording:
                self.emit(ind, f"tk = {EXIT_TAKEN}")
            self.emit_inst(ind, c + 1, str(target_pc), in_slot=True)
            self._leave(ind, target_pc, target_npc, c + 2, c + 2, True,
                        tail=tail)

    def _emit_untaken_arm(self, ind, c, pc_c, annul, tail=True) -> None:
        cont = (pc_c + 8) & _M32
        if annul:
            self._leave(ind, cont, (pc_c + 12) & _M32, c + 2, c + 1,
                        False, annulled=True, tail=tail)
        else:
            self.emit_inst(ind, c + 1, str(cont), in_slot=True)
            self._leave(ind, cont, (pc_c + 12) & _M32, c + 2, c + 2,
                        False, tail=tail)

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
                # A taken conditional branch never annuls its slot.  A
                # block's arms both leave: unless the untaken one annuls
                # its slot they count alike and share the count.
                share = not self.loop and not annul
                self.emit(ind, "vp = ctrl.psr")
                self.emit(ind, f"if {_COND_EXPR[cond]}:")
                self._emit_taken_arm(ind + 1, c, target, t_npc, False,
                                     tail=not share)
                self.emit(ind, "else:")
                self._emit_untaken_arm(ind + 1, c, pc_c, annul,
                                       tail=not share)
                if share:
                    self._tail(ind, c + 2, c + 2, 0)
            return
        # CALL / JMPL: run the shared handler, read the delayed target.
        self._guard(ind, pc_c, str((pc_c + 4) & _M32))
        self.emit(ind, "u._transfer_target = None")
        self._call(ind, f"_H[{self.base + c}](u, _I[{self.base + c}])")
        self.emit(ind, "tgt = u._transfer_target")
        if self.recording:
            self.emit(ind, f"tk = {EXIT_TAKEN}")
        self.emit_inst(ind, c + 1, "tgt", in_slot=True)
        if not self.loop:
            self._epilogue(ind, "tgt", "(tgt + 4) & 0xFFFFFFFF", c + 2,
                           c + 2, True)
            return
        link = self.links[self.j]
        if link in self.index:
            self.emit(ind, f"if tgt != {link}:")
            self._out(ind + 1, "tgt", c + 2, c + 2, True)
            self._transfer(ind, self.index[link], c + 2, c + 2, True)
        else:
            self._out(ind, "tgt", c + 2, c + 2, True)

    def _emit_member(self, ind: int) -> None:
        straight = self.cti if self.cti is not None else len(self.insts)
        for k in range(straight):
            pc = (self.entry + 4 * k) & _M32
            self.emit_inst(ind, k, str((pc + 4) & _M32), in_slot=False)
        if self.cti is not None:
            self._emit_cti(ind)
            return
        end = (self.entry + 4 * straight) & _M32
        self._leave(ind, end, (end + 4) & _M32, straight, straight, False)

    # -- whole function ----------------------------------------------------

    def source(self) -> str:
        e = self.emit
        # ctrl/G/W are bound as defaults at compile time (functions are
        # per-unit, and the unit shares these objects for its lifetime)
        # so the prologue is two statements, not six.
        extra = ", _alive=_alive" if self.loop else ""
        if self.recording:
            extra += ", _D=_D, _EV=_EV"
        e(0, f"def _block(u, left, ctrl=_ctrl, G=_G, W=_W, _RT=_RT{extra}):")
        self._emit_window_bases(1)
        self._load_regs(1)
        if self.recording:
            e(1, "tk = 0")
        arms = len(self.members) > 1
        body = 2
        where = "0, 0, 0, 0"
        if self.loop:
            e(1, "lf = left")
            e(1, "nb = na = 0")
            where = "left - lf, nb, na, 0"
            if arms:
                e(1, "m = 0")
                where = "left - lf, nb, na, m"
        e(1, "try:")
        if self.loop:
            e(2, "while True:")
            body = 3
        for j in range(len(self.members)):
            self._enter(j)
            if arms:
                e(body, f"if m == {j}:")
            self._emit_member(body + arms)
        # The rare exits, a trap and a stale-code bail, run out of line;
        # a region's registers go back to the file before the trap
        # enters, and on every other way out in the ``finally``, unless
        # a shared handler's call left the file holding them (``sy``).
        tk = "tk" if self.recording else "0"
        e(1, "except _Trap as trap:")
        self._sync(2)
        e(2, f"return _X.leave(u, {where}, {tk}, trap)")
        if any(self.writes):
            e(1, "except _Stale:")
            self._sync(2)
            e(2, f"return _X.leave(u, {where}, {tk})")
        if self.dirty:
            e(1, "finally:")
            self._sync(2, flag=False)
        return "\n".join(self.lines) + "\n"


class _RareExits:
    """The rare exits of one generated function, out of line: a trap,
    and a write that made the rest of the running member stale (a
    *bail*: the write retired, and execution continues after it).

    The function's ``except`` arms pass the steps its completed member
    bodies took, their count and their annulled slots, the running
    member ``m`` (all 0 in a block) and ``tk``, the recording's taken
    flag of the member's CTI, for a trap in its delay slot.  Whatever
    raised pinned ``unit.pc`` to its instruction, so the member's
    retired instructions follow from the member's entry."""

    __slots__ = ("entries", "ids", "events")

    def __init__(self, gen: _Codegen, events):
        self.entries = tuple(entry for entry, _, _ in gen.members)
        self.ids = gen.block_ids
        #: The recording's event log, or None.
        self.events = events

    def leave(self, unit, done: int, bodies: int, annulled: int, m: int,
              tk: int, trap=None) -> int:
        """Count and log the exit; on a trap, enter it.  Returns the
        steps of the whole call."""
        n = (unit.pc - self.entries[m]) >> 2
        if trap is None:
            n += 1
        if self.events is not None:
            self.events(self.ids[m] << 16 | (n + (trap is not None)) << 9
                        | n << 2 | tk)
        steps = done + n
        unit.cycles += steps
        unit.instret += done - annulled + n
        unit.annulled_slots += annulled
        unit._exit = bodies
        if trap is None:
            unit.pc = (unit.pc + 4) & _M32
            unit.npc = (unit.pc + 4) & _M32
            return steps
        unit._enter_trap(trap)
        unit.cycles += 1
        return steps + 1


def _out(unit, pc: int, steps: int, bodies: int, annulled: int) -> int:
    """Leave a region for *pc* after *steps*, of which *annulled* were
    annulled slots and the rest retired, in *bodies* completed member
    bodies before the one that exited."""
    unit.pc = pc
    unit.npc = (pc + 4) & _M32
    unit.cycles += steps
    unit.instret += steps - annulled
    unit.annulled_slots += annulled
    unit._exit = bodies
    return steps


#: OP_MEM op3s that cannot write memory (the rest, plus FLUSH, make a
#: block write-capable).
_PURE_LOADS = frozenset(_LOADS) | {Op3Mem.LDD}


def _writes(inst) -> bool:
    return ((inst.op == isa.OP_MEM and inst.op3 not in _PURE_LOADS)
            or (inst.op == isa.OP_ARITH and inst.op3 == Op3.FLUSH))


class _Stale(Exception):
    """A write from generated code made the rest of its running member
    stale; the function's ``except _Stale`` arm leaves after it."""


def _stale(unit, span, write, *args) -> None:
    """Run ``write(*args)`` (a store or FLUSH) from generated code whose
    running member spans ``span = (lo, hi)``; raise :class:`_Stale` if
    that made the member stale (see :meth:`TranslatedUnit.data_write`)."""
    unit._active_lo, unit._active_hi = span
    unit._code_dirty = False
    write(*args)
    if unit._code_dirty:
        raise _Stale


def _pin(unit, address: int, size: int, pc: int, npc: int | None) -> None:
    """Pin pc/npc for a trap (*npc* None: pc + 4) and raise the
    misaligned-address trap if *address* needs it."""
    unit.pc = pc
    unit.npc = (pc + 4) & _M32 if npc is None else npc
    if address & (size - 1):
        raise traps.mem_address_not_aligned(address)


def _ld(unit, offset: int, size: int, signed: int, pc: int,
        npc: int | None = None) -> int:
    """Slow path of an inline load at *pc* from *offset* (the address
    less the unit's RAM base, not wrapped): misaligned, MMIO, a fault
    or any address outside the inline RAM region."""
    address = (offset + unit._ram_base) & _M32
    _pin(unit, address, size, pc, npc)
    return unit.data_read(address, size, signed=signed)


def _st(unit, offset: int, size: int, value: int, span, pc: int,
        npc: int | None = None) -> None:
    """Slow path of an inline store at *pc*: as :func:`_ld`, plus a
    store to a memoized word or a page holding translated code.  With a
    running member's *span*, raises :class:`_Stale` as :func:`_stale`
    does; None in a delay slot."""
    address = (offset + unit._ram_base) & _M32
    _pin(unit, address, size, pc, npc)
    if span is None:
        unit.data_write(address, size, value)
    else:
        _stale(unit, span, unit.data_write, address, size, value)


_compiles = itertools.count()


def _compile(unit, members, links):
    """Generate and compile the function for *members* (``(entry,
    insts, cti)`` each), a region's with its CALL/JMPL *links* (see
    :class:`_Codegen`), a block's with None; returns ``(function,
    source, codegen, alive flag)``."""
    recording = unit.recording
    block_ids = None
    if recording is not None:
        block_ids = [recording._ids.setdefault(
                         (entry, tuple(inst.word for inst in insts)),
                         len(recording._ids))
                     for entry, insts, _ in members]
    gen = _Codegen(unit, members, links, block_ids)
    source = gen.source()
    insts = [inst for _, member_insts, _ in members for inst in member_insts]
    handlers = tuple(_resolve_handler(inst) or IntegerUnit._dispatch
                     for inst in insts)
    size = unit.regs._size
    row_table = tuple(
        tuple(((cwp % (size // 16)) * 16 + reg - 8) % size
              for reg in gen.window_regs)
        for cwp in range(32))
    namespace = {
        "_Trap": traps.TrapException,
        "_I": tuple(insts),
        "_H": handlers,
        "_B": unit._ram[2] if unit._ram is not None else None,
        "_LW": _WORD.unpack_from,
        "_SW": _WORD.pack_into,
        "_ic": unit._inst_cache,
        "_pages": unit._code_pages,
        "_ctrl": unit.ctrl,
        "_G": unit.regs._globals,
        "_W": unit.regs._window_regs,
        "_RT": row_table,
        "_stale": _stale,
        "_Stale": _Stale,
        "_ld": _ld,
        "_st": _st,
        "_SPAN": tuple((entry, entry + 4 * len(member_insts))
                       for entry, member_insts, _ in members),
        "_alive": [True],
        "_out": _out,
        "_X": _RareExits(gen, None if recording is None
                         else recording.events.append),
    }
    if recording is not None:
        namespace["_D"] = recording.refs.append
        namespace["_EV"] = recording.events.append
    # A source compiled before (a region formed again after a store
    # dropped it, a block translated again) reuses its code.  The file
    # name lists the members and numbers the compile: a profile keys
    # functions by file name, and must keep a region apart from its head
    # block and a retranslation from the different code it replaces.
    code = unit._code.get(source)
    if code is None:
        unit.source_chars += len(source)
        label = "<block {} #{}>".format(
            " ".join(f"0x{entry:08x}" for entry, _, _ in members),
            next(_compiles))
        code = unit._code[source] = compile(source, label, "exec")
    exec(code, namespace)
    # The function's globals are the namespace: leaving the function in
    # it would make a cycle that pins the unit's memory until a full GC.
    function = namespace.pop("_block")
    return function, source, gen, namespace["_alive"]


def _compile_block(unit, entry: int, insts: list, cti: int | None
                   ) -> TranslatedBlock:
    code, source, gen, _ = _compile(unit, [(entry, insts, cti)], None)
    length = len(insts)
    pages = tuple(range(entry >> PAGE_SHIFT,
                        ((entry + 4 * length - 1) >> PAGE_SHIFT) + 1))
    block = TranslatedBlock(entry, length, code, tuple(insts), cti, pages,
                            source, gen.writes[0])
    recording = unit.recording
    if recording is not None and gen.block_ids[0] == len(recording.blocks):
        recording.blocks.append(block)
    return block


def _compile_trace(unit, members: list) -> Trace:
    """Compile *members* (the blocks of a loop region, head first; see
    :meth:`TranslatedUnit._region`) into one :class:`Trace`."""
    code, source, _, alive = _compile(
        unit, [(block.entry, block.insts, block.cti) for block in members],
        tuple(block.succ for block in members))
    return Trace(members, code, source, alive)


def _exits(block: TranslatedBlock) -> tuple:
    """The PCs *block* can exit to: its branch's arms, the word after
    it, or for a CALL or JMPL the target it last took (``succ``)."""
    entry, insts, cti = block.entry, block.insts, block.cti
    if cti is None:
        return ((entry + 4 * len(insts)) & _M32,)
    inst = insts[cti]
    if inst.op != isa.OP_BRANCH_SETHI:
        return () if block.succ is None else (block.succ,)
    pc_c = entry + 4 * cti
    taken = (pc_c + (inst.disp22 << 2)) & _M32
    untaken = (pc_c + 8) & _M32
    if inst.cond == Cond.A:
        return (taken,)
    if inst.cond == Cond.N:
        return (untaken,)
    return (taken, untaken)


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
    its PC cold again: the next entry retranslates it.  When a block or
    region exits backwards to a translated PC for the
    :data:`HOT_TRACE`-th time, the translated blocks on a cycle through
    it are compiled into a :class:`Trace` (:meth:`_region`) that the
    dispatch loop enters at its head instead of the head's block.

    ``on_retire`` sees only the interpreted single steps: an instruction
    executed inside a block never reaches it.  Every retirement shows in
    a :class:`RecordingUnit`'s events instead, and a replayed record's
    instruction mix is a fold over them (:mod:`repro.core.replay`).
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
        self.traces_translated = 0
        #: Calls of generated functions (blocks and traces) made by
        #: :meth:`fast_forward`.
        self.dispatches = 0
        #: Characters of generated source compiled, blocks and traces.
        self.source_chars = 0
        #: Compiled code by generated source; cleared at MAX_BLOCKS.
        self._code: dict[str, object] = {}
        #: Per entry PC, its block, or the trace headed there.
        self._blocks: dict[int, TranslatedBlock | Trace] = {}
        #: The live traces by head PC.
        self._traces: dict[int, Trace] = {}
        #: Set by a region's exit: the member bodies the call completed
        #: before the one that exited.
        self._exit = 0
        #: Interpreted entries per PC, up to HOT_ENTRY - 1; a dropped
        #: block leaves its count, so its PC stays hot.
        self._entries: dict[int, int] = {}
        #: Returns to each PC from a block, up to HOT_TRACE; restarted
        #: when a store drops a member of the PC's trace.
        self._closings: dict[int, int] = {}
        #: Per head of a trace a store dropped, the trace's members: the
        #: region forms again at the first return that finds them all
        #: translated again, at the latest at the HOT_TRACE-th.
        self._lost: dict[int, frozenset] = {}
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
        #: What generated code's load/store offsets are relative to.
        self._ram_base = 0 if best is None else best[0]

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
            self._clear_blocks()
        self._code_dirty = True

    def _clear_blocks(self) -> None:
        self.blocks_invalidated += len(self._blocks)
        self._blocks.clear()
        self._code_pages.clear()
        for trace in self._traces.values():
            trace.alive[0] = False
        self._traces.clear()

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
        for head, trace in tuple(self._traces.items()):
            if entry in trace.entries:
                # A running trace stops before it re-enters the member;
                # the head keeps its own block unless that was dropped.
                trace.alive[0] = False
                del self._traces[head]
                if self._blocks.get(head) is trace:
                    self._blocks[head] = trace.fallback
                # The region forms again once its members are back.
                self._lost[head] = trace.entries
                self._closings[head] = 0

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
            self._clear_blocks()
            self._entries.clear()
            self._closings.clear()
            self._lost.clear()
            self._code.clear()
        block = _compile_block(self, entry, insts, cti)
        self.blocks_translated += 1
        self._blocks[entry] = block
        for page in block.pages:
            self._code_pages.setdefault(page, set()).add(entry)
        return block

    def _chain(self, head: int) -> None:
        """Control came back to *head* from a block or region: from the
        HOT_TRACE-th time on, compile the loop region through *head*
        (:meth:`_region`) into a trace.  If *head* is on no cycle of
        translated blocks, the walk is tried again on a return after the
        next block is translated.  After a store dropped a member of the
        head's trace, the region forms again at the first return that
        finds every old member translated again (a walk that meets one
        still missing waits for the next translation), and at the latest
        at the HOT_TRACE-th return: one compile per drop, not one per
        member as they come back."""
        first = self._blocks.get(head)
        if type(first) is not TranslatedBlock:
            return
        closings = self._closings.get(head, 0) + 1
        lost = self._lost.get(head)
        if closings <= HOT_TRACE:
            self._closings[head] = closings
            if closings < HOT_TRACE and lost is None:
                return
        due = closings == HOT_TRACE
        if (self._horizon is not None and self.cycles > self._horizon
                or not due and first.walked == self.blocks_translated):
            return
        region = self._region(first)
        if region is None or (not due and lost is not None
                              and lost & region[1]):
            first.walked = self.blocks_translated
            return
        self._lost.pop(head, None)
        trace = _compile_trace(self, region[0])
        self.traces_translated += 1
        self._blocks[head] = self._traces[head] = trace

    def _region(self, first: TranslatedBlock) -> tuple | None:
        """The translated blocks reachable from *first* through their
        exits (:func:`_exits`) that lead back to it, *first* included,
        and the exits on the way that were entered but are not
        translated yet; None if *first* is on no such cycle.  The blocks
        are laid out along each one's last exit (``succ``) from *first*
        on, so the loop's hot path falls through, and cut at
        MAX_REGION."""
        blocks = self._blocks

        def at(pc):
            block = blocks.get(pc)
            return block.fallback if type(block) is Trace else block

        succs: dict[int, list] = {}
        cold = set()
        walk = [first]
        while walk:
            block = walk.pop()
            if block.entry in succs:
                continue
            found = succs[block.entry] = []
            for pc in _exits(block):
                target = at(pc)
                if target is not None:
                    found.append(target)
                elif pc in self._entries:
                    cold.add(pc)
            walk += found
        preds: dict[int, list] = {}
        for entry, found in succs.items():
            for block in found:
                preds.setdefault(block.entry, []).append(entry)
        cycle, walk = set(), [first.entry]
        while walk:
            for entry in preds.get(walk.pop(), ()):
                if entry not in cycle:
                    cycle.add(entry)
                    walk.append(entry)
        if first.entry not in cycle:
            return None
        members: list[TranslatedBlock] = []
        placed: set[int] = set()
        follow = [first]
        while follow:
            block = follow.pop()
            # Lay out the path from *block* along the last exits.
            while block.entry in cycle and block.entry not in placed:
                placed.add(block.entry)
                members.append(block)
                follow += reversed(succs[block.entry])
                block = at(block.succ)
                if block is None:
                    break
        return members[:MAX_REGION], cold

    # -- execution ---------------------------------------------------------

    def fast_forward(self, budget: int, stop_pc: int | None = None) -> int:
        """Advance up to *budget* steps, stopping early when the PC
        reaches *stop_pc*.  Blockwise where possible; ``on_retire``
        fires only for the steps interpreted here."""
        executed = 0
        blocks = self._blocks
        entries = self._entries
        step = self.step
        calls = extra = 0
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
            left = budget - executed
            while (left < block.length
                   or (stop_pc is not None
                       and block.lo <= stop_pc < block.hi)):
                # Not enough budget for a worst-case full pass, or the
                # stop PC may lie inside: keep the step-exact contract
                # by running a trace's head block alone, or a block's
                # steps one at a time.
                block = block.fallback
                if block is None:
                    break
            if block is None:
                executed += step()
                continue
            self._exit = 0
            executed += block.code(self, left)
            calls += 1
            extra += self._exit
            nxt = block.succ = self.pc
            if nxt <= pc:
                self._chain(nxt)
        # Every call ran one member body, and a region's the bodies its
        # exit left in ``_exit``.
        self.blocks_executed += calls + extra
        self.dispatches += calls
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
        # The interpreter reports the instruction a step retired only
        # through on_retire, keyed here by its pc.  The catcher is the
        # dict's method, not the unit's, so that the unit is in no
        # reference cycle and is freed as soon as it is dropped.
        self._retired: dict[int, DecodedInstruction] = {}
        self.on_retire = self._retired.__setitem__

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

    def step(self) -> int:
        recording = self.recording
        pc, traps_taken = self.pc, self.trap_count
        recording._code_read(pc, pc + 4)
        steps = super().step()
        inst = self._retired.pop(pc, None)
        if inst is not None:
            taken = self._transfer_target is not None
            recording.events.append(STEP_TAKEN if taken else STEP_RETIRED)
            recording.step_words.append(inst.word)
        else:
            recording.events.append(STEP_TRAPPED
                                    if self.trap_count != traps_taken
                                    else STEP_ANNULLED)
            recording.step_words.append(0)
        recording.step_pcs.append(pc)
        return steps
