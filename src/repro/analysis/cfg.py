"""Control-flow-graph recovery over linked SPARC V8 images.

Works directly on the bytes the loader would write into FPX SRAM: the
text segment is decoded word-by-word (decoding is total — unknown words
become :attr:`InstrKind.UNKNOWN`, they never raise), classified, and
carved into basic blocks with correct *delayed-branch* semantics:

* a delayed CTI (Bicc / CALL / JMPL / RETT) owns its delay slot — the
  instruction at ``pc + 4`` belongs to the CTI's block and executes
  before control transfers;
* ``b*,a`` annulled branches execute the delay slot only on the taken
  path (``ba,a`` never executes it, ``bn,a`` turns both words into a
  no-op pair);
* Ticc and UNIMP trap immediately — no delay slot.

Function partitioning follows call edges: every call target (plus the
image entry) starts a function, and a function's body is the set of
blocks reachable from its entry *without* crossing calls or returns.
Dominator trees are computed per function with the classic iterative
two-finger algorithm over a reverse-postorder numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.diagnostics import DiagnosticReport
from repro.cpu.decode import DecodedInstruction, decode
from repro.cpu.isa import (
    OP2_BICC,
    OP2_SETHI,
    OP2_UNIMP,
    OP_ARITH,
    OP_BRANCH_SETHI,
    OP_CALL,
    Cond,
    Op3,
    Op3Mem,
)
from repro.toolchain.objfile import Image
from repro.utils import u32


class InstrKind(Enum):
    """Coarse classification driving CFG construction and dataflow."""

    ALU = "alu"
    SETHI = "sethi"
    BRANCH = "branch"        # Bicc, delayed CTI
    CALL = "call"            # CALL, delayed CTI
    JMPL = "jmpl"            # register-indirect CTI (ret/retl/call %reg)
    RETT = "rett"            # return from trap, delayed CTI
    TICC = "ticc"            # trap on condition — immediate, no delay slot
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"        # ldstub / swap: load + store in one
    READ_STATE = "read_state"    # rd %y/%psr/%wim/%tbr
    WRITE_STATE = "write_state"  # wr %y/%psr/%wim/%tbr
    SAVE = "save"
    RESTORE = "restore"
    FLUSH = "flush"
    CUSTOM = "custom"        # CPop1 — Liquid custom instruction
    UNIMP = "unimp"
    UNKNOWN = "unknown"      # undecodable — rendered as .word, never raises


#: Kinds that transfer control through a delay slot.
DELAYED_CTIS = frozenset({InstrKind.BRANCH, InstrKind.CALL,
                          InstrKind.JMPL, InstrKind.RETT})

_LOAD_OP3S = frozenset({Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB,
                        Op3Mem.LDSH, Op3Mem.LDD, Op3Mem.LDA, Op3Mem.LDUBA,
                        Op3Mem.LDUHA, Op3Mem.LDSBA, Op3Mem.LDSHA,
                        Op3Mem.LDDA})
_STORE_OP3S = frozenset({Op3Mem.ST, Op3Mem.STB, Op3Mem.STH, Op3Mem.STD,
                         Op3Mem.STA, Op3Mem.STBA, Op3Mem.STHA, Op3Mem.STDA})
_ATOMIC_OP3S = frozenset({Op3Mem.LDSTUB, Op3Mem.LDSTUBA, Op3Mem.SWAP,
                          Op3Mem.SWAPA})

#: Access width in bytes per memory op3 (alignment checking).
MEM_WIDTHS = {
    Op3Mem.LD: 4, Op3Mem.LDA: 4, Op3Mem.ST: 4, Op3Mem.STA: 4,
    Op3Mem.LDD: 8, Op3Mem.LDDA: 8, Op3Mem.STD: 8, Op3Mem.STDA: 8,
    Op3Mem.LDUH: 2, Op3Mem.LDUHA: 2, Op3Mem.LDSH: 2, Op3Mem.LDSHA: 2,
    Op3Mem.STH: 2, Op3Mem.STHA: 2,
    Op3Mem.LDUB: 1, Op3Mem.LDUBA: 1, Op3Mem.LDSB: 1, Op3Mem.LDSBA: 1,
    Op3Mem.STB: 1, Op3Mem.STBA: 1, Op3Mem.LDSTUB: 1, Op3Mem.LDSTUBA: 1,
    Op3Mem.SWAP: 4, Op3Mem.SWAPA: 4,
}


@dataclass(frozen=True)
class Instruction:
    """One decoded, classified word at an absolute PC."""

    pc: int
    word: int
    inst: DecodedInstruction
    kind: InstrKind

    @property
    def is_delayed_cti(self) -> bool:
        return self.kind in DELAYED_CTIS

    @property
    def is_memory(self) -> bool:
        return self.kind in (InstrKind.LOAD, InstrKind.STORE,
                             InstrKind.ATOMIC)

    def branch_target(self) -> int | None:
        """Static target of a PC-relative CTI, else ``None``."""
        if self.kind == InstrKind.BRANCH:
            return u32(self.pc + (self.inst.disp22 << 2))
        if self.kind == InstrKind.CALL:
            return u32(self.pc + (self.inst.disp30 << 2))
        return None


def classify(inst: DecodedInstruction) -> InstrKind:
    """Total classification — anything unrecognised is ``UNKNOWN``."""
    if inst.op == OP_CALL:
        return InstrKind.CALL
    if inst.op == OP_BRANCH_SETHI:
        if inst.op2 == OP2_BICC:
            return InstrKind.BRANCH
        if inst.op2 == OP2_SETHI:
            return InstrKind.SETHI
        if inst.op2 == OP2_UNIMP:
            return InstrKind.UNIMP
        return InstrKind.UNKNOWN  # FBfcc / CBccc / unallocated op2
    if inst.op == OP_ARITH:
        try:
            op3 = Op3(inst.op3)
        except ValueError:
            return InstrKind.UNKNOWN
        if op3 == Op3.JMPL:
            return InstrKind.JMPL
        if op3 == Op3.RETT:
            return InstrKind.RETT
        if op3 == Op3.TICC:
            return InstrKind.TICC
        if op3 == Op3.SAVE:
            return InstrKind.SAVE
        if op3 == Op3.RESTORE:
            return InstrKind.RESTORE
        if op3 == Op3.FLUSH:
            return InstrKind.FLUSH
        if op3 == Op3.CPOP1:
            return InstrKind.CUSTOM
        if op3 in (Op3.RDASR, Op3.RDPSR, Op3.RDWIM, Op3.RDTBR):
            return InstrKind.READ_STATE
        if op3 in (Op3.WRASR, Op3.WRPSR, Op3.WRWIM, Op3.WRTBR):
            return InstrKind.WRITE_STATE
        if op3 in (Op3.FPOP1, Op3.FPOP2, Op3.CPOP2):
            return InstrKind.UNKNOWN
        return InstrKind.ALU
    try:
        op3 = Op3Mem(inst.op3)
    except ValueError:
        return InstrKind.UNKNOWN
    if op3 in _LOAD_OP3S:
        return InstrKind.LOAD
    if op3 in _STORE_OP3S:
        return InstrKind.STORE
    return InstrKind.ATOMIC


@dataclass
class BasicBlock:
    """A maximal straight-line run, delay slot included.

    ``instructions`` lists the words in memory order; when the block
    ends in a delayed CTI the delay-slot instruction is the last entry.
    ``annulled`` PCs are delay slots that *never* execute (``ba,a`` /
    ``bn,a``); ``conditional_slot`` marks a delay slot that executes
    only on the taken path (annulled conditional branch).
    """

    start: int
    instructions: list[Instruction] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)
    call_target: int | None = None
    #: 'branch'|'call'|'ret'|'retl'|'jmpl'|'rett'|'trap'|'unimp'|'fall'|'end'
    terminator: str = "fall"
    annulled: frozenset[int] = frozenset()
    conditional_slot: int | None = None

    @property
    def end(self) -> int:
        """PC one past the last word of the block."""
        return self.instructions[-1].pc + 4 if self.instructions \
            else self.start

    @property
    def is_return(self) -> bool:
        return self.terminator in ("ret", "retl")

    def executed(self) -> list[Instruction]:
        """Instructions that can execute when this block runs."""
        return [i for i in self.instructions if i.pc not in self.annulled]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BasicBlock(0x{self.start:x}..0x{self.end:x} "
                f"{self.terminator} -> "
                f"{[hex(s) for s in self.successors]})")


@dataclass
class ControlFlowGraph:
    """Whole-program CFG plus the function partition."""

    entry: int
    blocks: dict[int, BasicBlock]
    #: Every decoded word in the text segment, by PC.
    instructions: dict[int, Instruction]
    #: Function entry PCs, sorted (image entry + every call target).
    function_entries: list[int]
    #: name -> address for symbols inside the text segment.
    symbols: dict[str, int]
    diagnostics: DiagnosticReport = field(default_factory=DiagnosticReport)

    # ------------------------------------------------------------------

    def reachable(self) -> set[int]:
        """Block starts reachable from the entry, following both flow
        and call edges."""
        seen: set[int] = set()
        stack = [self.entry]
        while stack:
            start = stack.pop()
            block = self.blocks.get(start)
            if block is None or start in seen:
                continue
            seen.add(start)
            stack.extend(block.successors)
            if block.call_target is not None:
                stack.append(block.call_target)
        return seen

    def function_blocks(self, entry: int) -> list[BasicBlock]:
        """Blocks of one function: reachable from *entry* following
        intra-procedural edges only (calls fall through, returns stop)."""
        seen: set[int] = set()
        stack = [entry]
        order: list[BasicBlock] = []
        while stack:
            start = stack.pop()
            block = self.blocks.get(start)
            if block is None or start in seen:
                continue
            seen.add(start)
            order.append(block)
            stack.extend(block.successors)
        order.sort(key=lambda b: b.start)
        return order

    def nearest_symbol(self, pc: int) -> str | None:
        """Closest text symbol at or before *pc* (diagnostic anchors)."""
        best: tuple[int, str] | None = None
        for name, addr in self.symbols.items():
            if addr <= pc and (best is None or addr > best[0]):
                best = (addr, name)
        if best is None:
            return None
        offset = pc - best[0]
        return best[1] if offset == 0 else f"{best[1]}+0x{offset:x}"

    # -- dominators -----------------------------------------------------

    def dominator_tree(self, entry: int) -> dict[int, int | None]:
        """Immediate dominators for the function rooted at *entry*.

        Returns ``block start -> idom start`` (the entry maps to
        ``None``).  Classic Cooper/Harvey/Kennedy iteration over a
        reverse-postorder numbering.
        """
        blocks = {b.start: b for b in self.function_blocks(entry)}
        if entry not in blocks:
            return {}
        # Reverse postorder via iterative DFS.
        postorder: list[int] = []
        visited: set[int] = {entry}
        stack: list[tuple[int, int]] = [(entry, 0)]
        while stack:
            node, child = stack.pop()
            succs = [s for s in blocks[node].successors if s in blocks]
            if child < len(succs):
                stack.append((node, child + 1))
                nxt = succs[child]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                postorder.append(node)
        rpo = list(reversed(postorder))
        number = {start: idx for idx, start in enumerate(rpo)}
        preds: dict[int, list[int]] = {start: [] for start in rpo}
        for start in rpo:
            for succ in blocks[start].successors:
                if succ in preds:
                    preds[succ].append(start)
        idom: dict[int, int | None] = {entry: entry}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while number[a] > number[b]:
                    a = idom[a]  # type: ignore[assignment]
                while number[b] > number[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for node in rpo:
                if node == entry:
                    continue
                candidates = [p for p in preds[node] if p in idom]
                if not candidates:
                    continue
                new = candidates[0]
                for other in candidates[1:]:
                    new = intersect(new, other)
                if idom.get(node) != new:
                    idom[node] = new
                    changed = True
        result: dict[int, int | None] = {entry: None}
        for node, dom in idom.items():
            if node != entry:
                result[node] = dom
        return result

    def dominates(self, entry: int, a: int, b: int) -> bool:
        """Does block *a* dominate block *b* within *entry*'s function?"""
        idom = self.dominator_tree(entry)
        node: int | None = b
        while node is not None:
            if node == a:
                return True
            node = idom.get(node)
        return False


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def text_segment(image: Image) -> tuple[int, bytes]:
    """The segment containing the entry point (the code the CPU runs)."""
    for base, data in sorted(image.segments.items()):
        if base <= image.entry < base + len(data):
            return base, data
    if not image.segments:
        return image.entry, b""
    base = min(image.segments)
    return base, image.segments[base]


def _decode_all(base: int, data: bytes) -> dict[int, Instruction]:
    instructions: dict[int, Instruction] = {}
    for offset in range(0, len(data) - 3, 4):
        word = int.from_bytes(data[offset:offset + 4], "big")
        inst = decode(u32(word))
        instructions[base + offset] = Instruction(
            pc=base + offset, word=word, inst=inst, kind=classify(inst))
    return instructions


def build_cfg(image: Image,
              report: DiagnosticReport | None = None) -> ControlFlowGraph:
    """Recover the CFG of *image*'s text segment.

    Never raises on malformed code: undecodable words classify as
    :attr:`InstrKind.UNKNOWN` and structural problems (CTI without a
    delay slot, branch into a delay slot, targets outside the text
    segment) surface as diagnostics on the returned graph.
    """
    report = report if report is not None else DiagnosticReport()
    base, data = text_segment(image)
    instructions = _decode_all(base, data)
    end = base + (len(data) & ~3)
    entry = image.entry
    text_symbols = {name: addr for name, addr in image.symbols.items()
                    if base <= addr < end}

    def in_text(pc: int) -> bool:
        return base <= pc < end

    # -- pass 1: leaders and call targets ------------------------------
    leaders: set[int] = {entry} if in_text(entry) else set()
    call_targets: set[int] = set()
    delay_slots: set[int] = set()
    pcs = sorted(instructions)
    for pc in pcs:
        instr = instructions[pc]
        if not instr.is_delayed_cti:
            if instr.kind in (InstrKind.TICC, InstrKind.UNIMP):
                # Immediate trap: next word starts a new block.  Only
                # the *always* trap ends the block unconditionally, but
                # making the next word a leader either way is harmless.
                if instr.kind == InstrKind.UNIMP or \
                        Cond(instr.inst.cond) == Cond.A:
                    leaders.add(pc + 4)
            continue
        delay_slots.add(pc + 4)
        leaders.add(pc + 8)
        target = instr.branch_target()
        if instr.kind == InstrKind.CALL and target is not None:
            if in_text(target):
                call_targets.add(target)
                leaders.add(target)
            else:
                report.error("call-target-outside-text",
                             f"call target 0x{target:08x} is outside the "
                             f"text segment", pc=pc)
        elif target is not None:
            if in_text(target):
                leaders.add(target)
            else:
                report.error("branch-target-outside-text",
                             f"branch target 0x{target:08x} is outside "
                             f"the text segment", pc=pc)
        if pc + 4 not in instructions:
            report.error("missing-delay-slot",
                         "delayed CTI at the end of the text segment has "
                         "no delay slot", pc=pc)

    for target in sorted(leaders & delay_slots):
        owner = target - 4
        report.warning("branch-into-delay-slot",
                       f"0x{target:08x} is both a branch target and the "
                       f"delay slot of the CTI at 0x{owner:08x}",
                       pc=target)

    # -- pass 2: carve blocks ------------------------------------------
    blocks: dict[int, BasicBlock] = {}
    current: BasicBlock | None = None
    skip_until = base
    for pc in pcs:
        if pc < skip_until:
            continue
        instr = instructions[pc]
        if current is None or pc in leaders:
            current = BasicBlock(start=pc)
            blocks[pc] = current
        current.instructions.append(instr)

        if instr.is_delayed_cti and pc + 4 in instructions and \
                pc + 4 not in leaders:
            slot = instructions[pc + 4]
            current.instructions.append(slot)
            if slot.is_delayed_cti:
                report.error(
                    "cti-in-delay-slot",
                    f"{slot.kind.value} in the delay slot of the "
                    f"{instr.kind.value} at 0x{pc:08x}", pc=slot.pc)
            _finish_cti_block(current, instr, slot.pc, report)
            skip_until = pc + 8
            current = None
            continue
        if instr.is_delayed_cti:
            # Delay slot missing or hijacked by a branch target: close
            # the block on the CTI alone (diagnosed above).
            _finish_cti_block(current, instr, None, report)
            skip_until = pc + 4
            current = None
            continue
        if instr.kind == InstrKind.UNIMP or (
                instr.kind == InstrKind.TICC and
                Cond(instr.inst.cond) == Cond.A):
            current.terminator = ("unimp" if instr.kind == InstrKind.UNIMP
                                 else "trap")
            current = None
            continue
        if pc + 4 in leaders and pc + 4 in instructions:
            current.terminator = "fall"
            current.successors.append(pc + 4)
            current = None
    if current is not None:
        current.terminator = "end"

    # -- pass 3: predecessor edges -------------------------------------
    for block in blocks.values():
        block.successors = [s for s in block.successors if s in blocks]
        for succ in block.successors:
            blocks[succ].predecessors.append(block.start)

    function_entries = sorted({entry} | call_targets)
    for pc in sorted(instructions):
        if instructions[pc].kind == InstrKind.UNKNOWN:
            report.warning(
                "unknown-opcode",
                f"undecodable word 0x{instructions[pc].word:08x} "
                f"(rendered as .word)", pc=pc)

    return ControlFlowGraph(entry=entry, blocks=blocks,
                            instructions=instructions,
                            function_entries=function_entries,
                            symbols=text_symbols, diagnostics=report)


def _finish_cti_block(block: BasicBlock, cti: Instruction,
                      slot_pc: int | None,
                      report: DiagnosticReport) -> None:
    """Set terminator / successors / annul bookkeeping for a CTI block."""
    pc = cti.pc
    after = pc + 8 if slot_pc is not None else pc + 4
    if cti.kind == InstrKind.BRANCH:
        block.terminator = "branch"
        cond = Cond(cti.inst.cond)
        target = cti.branch_target()
        annul = cti.inst.annul
        if cond == Cond.A:
            if target is not None:
                block.successors.append(target)
            if annul and slot_pc is not None:
                block.annulled = frozenset({slot_pc})
        elif cond == Cond.N:
            block.successors.append(after)
            if annul and slot_pc is not None:
                block.annulled = frozenset({slot_pc})
        else:
            if target is not None:
                block.successors.append(target)
            block.successors.append(after)
            if annul and slot_pc is not None:
                block.conditional_slot = slot_pc
    elif cti.kind == InstrKind.CALL:
        block.terminator = "call"
        block.call_target = cti.branch_target()
        block.successors.append(after)
    elif cti.kind == InstrKind.JMPL:
        inst = cti.inst
        if inst.rd == 0 and inst.rs1 in (15, 31) and inst.imm and \
                inst.simm13 == 8:
            block.terminator = "ret" if inst.rs1 == 31 else "retl"
        elif inst.rd == 15:
            block.terminator = "call"   # call through a register
            block.successors.append(after)
        else:
            block.terminator = "jmpl"
            report.warning("indirect-jump",
                           "register-indirect jump; static analysis "
                           "cannot follow it", pc=pc)
    else:  # RETT
        block.terminator = "rett"


__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "DELAYED_CTIS",
    "Instruction",
    "InstrKind",
    "MEM_WIDTHS",
    "build_cfg",
    "classify",
    "text_segment",
]
