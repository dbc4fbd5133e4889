"""Machine-code verifier: lint passes over a linked image.

:func:`analyze_image` recovers the CFG, solves the dataflow problems
per function, and runs the checks the ISSUE names:

* structural CFG findings (CTI in a delay slot, branch targets outside
  the text segment, unknown opcodes) — emitted during recovery;
* ``unreachable-block`` — text not reachable from the entry;
* ``uninit-read`` — a register read on some path before any write;
* ``dead-store`` — a pure ALU/SETHI result (including condition
  codes) that no path ever reads;
* ``window-imbalance`` — save/restore depth mismatching across merges
  or nonzero at a function return;
* ``misaligned-mem`` / ``odd-register-pair`` — memory ops whose
  statically-known address violates the access alignment, and
  ``ldd``/``std`` with an odd destination register.

Severity policy: structural impossibilities (malformed delay slots,
window imbalance, misalignment) are errors and gate CI; dataflow
findings that may be conservative over-approximation (uninit reads,
dead stores, unreachable code) are warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import (
    MEM_WIDTHS,
    ControlFlowGraph,
    Instruction,
    InstrKind,
    build_cfg,
)
from repro.analysis.dataflow import (
    LOCATION_NAMES,
    DefinedRegisters,
    FunctionDataflow,
    analyze_function,
    block_effects,
    locations,
)
from repro.analysis.diagnostics import DiagnosticReport
from repro.cpu.isa import Op3, Op3Mem
from repro.toolchain.objfile import Image
from repro.utils import u32

#: Codes a workload may allowlist without failing :func:`verify_image`.
DEFAULT_ALLOW: frozenset[str] = frozenset()


@dataclass
class FunctionAnalysis:
    """One function's solved facts plus its findings."""

    entry: int
    name: str
    dataflow: FunctionDataflow


@dataclass
class ProgramAnalysis:
    """Everything the verifier learned about one image."""

    cfg: ControlFlowGraph
    functions: list[FunctionAnalysis] = field(default_factory=list)
    report: DiagnosticReport = field(default_factory=DiagnosticReport)

    def function(self, name: str) -> FunctionAnalysis | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


def analyze_image(image: Image,
                  subject: str = "<image>") -> ProgramAnalysis:
    """Run every verifier pass over *image*."""
    report = DiagnosticReport(subject=subject)
    cfg = build_cfg(image, report)
    analysis = ProgramAnalysis(cfg=cfg, report=report)
    _check_unreachable(cfg, report)
    for entry in cfg.function_entries:
        name = cfg.nearest_symbol(entry) or f"fn_0x{entry:x}"
        flow = analyze_function(cfg, entry)
        analysis.functions.append(FunctionAnalysis(entry, name, flow))
        _check_uninit_reads(cfg, flow, report)
        _check_dead_stores(cfg, flow, report)
        _check_window_balance(cfg, flow, name, report)
    _check_memory_ops(cfg, report)
    return analysis


def verify_image(image: Image, subject: str = "<image>",
                 allow: frozenset[str] = DEFAULT_ALLOW) -> DiagnosticReport:
    """The CI-facing entry point: just the report."""
    return analyze_image(image, subject=subject).report


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _check_unreachable(cfg: ControlFlowGraph,
                       report: DiagnosticReport) -> None:
    live = cfg.reachable()
    for start, block in sorted(cfg.blocks.items()):
        if start not in live:
            report.warning(
                "unreachable-block",
                f"block of {len(block.instructions)} instruction(s) is "
                f"unreachable from the entry", pc=start,
                symbol=cfg.nearest_symbol(start))


def _check_uninit_reads(cfg: ControlFlowGraph, flow: FunctionDataflow,
                        report: DiagnosticReport) -> None:
    """Replay the definite-assignment transfer, flagging any use of a
    location not written on *every* path from the function entry."""
    seen: set[tuple[int, int]] = set()
    for block in flow.blocks:
        defined = flow.defined[block.start][0]
        for effect in block_effects(block):
            if effect.instr is None:
                # Synthetic callee summary: its "uses" model arbitrary
                # arity, not actual reads — checking them is pure noise.
                defined = DefinedRegisters.step(effect, defined)
                continue
            unwritten = effect.uses & ~defined
            for loc in locations(unwritten):
                if (effect.pc, loc) in seen:
                    continue
                seen.add((effect.pc, loc))
                report.warning(
                    "uninit-read",
                    f"{LOCATION_NAMES[loc]} may be read before it is "
                    f"written", pc=effect.pc,
                    symbol=cfg.nearest_symbol(effect.pc))
            defined = DefinedRegisters.step(effect, defined)


_PURE_KINDS = (InstrKind.ALU, InstrKind.SETHI)


def _check_dead_stores(cfg: ControlFlowGraph, flow: FunctionDataflow,
                       report: DiagnosticReport) -> None:
    """Pure register-to-register results nothing ever reads."""
    for block in flow.blocks:
        for effect in block_effects(block):
            instr = effect.instr
            if instr is None or instr.kind not in _PURE_KINDS:
                continue
            if effect.may or not effect.defs:
                continue
            live_after = flow.live_after.get(effect.pc)
            if live_after is None or live_after & effect.defs:
                continue
            dests = ", ".join(LOCATION_NAMES[loc]
                              for loc in locations(effect.defs))
            report.warning(
                "dead-store",
                f"result in {dests} is never read on any path",
                pc=effect.pc, symbol=cfg.nearest_symbol(effect.pc))


def _check_window_balance(cfg: ControlFlowGraph, flow: FunctionDataflow,
                          name: str, report: DiagnosticReport) -> None:
    """Forward save/restore depth analysis.

    Every path through a function must keep a consistent window depth:
    merges with mismatched depths, depth going negative, or a return
    with a nonzero net depth are all errors (the caller's window would
    be corrupted).
    """
    index = {b.start: b for b in flow.blocks}
    depth_in: dict[int, int] = {flow.entry: 0}
    worklist = [flow.entry]
    while worklist:
        start = worklist.pop(0)
        block = index[start]
        depth = depth_in[start]
        for effect in block_effects(block):
            if effect.window and not effect.may:
                depth += effect.window
                if depth < 0:
                    report.error(
                        "window-imbalance",
                        f"restore without a matching save in {name} "
                        f"(depth {depth})", pc=effect.pc,
                        symbol=cfg.nearest_symbol(effect.pc))
                    depth = 0  # damp to avoid cascading reports
        if block.is_return and depth != 0:
            # ``ret; restore`` keeps the restore in the delay slot, so
            # a conventional function body nets to zero here.
            report.error(
                "window-imbalance",
                f"{name} returns with net window depth {depth:+d}",
                pc=block.instructions[-1].pc,
                symbol=cfg.nearest_symbol(block.start))
        for succ in block.successors:
            if succ not in index:
                continue
            if succ not in depth_in:
                depth_in[succ] = depth
                worklist.append(succ)
            elif depth_in[succ] != depth:
                report.error(
                    "window-imbalance",
                    f"paths merge at 0x{succ:08x} with window depths "
                    f"{depth_in[succ]} and {depth}", pc=succ,
                    symbol=cfg.nearest_symbol(succ))


def _check_memory_ops(cfg: ControlFlowGraph,
                      report: DiagnosticReport) -> None:
    """Alignment of statically-known addresses + register-pair parity.

    Constants are propagated per block only (sethi/or/add chains, the
    idiom ``set`` expands to), so anything computed is simply unknown —
    the check never guesses.
    """
    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        known: dict[int, int] = {0: 0}  # %g0
        for instr in block.executed():
            inst = instr.inst
            if instr.is_memory:
                op3 = Op3Mem(inst.op3)
                width = MEM_WIDTHS.get(op3, 4)
                if op3 in (Op3Mem.LDD, Op3Mem.LDDA, Op3Mem.STD,
                           Op3Mem.STDA) and inst.rd & 1:
                    report.error(
                        "odd-register-pair",
                        f"{op3.name.lower()} with odd register %r{inst.rd}",
                        pc=instr.pc, symbol=cfg.nearest_symbol(instr.pc))
                addr = _known_address(inst, known)
                if addr is not None and width > 1 and addr % width:
                    report.error(
                        "misaligned-mem",
                        f"{op3.name.lower()} of width {width} at address "
                        f"0x{addr:08x}", pc=instr.pc,
                        symbol=cfg.nearest_symbol(instr.pc))
            _propagate_const(instr, known)


def _known_address(inst, known: dict[int, int]) -> int | None:
    if inst.rs1 not in known:
        return None
    base = known[inst.rs1]
    if inst.imm:
        return u32(base + inst.simm13)
    if inst.rs2 in known:
        return u32(base + known[inst.rs2])
    return None


def _propagate_const(instr: Instruction, known: dict[int, int]) -> None:
    """Update the per-block constant map across one instruction."""
    inst = instr.inst
    if instr.kind == InstrKind.SETHI:
        if inst.rd != 0:
            known[inst.rd] = u32(inst.imm22 << 10)
        return
    if instr.kind == InstrKind.ALU:
        op3 = Op3(inst.op3)
        src1 = known.get(inst.rs1)
        src2 = inst.simm13 if inst.imm else known.get(inst.rs2)
        value: int | None = None
        if src1 is not None and src2 is not None:
            if op3 == Op3.OR:
                value = u32(src1 | src2)
            elif op3 == Op3.ADD:
                value = u32(src1 + src2)
            elif op3 == Op3.SUB:
                value = u32(src1 - src2)
        if inst.rd != 0:
            if value is not None:
                known[inst.rd] = value
            else:
                known.pop(inst.rd, None)
        return
    if instr.kind in (InstrKind.LOAD, InstrKind.ATOMIC,
                      InstrKind.JMPL, InstrKind.READ_STATE,
                      InstrKind.CUSTOM):
        known.pop(inst.rd, None)
        if instr.kind in (InstrKind.LOAD, InstrKind.ATOMIC) and \
                Op3Mem(inst.op3) in (Op3Mem.LDD, Op3Mem.LDDA):
            known.pop(inst.rd | 1, None)
        return
    if instr.kind in (InstrKind.SAVE, InstrKind.RESTORE,
                      InstrKind.CALL):
        # Window rotation / callee clobber: forget everything but %g0.
        known.clear()
        known[0] = 0


__all__ = [
    "DEFAULT_ALLOW",
    "FunctionAnalysis",
    "ProgramAnalysis",
    "analyze_image",
    "verify_image",
]
