"""SPARC V8 assembler (the GAS stage of the paper's cross-compiler flow).

Accepts the standard SPARC assembly dialect: sections, labels, data
directives, the full V8 integer instruction set, and the usual GAS
synthetic instructions (``set``, ``mov``, ``cmp``, ``ret``, ``nop``, …).
Produces a relocatable :class:`~repro.toolchain.objfile.ObjectFile`; the
linker assigns absolute addresses.

Single-pass design: instructions are emitted immediately and references to
symbols are recorded as fix-ups.  PC-relative fix-ups whose target lands
in the same section are patched at the end of assembly; everything else
becomes a relocation for the linker.  This works because no statement's
*size* depends on a forward symbol (``set symbol, reg`` always expands to
two instructions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.cpu.isa import BRANCH_MNEMONICS, TRAP_MNEMONICS, Cond, Op3, Op3Mem
from repro.toolchain.asm import encoder
from repro.toolchain.objfile import (
    ObjectFile,
    RelocKind,
    Relocation,
    Section,
    apply_relocation,
)


class AssemblyError(Exception):
    """Syntax or semantic error, annotated with file:line."""

    def __init__(self, message: str, source: str = "<memory>", line: int = 0):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


# ---------------------------------------------------------------------------
# Expressions: integer constants and `symbol + constant`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Either a pure constant (``symbol is None``) or ``symbol + addend``."""

    symbol: str | None
    addend: int

    @property
    def is_constant(self) -> bool:
        return self.symbol is None

    def constant(self) -> int:
        if self.symbol is not None:
            raise ValueError(f"expression involves symbol '{self.symbol}'")
        return self.addend


_TOKEN_RE = re.compile(
    r"\s*(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+|'(?:\\.|[^'])'|[A-Za-z_.$][\w.$]*"
    r"|<<|>>|[-+*/%&|^~()])"
)


class _ExprParser:
    """Recursive-descent parser for assembler expressions.

    Symbols may only combine additively with constants (which is all
    hand-written SPARC assembly and our compiler ever need); any other
    operator applied to a symbolic sub-expression is an error.
    """

    def __init__(self, text: str):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                if text[pos:].strip():
                    raise ValueError(f"bad expression near '{text[pos:]}'")
                break
            self.tokens.append(match.group(1))
            pos = match.end()
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of expression")
        self.index += 1
        return token

    def parse(self) -> Expr:
        result = self._additive()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens: {self.tokens[self.index:]}")
        return result

    def _additive(self) -> Expr:
        left = self._term()
        while self.peek() in ("+", "-"):
            op = self.next()
            right = self._term()
            if op == "+":
                if left.symbol and right.symbol:
                    raise ValueError("cannot add two symbols")
                left = Expr(left.symbol or right.symbol, left.addend + right.addend)
            else:
                if right.symbol:
                    raise ValueError("cannot subtract a symbol")
                left = Expr(left.symbol, left.addend - right.addend)
        return left

    def _term(self) -> Expr:
        left = self._unary()
        while self.peek() in ("*", "/", "%", "&", "|", "^", "<<", ">>"):
            op = self.next()
            right = self._unary()
            a, b = left.constant(), right.constant()
            ops = {
                "*": a * b, "/": a // b if b else 0, "%": a % b if b else 0,
                "&": a & b, "|": a | b, "^": a ^ b, "<<": a << b, ">>": a >> b,
            }
            left = Expr(None, ops[op])
        return left

    def _unary(self) -> Expr:
        token = self.peek()
        if token == "-":
            self.next()
            inner = self._unary()
            return Expr(None, -inner.constant())
        if token == "~":
            self.next()
            inner = self._unary()
            return Expr(None, ~inner.constant())
        if token == "+":
            self.next()
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        token = self.next()
        if token == "(":
            inner = self._additive()
            if self.next() != ")":
                raise ValueError("missing ')'")
            return inner
        if token[0].isdigit():
            return Expr(None, int(token, 0))
        if token.startswith("'"):
            body = token[1:-1]
            escapes = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\r": "\r",
                       "\\\\": "\\", "\\'": "'"}
            return Expr(None, ord(escapes.get(body, body[-1])))
        if re.fullmatch(r"[A-Za-z_.$][\w.$]*", token):
            return Expr(token, 0)
        raise ValueError(f"unexpected token '{token}'")


def parse_expr(text: str) -> Expr:
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# Register names
# ---------------------------------------------------------------------------

_REG_ALIASES = {"%sp": 14, "%fp": 30}
_SPECIALS = {"%y": "y", "%psr": "psr", "%wim": "wim", "%tbr": "tbr"}


def parse_register(token: str) -> int:
    token = token.strip().lower()
    if token in _REG_ALIASES:
        return _REG_ALIASES[token]
    match = re.fullmatch(r"%(g|o|l|i|r)(\d+)", token)
    if not match:
        raise ValueError(f"not a register: '{token}'")
    kind, number = match.group(1), int(match.group(2))
    limits = {"g": 8, "o": 8, "l": 8, "i": 8, "r": 32}
    if number >= limits[kind]:
        raise ValueError(f"register number out of range: '{token}'")
    bases = {"g": 0, "o": 8, "l": 16, "i": 24, "r": 0}
    return bases[kind] + number


def is_register(token: str) -> bool:
    try:
        parse_register(token)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Operand model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemOperand:
    """An ``[rs1 + rs2]`` or ``[rs1 + simm]`` address operand."""

    rs1: int
    rs2: int | None
    expr: Expr | None  # None means offset 0


@dataclass(frozen=True)
class HiLo:
    """%hi(expr) or %lo(expr)."""

    which: str  # "hi" | "lo"
    expr: Expr


def split_operands(text: str) -> list[str]:
    """Split on top-level commas, respecting ``[]``, ``()`` and quotes."""
    parts, depth, current, quote = [], 0, [], None
    for ch in text:
        if quote:
            current.append(ch)
            if ch == quote and (len(current) < 2 or current[-2] != "\\"):
                quote = None
            continue
        if ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch in "[(":
            depth += 1
            current.append(ch)
        elif ch in "])":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_operand(token: str):
    """Parse one operand into a register number, MemOperand, HiLo, special
    register name, or Expr."""
    token = token.strip()
    lowered = token.lower()
    if lowered in _SPECIALS:
        return ("special", _SPECIALS[lowered])
    match = re.fullmatch(r"%asr(\d+)", lowered)
    if match:
        return ("asr", int(match.group(1)))
    if is_register(token):
        return ("reg", parse_register(token))
    if token.startswith("[") and token.endswith("]"):
        return ("mem", _parse_mem(token[1:-1]))
    match = re.fullmatch(r"%(hi|lo)\s*\((.*)\)", token, re.IGNORECASE | re.DOTALL)
    if match:
        return ("hilo", HiLo(match.group(1).lower(), parse_expr(match.group(2))))
    return ("expr", parse_expr(token))


def parse_address(token: str) -> MemOperand:
    """Parse an address operand with or without brackets — JMPL/RETT take
    ``%reg + simm`` bare, loads/stores take ``[%reg + simm]``."""
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        token = token[1:-1]
    return _parse_mem(token)


def _parse_mem(body: str) -> MemOperand:
    body = body.strip()
    # rs1 +/- something, or bare rs1, or bare expression (rs1 = %g0).
    match = re.match(r"(%\w+)\s*([-+])\s*(.+)$", body)
    if match and is_register(match.group(1)):
        rs1 = parse_register(match.group(1))
        sign, rest = match.group(2), match.group(3).strip()
        if sign == "+" and is_register(rest):
            return MemOperand(rs1, parse_register(rest), None)
        expr = parse_expr(rest)
        if sign == "-":
            if expr.symbol:
                raise ValueError("cannot negate a symbol in address")
            expr = Expr(None, -expr.addend)
        return MemOperand(rs1, None, expr)
    if is_register(body):
        return MemOperand(parse_register(body), None, None)
    match = re.fullmatch(r"%lo\s*\((.*)\)", body, re.IGNORECASE | re.DOTALL)
    if match:
        # [%lo(sym)] is unusual; treat as absolute low-part via %g0.
        raise ValueError("[%lo(...)] without a base register is unsupported")
    return MemOperand(0, None, parse_expr(body))


# ---------------------------------------------------------------------------
# The assembler
# ---------------------------------------------------------------------------

_ALU_OPS = {
    "add": Op3.ADD, "addcc": Op3.ADDCC, "addx": Op3.ADDX, "addxcc": Op3.ADDXCC,
    "sub": Op3.SUB, "subcc": Op3.SUBCC, "subx": Op3.SUBX, "subxcc": Op3.SUBXCC,
    "and": Op3.AND, "andcc": Op3.ANDCC, "andn": Op3.ANDN, "andncc": Op3.ANDNCC,
    "or": Op3.OR, "orcc": Op3.ORCC, "orn": Op3.ORN, "orncc": Op3.ORNCC,
    "xor": Op3.XOR, "xorcc": Op3.XORCC, "xnor": Op3.XNOR, "xnorcc": Op3.XNORCC,
    "taddcc": Op3.TADDCC, "tsubcc": Op3.TSUBCC,
    "taddcctv": Op3.TADDCCTV, "tsubcctv": Op3.TSUBCCTV,
    "mulscc": Op3.MULSCC,
    "umul": Op3.UMUL, "umulcc": Op3.UMULCC, "smul": Op3.SMUL, "smulcc": Op3.SMULCC,
    "udiv": Op3.UDIV, "udivcc": Op3.UDIVCC, "sdiv": Op3.SDIV, "sdivcc": Op3.SDIVCC,
    "sll": Op3.SLL, "srl": Op3.SRL, "sra": Op3.SRA,
    "save": Op3.SAVE, "restore": Op3.RESTORE,
}

_LOAD_OPS = {
    "ld": Op3Mem.LD, "ldub": Op3Mem.LDUB, "lduh": Op3Mem.LDUH,
    "ldsb": Op3Mem.LDSB, "ldsh": Op3Mem.LDSH, "ldd": Op3Mem.LDD,
    "lda": Op3Mem.LDA, "lduba": Op3Mem.LDUBA, "lduha": Op3Mem.LDUHA,
    "ldsba": Op3Mem.LDSBA, "ldsha": Op3Mem.LDSHA, "ldda": Op3Mem.LDDA,
}
_STORE_OPS = {
    "st": Op3Mem.ST, "stb": Op3Mem.STB, "sth": Op3Mem.STH, "std": Op3Mem.STD,
    "sta": Op3Mem.STA, "stba": Op3Mem.STBA, "stha": Op3Mem.STHA,
    "stda": Op3Mem.STDA,
}

_BRANCHES = {name: cond for cond, name in BRANCH_MNEMONICS.items()}
_BRANCHES.update({"b": Cond.A, "bz": Cond.E, "bnz": Cond.NE,
                  "bgeu": Cond.CC, "blu": Cond.CS})
_TRAPS = {name: cond for cond, name in TRAP_MNEMONICS.items()}

_COMMENT_RE = re.compile(r"(?<!%)\!.*$|#.*$")
_LABEL_RE = re.compile(r"^\s*([A-Za-z_.$][\w.$]*)\s*:\s*")


@dataclass
class _Fixup:
    section: str
    offset: int
    kind: RelocKind
    symbol: str
    addend: int
    line: int


class Assembler:
    """Two-stage (emit + fix-up) SPARC assembler producing object files."""

    def __init__(self):
        self.obj = ObjectFile()
        self.current = ".text"
        self.fixups: list[_Fixup] = []
        self.source = "<memory>"
        self.line = 0
        self.absolutes: dict[str, int] = {}

    # -- public entry --------------------------------------------------------

    def assemble(self, text: str, source_name: str = "<memory>") -> ObjectFile:
        self.obj = ObjectFile(source_name=source_name)
        self.obj.section(".text")
        self.current = ".text"
        self.fixups = []
        self.source = source_name
        self.absolutes = {}
        try:
            for number, raw in enumerate(text.splitlines(), start=1):
                self.line = number
                self._process_line(raw)
            self._resolve_fixups()
        except (ValueError, encoder.EncodeError) as exc:
            raise AssemblyError(str(exc), source_name, self.line) from exc
        return self.obj

    # -- line processing -------------------------------------------------

    def _process_line(self, raw: str) -> None:
        line = _COMMENT_RE.sub("", raw).strip()
        while True:
            match = _LABEL_RE.match(line)
            if not match:
                break
            self._define_label(match.group(1))
            line = line[match.end():]
        if not line:
            return
        if line.startswith("."):
            self._directive(line)
            return
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = split_operands(parts[1]) if len(parts) > 1 else []
        self._instruction(mnemonic, operands)

    def _define_label(self, name: str) -> None:
        section = self.obj.section(self.current)
        self.obj.define(name, self.current, section.size)

    @property
    def _section(self) -> Section:
        return self.obj.section(self.current)

    # -- directives ------------------------------------------------------

    def _directive(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name in (".text", ".data", ".bss", ".rodata"):
            self.current = name
            self.obj.section(name)
        elif name == ".section":
            self.current = split_operands(rest)[0]
            self.obj.section(self.current)
        elif name == ".align":
            alignment = parse_expr(rest).constant()
            section = self._section
            while section.size % alignment:
                section.data.append(0)
        elif name in (".word", ".long"):
            for op in split_operands(rest):
                self._emit_data_expr(parse_expr(op), 4)
        elif name in (".half", ".short"):
            for op in split_operands(rest):
                self._emit_data_expr(parse_expr(op), 2)
        elif name == ".byte":
            for op in split_operands(rest):
                self._emit_data_expr(parse_expr(op), 1)
        elif name in (".ascii", ".asciz", ".string"):
            for op in split_operands(rest):
                body = _decode_string(op)
                self._section.data += body
                if name in (".asciz", ".string"):
                    self._section.data.append(0)
        elif name in (".skip", ".space"):
            operands = split_operands(rest)
            count = parse_expr(operands[0]).constant()
            fill = parse_expr(operands[1]).constant() if len(operands) > 1 else 0
            self._section.data += bytes([fill & 0xFF]) * count
        elif name in (".global", ".globl"):
            for op in split_operands(rest):
                sym = op.strip()
                if sym in self.obj.symbols:
                    self.obj.symbols[sym].is_global = True
                else:
                    # Forward declaration: remember to mark it later.
                    self.fixups.append(_Fixup("", -1, RelocKind.WORD32, sym, 0,
                                              self.line))
        elif name in (".set", ".equ"):
            operands = split_operands(rest)
            value = parse_expr(operands[1])
            self.absolutes[operands[0].strip()] = self._resolve_abs(value)
        elif name in (".file", ".ident", ".type", ".size", ".proc", ".seg"):
            pass  # accepted and ignored, like GAS does for our purposes
        else:
            raise ValueError(f"unknown directive {name}")

    def _resolve_abs(self, expr: Expr) -> int:
        if expr.symbol is None:
            return expr.addend
        if expr.symbol in self.absolutes:
            return self.absolutes[expr.symbol] + expr.addend
        raise ValueError(f".set value must be absolute, got '{expr.symbol}'")

    def _emit_data_expr(self, expr: Expr, size: int) -> None:
        section = self._section
        if expr.symbol and expr.symbol in self.absolutes:
            expr = Expr(None, self.absolutes[expr.symbol] + expr.addend)
        if expr.symbol:
            if size != 4:
                raise ValueError("symbolic data must be word-sized")
            self.fixups.append(_Fixup(self.current, section.size,
                                      RelocKind.WORD32, expr.symbol,
                                      expr.addend, self.line))
            section.append_word(0)
        else:
            section.data += (expr.addend & ((1 << (8 * size)) - 1)).to_bytes(
                size, "big")

    # -- instruction emission ---------------------------------------------

    def _emit(self, word: int) -> None:
        self._section.append_word(word)

    def _emit_with_fixup(self, word: int, kind: RelocKind, expr: Expr) -> None:
        if expr.symbol and expr.symbol in self.absolutes:
            expr = Expr(None, self.absolutes[expr.symbol] + expr.addend)
        if expr.symbol is None and kind in (RelocKind.WDISP22, RelocKind.WDISP30):
            # Absolute branch target: treat the constant as an address and
            # leave it to the fix-up resolver via a synthetic symbol-less
            # relocation (the linker knows the section base).
            self.fixups.append(_Fixup(self.current, self._section.size, kind,
                                      "", expr.addend, self.line))
            self._emit(word)
            return
        if expr.symbol is None:
            self._emit(self._apply_const(word, kind, expr.addend))
            return
        self.fixups.append(_Fixup(self.current, self._section.size, kind,
                                  expr.symbol, expr.addend, self.line))
        self._emit(word)

    @staticmethod
    def _apply_const(word: int, kind: RelocKind, value: int) -> int:
        """*word* with a constant folded in (an absolute kind: a branch
        to a constant is a symbol-less relocation for the linker)."""
        try:
            return apply_relocation(word, kind, value)
        except ValueError as exc:
            raise encoder.EncodeError(str(exc)) from exc

    # -- operand utilities ------------------------------------------------

    def _reg(self, token: str) -> int:
        kind, value = parse_operand(token)
        if kind != "reg":
            raise ValueError(f"expected register, got '{token}'")
        return value

    def _reg_or_imm(self, token: str):
        """Return ('reg', n) or ('imm', Expr) or ('hilo', HiLo)."""
        kind, value = parse_operand(token)
        if kind in ("reg", "expr", "hilo"):
            return kind, value
        raise ValueError(f"expected register or immediate, got '{token}'")

    # -- instructions ------------------------------------------------------

    def _instruction(self, mnemonic: str, operands: list[str]) -> None:
        annul = False
        if "," in mnemonic:  # handled below via split on ','
            pass
        if mnemonic.endswith(",a"):
            mnemonic, annul = mnemonic[:-2], True

        if mnemonic in _ALU_OPS:
            self._alu(_ALU_OPS[mnemonic], operands)
        elif mnemonic in _LOAD_OPS:
            self._load(_LOAD_OPS[mnemonic], operands)
        elif mnemonic in _STORE_OPS:
            self._store(_STORE_OPS[mnemonic], operands)
        elif mnemonic in _BRANCHES:
            self._branch(_BRANCHES[mnemonic], annul, operands)
        elif mnemonic in _TRAPS:
            self._ticc(_TRAPS[mnemonic], operands)
        elif mnemonic == "sethi":
            self._sethi(operands)
        elif mnemonic == "call":
            self._call(operands)
        elif mnemonic == "jmpl":
            self._jmpl(operands)
        elif mnemonic == "rett":
            self._rett(operands)
        elif mnemonic == "rd":
            self._rd(operands)
        elif mnemonic == "wr":
            self._wr(operands)
        elif mnemonic in ("ldstub", "swap"):
            op3 = Op3Mem.LDSTUB if mnemonic == "ldstub" else Op3Mem.SWAP
            mem = self._mem_operand(operands[0])
            rd = self._reg(operands[1])
            self._emit_mem(op3, rd, mem)
        elif mnemonic == "flush":
            mem = self._mem_operand(operands[0] if operands else "[%g0]")
            self._emit_mem_arith(Op3.FLUSH, 0, mem)
        elif mnemonic == "unimp":
            const = parse_expr(operands[0]).constant() if operands else 0
            self._emit(encoder.unimp(const))
        elif mnemonic == "custom":
            self._custom(operands)
        else:
            self._synthetic(mnemonic, operands)

    def _alu(self, op3: Op3, operands: list[str]) -> None:
        if op3 in (Op3.SAVE, Op3.RESTORE) and not operands:
            self._emit(encoder.arith_reg(op3, 0, 0, 0))
            return
        if len(operands) != 3:
            raise ValueError(f"expected 3 operands, got {len(operands)}")
        rs1 = self._reg(operands[0])
        kind, value = self._reg_or_imm(operands[1])
        rd = self._reg(operands[2])
        if kind == "reg":
            self._emit(encoder.arith_reg(op3, rd, rs1, value))
        elif kind == "hilo":
            reloc = RelocKind.LO10 if value.which == "lo" else RelocKind.HI22
            word = encoder.fmt3_imm(2, rd, int(op3), rs1, 0)
            self._emit_with_fixup(word, reloc, value.expr)
        else:
            word = encoder.fmt3_imm(2, rd, int(op3), rs1, 0)
            self._emit_with_fixup(word, RelocKind.SIMM13, value)

    def _mem_operand(self, token: str) -> MemOperand:
        kind, value = parse_operand(token)
        if kind != "mem":
            raise ValueError(f"expected memory operand, got '{token}'")
        return value

    def _emit_mem(self, op3: Op3Mem, rd: int, mem: MemOperand,
                  asi: int = 0) -> None:
        if mem.rs2 is not None:
            self._emit(encoder.mem_reg(op3, rd, mem.rs1, mem.rs2, asi))
        else:
            expr = mem.expr or Expr(None, 0)
            word = encoder.fmt3_imm(3, rd, int(op3), mem.rs1, 0)
            if asi:
                # ASI forms use i=0; an offset expression is not encodable.
                if expr.symbol or expr.addend:
                    raise ValueError("ASI access cannot take an offset")
                self._emit(encoder.mem_reg(op3, rd, mem.rs1, 0, asi))
                return
            self._emit_with_fixup(word, RelocKind.SIMM13, expr)

    def _emit_mem_arith(self, op3: Op3, rd: int, mem: MemOperand) -> None:
        if mem.rs2 is not None:
            self._emit(encoder.arith_reg(op3, rd, mem.rs1, mem.rs2))
        else:
            expr = mem.expr or Expr(None, 0)
            word = encoder.fmt3_imm(2, rd, int(op3), mem.rs1, 0)
            self._emit_with_fixup(word, RelocKind.SIMM13, expr)

    def _load(self, op3: Op3Mem, operands: list[str]) -> None:
        if len(operands) == 3:  # lda [addr] asi, rd — asi as separate operand
            mem = self._mem_operand(operands[0])
            asi = parse_expr(operands[1]).constant()
            rd = self._reg(operands[2])
            self._emit_mem(op3, rd, mem, asi)
            return
        if len(operands) != 2:
            raise ValueError("load expects '[address], rd'")
        # "lda [%r] 0x5, %rd" style: asi glued to the bracket operand.
        mem_token, rd_token = operands
        asi = 0
        match = re.fullmatch(r"(\[.*\])\s*(\S+)", mem_token)
        if match:
            mem_token, asi_text = match.group(1), match.group(2)
            asi = parse_expr(asi_text).constant()
        mem = self._mem_operand(mem_token)
        rd = self._reg(rd_token)
        self._emit_mem(op3, rd, mem, asi)

    def _store(self, op3: Op3Mem, operands: list[str]) -> None:
        if len(operands) < 2:
            raise ValueError("store expects 'rd, [address]'")
        rd = self._reg(operands[0])
        mem_token = operands[1]
        asi = 0
        match = re.fullmatch(r"(\[.*\])\s*(\S+)", mem_token)
        if match:
            mem_token, asi_text = match.group(1), match.group(2)
            asi = parse_expr(asi_text).constant()
        elif len(operands) == 3:
            asi = parse_expr(operands[2]).constant()
        mem = self._mem_operand(mem_token)
        self._emit_mem(op3, rd, mem, asi)

    def _branch(self, cond: Cond, annul: bool, operands: list[str]) -> None:
        if len(operands) != 1:
            raise ValueError("branch expects one target")
        expr = parse_expr(operands[0])
        word = encoder.branch(int(cond), 0, annul)
        self._emit_with_fixup(word, RelocKind.WDISP22, expr)

    def _ticc(self, cond: Cond, operands: list[str]) -> None:
        if len(operands) == 1:
            kind, value = self._reg_or_imm(operands[0])
            if kind == "reg":
                self._emit(encoder.fmt3_reg(2, int(cond), int(Op3.TICC), 0, value))
            else:
                self._emit(encoder.fmt3_imm(2, int(cond), int(Op3.TICC), 0,
                                            value.constant()))
        elif len(operands) == 2:
            rs1 = self._reg(operands[0])
            kind, value = self._reg_or_imm(operands[1])
            if kind == "reg":
                self._emit(encoder.fmt3_reg(2, int(cond), int(Op3.TICC), rs1, value))
            else:
                self._emit(encoder.fmt3_imm(2, int(cond), int(Op3.TICC), rs1,
                                            value.constant()))
        else:
            raise ValueError("trap expects 1 or 2 operands")

    def _sethi(self, operands: list[str]) -> None:
        if len(operands) != 2:
            raise ValueError("sethi expects 2 operands")
        kind, value = parse_operand(operands[0])
        rd = self._reg(operands[1])
        if kind == "hilo":
            if value.which != "hi":
                raise ValueError("sethi needs %hi(...)")
            self._emit_with_fixup(encoder.sethi(rd, 0), RelocKind.HI22, value.expr)
        elif kind == "expr":
            self._emit(encoder.sethi(rd, value.constant() & 0x3FFFFF))
        else:
            raise ValueError("sethi operand must be %hi(...) or constant")

    def _call(self, operands: list[str]) -> None:
        if len(operands) not in (1, 2):
            raise ValueError("call expects a target")
        kind, value = parse_operand(operands[0])
        if kind == "reg":
            self._emit(encoder.jmpl_imm(15, value, 0))
            return
        if kind == "mem":
            self._emit_mem_arith(Op3.JMPL, 15, value)
            return
        if kind != "expr":
            raise ValueError("bad call target")
        self._emit_with_fixup(encoder.call(0), RelocKind.WDISP30, value)

    def _jmpl(self, operands: list[str]) -> None:
        if len(operands) != 2:
            raise ValueError("jmpl expects 'address, rd'")
        rd = self._reg(operands[1])
        self._emit_mem_arith(Op3.JMPL, rd, parse_address(operands[0]))

    def _rett(self, operands: list[str]) -> None:
        self._emit_mem_arith(Op3.RETT, 0, parse_address(operands[0]))

    def _rd(self, operands: list[str]) -> None:
        source, rd_token = operands
        rd = self._reg(rd_token)
        kind, value = parse_operand(source)
        if kind == "special":
            op3 = {"y": Op3.RDASR, "psr": Op3.RDPSR,
                   "wim": Op3.RDWIM, "tbr": Op3.RDTBR}[value]
            self._emit(encoder.fmt3_reg(2, rd, int(op3), 0, 0))
        elif kind == "asr":
            self._emit(encoder.fmt3_reg(2, rd, int(Op3.RDASR), value, 0))
        else:
            raise ValueError("rd expects %y/%psr/%wim/%tbr/%asrN")

    def _wr(self, operands: list[str]) -> None:
        if len(operands) == 2:
            operands = [operands[0], "0", operands[1]]
        rs1 = self._reg(operands[0])
        kind, value = self._reg_or_imm(operands[1])
        dest_kind, dest = parse_operand(operands[2])
        if dest_kind == "special":
            op3 = {"y": Op3.WRASR, "psr": Op3.WRPSR,
                   "wim": Op3.WRWIM, "tbr": Op3.WRTBR}[dest]
            rd = 0
        elif dest_kind == "asr":
            op3, rd = Op3.WRASR, dest
        else:
            raise ValueError("wr destination must be %y/%psr/%wim/%tbr/%asrN")
        if kind == "reg":
            self._emit(encoder.fmt3_reg(2, rd, int(op3), rs1, value))
        else:
            self._emit(encoder.fmt3_imm(2, rd, int(op3), rs1, value.constant()))

    def _custom(self, operands: list[str]) -> None:
        """``custom opf, rs1, rs2, rd`` — CPop1 extension slot."""
        if len(operands) != 4:
            raise ValueError("custom expects 'opf, rs1, rs2, rd'")
        opf = parse_expr(operands[0]).constant()
        rs1 = self._reg(operands[1])
        rs2 = self._reg(operands[2])
        rd = self._reg(operands[3])
        self._emit(encoder.cpop1(rd, opf, rs1, rs2))

    # -- synthetic instructions ---------------------------------------------

    def _synthetic(self, mnemonic: str, operands: list[str]) -> None:
        if mnemonic == "nop":
            self._emit(encoder.nop())
        elif mnemonic == "mov":
            self._mov(operands)
        elif mnemonic == "cmp":
            self._alu(Op3.SUBCC, [operands[0], operands[1], "%g0"])
        elif mnemonic == "tst":
            self._alu(Op3.ORCC, ["%g0", operands[0], "%g0"])
        elif mnemonic == "set":
            self._set(operands)
        elif mnemonic == "clr":
            kind, value = parse_operand(operands[0])
            if kind == "reg":
                self._alu(Op3.OR, ["%g0", "%g0", operands[0]])
            elif kind == "mem":
                self._emit_mem(Op3Mem.ST, 0, value)
            else:
                raise ValueError("clr expects a register or memory operand")
        elif mnemonic == "ret":
            self._emit(encoder.jmpl_imm(0, 31, 8))  # jmpl %i7+8, %g0
        elif mnemonic == "retl":
            self._emit(encoder.jmpl_imm(0, 15, 8))  # jmpl %o7+8, %g0
        elif mnemonic == "jmp":
            self._emit_mem_arith(Op3.JMPL, 0, parse_address(operands[0]))
        elif mnemonic == "inc":
            amount, reg = ("1", operands[0]) if len(operands) == 1 else operands
            self._alu(Op3.ADD, [reg, amount, reg])
        elif mnemonic == "dec":
            amount, reg = ("1", operands[0]) if len(operands) == 1 else operands
            self._alu(Op3.SUB, [reg, amount, reg])
        elif mnemonic == "deccc":
            amount, reg = ("1", operands[0]) if len(operands) == 1 else operands
            self._alu(Op3.SUBCC, [reg, amount, reg])
        elif mnemonic == "inccc":
            amount, reg = ("1", operands[0]) if len(operands) == 1 else operands
            self._alu(Op3.ADDCC, [reg, amount, reg])
        elif mnemonic == "neg":
            src = operands[0]
            dst = operands[1] if len(operands) > 1 else operands[0]
            self._alu(Op3.SUB, ["%g0", src, dst])
        elif mnemonic == "not":
            src = operands[0]
            dst = operands[1] if len(operands) > 1 else operands[0]
            self._alu(Op3.XNOR, [src, "%g0", dst])
        elif mnemonic == "btst":
            self._alu(Op3.ANDCC, [operands[1], operands[0], "%g0"])
        elif mnemonic == "bset":
            self._alu(Op3.OR, [operands[1], operands[0], operands[1]])
        elif mnemonic == "bclr":
            self._alu(Op3.ANDN, [operands[1], operands[0], operands[1]])
        else:
            raise ValueError(f"unknown mnemonic '{mnemonic}'")

    def _mov(self, operands: list[str]) -> None:
        if len(operands) != 2:
            raise ValueError("mov expects 2 operands")
        src_kind, src = parse_operand(operands[0])
        dst_kind, dst = parse_operand(operands[1])
        if dst_kind == "special" or dst_kind == "asr":
            self._wr(["%g0", operands[0], operands[1]])
            return
        if src_kind == "special" or src_kind == "asr":
            self._rd(operands)
            return
        self._alu(Op3.OR, ["%g0", operands[0], operands[1]])

    def _set(self, operands: list[str]) -> None:
        if len(operands) != 2:
            raise ValueError("set expects 'value, rd'")
        rd = self._reg(operands[1])
        kind, value = parse_operand(operands[0])
        if kind == "hilo":
            raise ValueError("use sethi/or directly with %hi/%lo")
        if kind != "expr":
            raise ValueError("set expects an expression")
        if value.symbol and value.symbol in self.absolutes:
            value = Expr(None, self.absolutes[value.symbol] + value.addend)
        if value.is_constant:
            for word in encoder.set32(rd, value.addend):
                self._emit(word)
        else:
            # Always two instructions so sizes don't depend on symbol values.
            self._emit_with_fixup(encoder.sethi(rd, 0), RelocKind.HI22, value)
            word = encoder.fmt3_imm(2, rd, int(Op3.OR), rd, 0)
            self._emit_with_fixup(word, RelocKind.LO10, value)

    # -- fix-up resolution ---------------------------------------------------

    def _resolve_fixups(self) -> None:
        """Patch or relocate every fix-up; an error names the fix-up's
        source line (``self.line``)."""
        for fixup in self.fixups:
            self.line = fixup.line
            if fixup.offset == -1:  # deferred .global marker
                if fixup.symbol in self.obj.symbols:
                    self.obj.symbols[fixup.symbol].is_global = True
                else:
                    # Undefined here: importing a symbol another object defines.
                    pass
                continue
            symbol, addend = fixup.symbol, fixup.addend
            branch = fixup.kind in (RelocKind.WDISP22, RelocKind.WDISP30)
            if symbol in self.absolutes:
                # A constant defined after its use: as in _emit_with_fixup,
                # an absolute branch target is left to the linker.
                symbol, addend = "", self.absolutes[symbol] + addend
                if not branch:
                    section = self.obj.section(fixup.section)
                    word = section.word_at(fixup.offset)
                    section.patch_word(
                        fixup.offset,
                        self._apply_const(word, fixup.kind, addend))
                    continue
            defined = self.obj.symbols.get(symbol)
            if branch and defined is not None \
                    and defined.section == fixup.section:
                section = self.obj.section(fixup.section)
                section.patch_word(fixup.offset, apply_relocation(
                    section.word_at(fixup.offset), fixup.kind,
                    defined.offset + addend, fixup.offset))
            else:
                self.obj.section(fixup.section).relocations.append(
                    Relocation(fixup.offset, symbol, fixup.kind, addend))


def _decode_string(token: str) -> bytes:
    token = token.strip()
    if len(token) < 2 or token[0] != '"' or token[-1] != '"':
        raise ValueError(f"expected string literal, got {token}")
    body = token[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            escapes = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34}
            out.append(escapes.get(body[i + 1], ord(body[i + 1])))
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def assemble(text: str, source_name: str = "<memory>") -> ObjectFile:
    """Assemble *text* into a relocatable object file."""
    return Assembler().assemble(text, source_name)
