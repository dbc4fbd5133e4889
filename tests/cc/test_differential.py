"""Differential testing: random C expressions vs a Python oracle.

Hypothesis builds random arithmetic expression trees; each is compiled
by the mini-C compiler, executed on the simulated LEON (through the Sim
box, so the whole CPU/cache/bus stack is under test), and compared to
Python evaluating the same tree with C's 32-bit wrap-around semantics.
This is the style of testing that qualifies compilers and ISA simulators
against each other — any divergence in parser, codegen, the assembler,
the linker, or the instruction semantics shows up as a value mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sim import Simulator
from repro.toolchain.driver import compile_c_program
from repro.utils import s32, u32

# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    op: str                 # 'const' | 'var' | binary op | unary op
    value: int = 0
    left: "Node | None" = None
    right: "Node | None" = None


_BINOPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"]
_UNOPS = ["-", "~", "!"]

#: Variables available to expressions, with fixed interesting values.
VARIABLES = {
    "va": 7,
    "vb": -13,
    "vc": 100000,
    "vd": 0,
    "ve": -1,
}


def _nodes(max_depth: int):
    constants = st.integers(min_value=-100, max_value=100).map(
        lambda v: Node("const", v))
    variables = st.sampled_from(sorted(VARIABLES)).map(
        lambda name: Node("var:" + name))
    leaves = st.one_of(constants, variables)

    def extend(children):
        unary = st.builds(lambda op, node: Node(op, 0, node),
                          st.sampled_from(_UNOPS), children)
        binary = st.builds(lambda op, a, b: Node(op, 0, a, b),
                           st.sampled_from(_BINOPS), children, children)
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


def to_c(node: Node) -> str:
    if node.op == "const":
        return str(node.value)
    if node.op.startswith("var:"):
        return node.op[4:]
    if node.right is None:
        # Space after the operator: "-(-1)" must not lex as "--".
        return f"({node.op} {to_c(node.left)})"
    return f"({to_c(node.left)} {node.op} {to_c(node.right)})"


def evaluate(node: Node) -> int:
    """Python oracle with C's int semantics (32-bit wrap, shifts masked
    to 0..31 as SPARC does, division truncating toward zero, x/0 == 0 by
    our divide-guard convention below)."""
    if node.op == "const":
        return s32(node.value)
    if node.op.startswith("var:"):
        return s32(VARIABLES[node.op[4:]])
    if node.right is None:
        inner = evaluate(node.left)
        if node.op == "-":
            return s32(-inner)
        if node.op == "~":
            return s32(~inner)
        return int(inner == 0)  # !
    a, b = evaluate(node.left), evaluate(node.right)
    op = node.op
    if op == "+":
        return s32(a + b)
    if op == "-":
        return s32(a - b)
    if op == "*":
        return s32(a * b)
    if op == "&":
        return s32(a & b)
    if op == "|":
        return s32(a | b)
    if op == "^":
        return s32(a ^ b)
    if op == "<<":
        return s32(u32(a) << (u32(b) & 31))
    if op == ">>":
        return s32(a >> (u32(b) & 31))  # arithmetic shift on signed int
    if op == "/":
        if b == 0:
            return 0
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        # SPARC SDIV saturates on 32-bit overflow (e.g. INT_MIN / -1).
        return max(-0x8000_0000, min(0x7FFF_FFFF, quotient))
    if op == "%":
        if b == 0:
            return 0
        quotient = evaluate(Node("/", 0, node.left, node.right))
        # Matches the compiler's a - (a/b)*b with a wrapping multiply.
        return s32(a - s32(quotient * b))
    raise AssertionError(op)


def guard_divisions(node: Node) -> Node:
    """Rewrite x / y into x / (y | 1 == 0 ? 1 : y) at the C level is
    messy; instead, wrap divisor in `(y ? y : 1)` so both sides agree on
    a divide-by-zero convention without trapping."""
    if node.op in ("/", "%"):
        left = guard_divisions(node.left)
        right = guard_divisions(node.right)
        return Node(node.op, 0, left, _nonzero(right))
    if node.op.startswith("var") or node.op == "const":
        return node
    if node.right is None:
        return Node(node.op, node.value, guard_divisions(node.left))
    return Node(node.op, node.value, guard_divisions(node.left),
                guard_divisions(node.right))


def _nonzero(node: Node) -> Node:
    # (n ? n : 1) in the oracle == special 'nz' node
    return Node("nz", 0, node)


def _eval_with_nz(node: Node) -> int:
    if node.op == "nz":
        inner = _eval_with_nz(node.left)
        return inner if inner != 0 else 1
    if node.op in ("const",) or node.op.startswith("var:"):
        return evaluate(node)
    if node.right is None and node.op != "nz":
        rebuilt = Node(node.op, node.value,
                       _as_const(_eval_with_nz(node.left)))
        return evaluate(rebuilt)
    rebuilt = Node(node.op, node.value,
                   _as_const(_eval_with_nz(node.left)),
                   _as_const(_eval_with_nz(node.right)))
    return evaluate(rebuilt)


def _as_const(value: int) -> Node:
    return Node("const", value)


def _to_c_with_nz(node: Node) -> str:
    if node.op == "nz":
        inner = _to_c_with_nz(node.left)
        return f"({inner} ? {inner} : 1)"
    if node.op == "const":
        return str(node.value)
    if node.op.startswith("var:"):
        return node.op[4:]
    if node.right is None:
        return f"({node.op} {_to_c_with_nz(node.left)})"
    return f"({_to_c_with_nz(node.left)} {node.op} " \
           f"{_to_c_with_nz(node.right)})"


# A single simulator reused across examples (programs reload cleanly).
_SIMULATOR = Simulator()


def run_expression(expr_c: str) -> int:
    declarations = "\n".join(f"int {name} = {value};"
                             for name, value in VARIABLES.items())
    source = f"""
{declarations}
int main(void) {{
    return {expr_c};
}}
"""
    image = compile_c_program(source)
    report = _SIMULATOR.run(image, max_instructions=500_000)
    return s32(report.result_word)


class TestDifferential:
    @given(tree=_nodes(4))
    @settings(max_examples=120, deadline=None)
    def test_random_expressions_match_oracle(self, tree):
        guarded = guard_divisions(tree)
        expected = s32(_eval_with_nz(guarded))
        got = run_expression(_to_c_with_nz(guarded))
        assert got == expected, _to_c_with_nz(guarded)

    @pytest.mark.parametrize("expr,expected", [
        ("(va + vb) * vc", s32((7 - 13) * 100000)),
        ("ve >> 4", -1),
        ("(ve & 0x7fffffff) >> 4", 0x07FFFFFF),
        ("vb / va", -1),
        ("vb % va", -6),
        ("~vd + !vd", 0),
        ("(1 << 31) >> 31", -1),
    ])
    def test_known_corner_cases(self, expr, expected):
        assert run_expression(expr) == expected
