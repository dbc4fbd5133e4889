"""Seeded SPARC V8 program generator for the differential test suite.

Programs are built from self-contained *blocks* so a failing program can
be delta-debugged down to a minimal instruction listing: every block
carries its own labels (prefixed with the block's generation-time id)
and, when it calls subroutines, their definitions — removing any subset
of blocks still renders to a valid program.

The generated mix covers what the two execution engines must agree on:

* ALU traffic — logic/arithmetic/shift/tagged ops, flag-setting
  variants, ``mulscc`` and the multiply/divide unit (divisors are
  forced odd so division by zero stays a *trap-parity* concern, tested
  separately in ``test_trap_parity``);
* control transfers — every Bicc condition, with and without the annul
  bit, plus bounded counted loops whose bodies branch forward (to the
  word after the delay slot, too) and load and store, so that they
  translate into one to three blocks;
* register windows — leaf calls (``save``/``restore``) and bounded
  recursion deep enough to take window overflow *and* underflow traps
  through the boot ROM's handlers;
* memory traffic — naturally aligned loads/stores of every width
  (``ldd``/``std`` with even register pairs) against a scratch area;
* MMIO side effects — UART transmit bytes (the byte stream is part of
  the differential contract), UART status reads, LED port writes and
  read-backs, cycle-counter reads;
* self-modifying code — hot loops that patch their own body or delay
  slot, exercising the fast engines' decode-memo and block-cache
  invalidation (and the translated engine's mid-block bail-out).

Register conventions: ``%g6`` holds the scratch-data base, ``%g7`` the
UART data-register address; ``%sp`` is set up for the window-trap
handlers.  Those three plus ``%o7``/``%fp`` are reserved — everything
else is fair game.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mem.memmap import (
    APB_BASE,
    CYCLE_COUNTER_OFFSET,
    IOPORT_OFFSET,
    UART_OFFSET,
    DEFAULT_MAP,
)

#: %g7 points here; other APB registers are addressed relative to it.
UART_ADDR = APB_BASE + UART_OFFSET
LED_DELTA = IOPORT_OFFSET - UART_OFFSET
CYCLE_DELTA = CYCLE_COUNTER_OFFSET - UART_OFFSET

#: Scratch data area: well above any generated image, well below the
#: stack.
DATA_BASE = DEFAULT_MAP.program_base + 0x10000
DATA_SIZE = 0x1000

#: Registers the generator may freely read and write.  Reserved: %g0,
#: %g6 (data base), %g7 (UART base), %sp/%o6, %o7 (call linkage),
#: %fp/%i6, %i7 (window-trap linkage through recursion).
REG_POOL = (
    ["%g1", "%g2", "%g3", "%g4", "%g5"]
    + [f"%o{i}" for i in range(6)]
    + [f"%l{i}" for i in range(8)]
    + ["%i0", "%i1", "%i2", "%i3", "%i5"]
)
#: Even-numbered registers from the pool (ldd/std need an even rd).
EVEN_REGS = ["%g2", "%g4", "%o0", "%o2", "%o4", "%l0", "%l2", "%l4",
             "%l6", "%i0", "%i2"]

ALU_OPS = [
    "add", "addcc", "addx", "addxcc", "sub", "subcc", "subx", "subxcc",
    "and", "andcc", "andn", "andncc", "or", "orcc", "orn", "orncc",
    "xor", "xorcc", "xnor", "xnorcc", "taddcc", "tsubcc", "mulscc",
]
SHIFT_OPS = ["sll", "srl", "sra"]
MUL_OPS = ["umul", "smul", "umulcc", "smulcc"]
DIV_OPS = ["udiv", "sdiv", "udivcc", "sdivcc"]
BRANCHES = ["ba", "bn", "be", "bne", "bg", "ble", "bge", "bl", "bgu",
            "bleu", "bcc", "bcs", "bpos", "bneg", "bvc", "bvs"]
LOADS = ["ld", "ldub", "ldsb", "lduh", "ldsh"]
STORES = ["st", "stb", "sth"]


@dataclass
class Block:
    """One removable unit of a generated program."""

    body: list[str]
    #: Subroutine definitions this block calls; rendered after the
    #: epilogue so they are only reachable through the calls.
    funcs: list[str] = field(default_factory=list)


def _imm13(rng: random.Random) -> int:
    return rng.randint(-4096, 4095)


def _alu_op(rng: random.Random, pool=REG_POOL) -> str:
    kind = rng.random()
    rd = rng.choice(pool)
    rs1 = rng.choice(pool)
    if kind < 0.55:
        op = rng.choice(ALU_OPS)
        src = rng.choice(pool) if rng.random() < 0.5 else str(_imm13(rng))
        return f"    {op} {rs1}, {src}, {rd}"
    if kind < 0.8:
        op = rng.choice(SHIFT_OPS)
        src = (rng.choice(pool) if rng.random() < 0.3
               else str(rng.randint(0, 31)))
        return f"    {op} {rs1}, {src}, {rd}"
    op = rng.choice(MUL_OPS)
    return f"    {op} {rs1}, {rng.choice(pool)}, {rd}"


def _block_alu(rng: random.Random, uid: str) -> Block:
    return Block([_alu_op(rng) for _ in range(rng.randint(2, 6))])


def _block_div(rng: random.Random, uid: str) -> Block:
    """Multiply/divide with a forced-odd divisor and a clean %y."""
    rd, rs1, rs2 = (rng.choice(REG_POOL) for _ in range(3))
    body = [
        f"    wr %g0, 0, %y",
        f"    or {rs2}, 1, {rs2}",
        f"    {rng.choice(DIV_OPS)} {rs1}, {rs2}, {rd}",
    ]
    return Block(body)


def _branch(rng: random.Random, uid: str, pool=REG_POOL,
            least_skipped: int = 1) -> list[str]:
    """A compare and a conditional forward branch over 1-3 (or, with
    *least_skipped* 0, 0-3) instructions."""
    cond = rng.choice(BRANCHES)
    annul = ",a" if rng.random() < 0.4 else ""
    label = f"L{uid}_skip"
    body = [
        f"    cmp {rng.choice(pool)}, {rng.choice(pool)}",
        f"    {cond}{annul} {label}",
        _alu_op(rng, pool),  # delay slot (annulled when the branch says so)
    ]
    body += [_alu_op(rng, pool)
             for _ in range(rng.randint(least_skipped, 3))]
    body.append(f"{label}:")
    return body


def _block_branch(rng: random.Random, uid: str) -> Block:
    return Block(_branch(rng, uid))


def _mem_op(rng: random.Random, pool=REG_POOL) -> str:
    """One naturally aligned load or store in the scratch area."""
    if rng.random() < 0.5:
        op = rng.choice(STORES)
        size = {"st": 4, "sth": 2, "stb": 1}[op]
        offset = rng.randrange(0, DATA_SIZE - size, size)
        return f"    {op} {rng.choice(pool)}, [%g6 + {offset}]"
    op = rng.choice(LOADS)
    size = {"ld": 4, "lduh": 2, "ldsh": 2, "ldub": 1, "ldsb": 1}[op]
    offset = rng.randrange(0, DATA_SIZE - size, size)
    return f"    {op} [%g6 + {offset}], {rng.choice(pool)}"


def _block_loop(rng: random.Random, uid: str) -> Block:
    """A counted loop (1-8 iterations) over ALU ops, loads and stores
    and up to two forward branches, each of which splits the loop into
    one more block: a hot loop of one to three blocks."""
    counter = rng.choice(REG_POOL)
    inner_pool = [r for r in REG_POOL if r != counter]
    label = f"L{uid}_top"
    body = [f"    set {rng.randint(1, 8)}, {counter}", f"{label}:"]
    branches = 0
    for piece in range(rng.randint(1, 3)):
        pick = rng.random()
        if pick < 0.35 and branches < 2:
            body += _branch(rng, f"{uid}_{piece}", inner_pool,
                            least_skipped=0)
            branches += 1
        elif pick < 0.55:
            body.append(_mem_op(rng, inner_pool))
        else:
            body.append(_alu_op(rng, inner_pool))
    body += [f"    deccc {counter}", f"    bg {label}", "    nop"]
    return Block(body)


def _block_mem(rng: random.Random, uid: str) -> Block:
    body = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.2:  # doubleword pair
            reg = rng.choice(EVEN_REGS)
            offset = rng.randrange(0, DATA_SIZE - 8, 8)
            op = rng.choice(["std", "ldd"])
            if op == "std":
                body.append(f"    std {reg}, [%g6 + {offset}]")
            else:
                body.append(f"    ldd [%g6 + {offset}], {reg}")
            continue
        body.append(_mem_op(rng))
    return Block(body)


def _block_mmio(rng: random.Random, uid: str) -> Block:
    body = []
    for _ in range(rng.randint(1, 3)):
        which = rng.random()
        reg = rng.choice(REG_POOL)
        if which < 0.5:  # UART transmit — observable byte stream
            body.append(f"    stb {reg}, [%g7]")
        elif which < 0.65:  # UART status read (TX always empty)
            body.append(f"    ld [%g7 + 4], {reg}")
        elif which < 0.85:  # LED port write + read-back
            body.append(f"    st {reg}, [%g7 + {LED_DELTA}]")
            body.append(f"    ld [%g7 + {LED_DELTA}], {rng.choice(REG_POOL)}")
        else:  # cycle counter (never armed under the Simulator: reads 0)
            body.append(f"    ld [%g7 + {CYCLE_DELTA}], {reg}")
    return Block(body)


def _block_call(rng: random.Random, uid: str) -> Block:
    name = f"F{uid}"
    body = [f"    call {name}", "    nop"]
    inner = [_alu_op(rng, ["%l0", "%l1", "%l2", "%l3", "%i0", "%i1", "%i2"])
             for _ in range(rng.randint(2, 4))]
    funcs = [f"{name}:", "    save %sp, -96, %sp", *inner,
             "    ret", "    restore"]
    return Block(body, funcs)


def _block_recursion(rng: random.Random, uid: str, nwindows: int) -> Block:
    """Bounded recursion deep enough to overflow the register windows,
    driving the boot ROM's overflow/underflow handlers on both engines."""
    name = f"R{uid}"
    depth = rng.randint(2, nwindows + 4)
    body = [f"    set {depth}, %o0", f"    call {name}", "    nop"]
    funcs = [
        f"{name}:",
        "    save %sp, -96, %sp",
        "    subcc %i0, 1, %o0",
        f"    bg {name}_rec",
        "    nop",
        f"    ba {name}_done",
        "    nop",
        f"{name}_rec:",
        f"    call {name}",
        "    nop",
        f"{name}_done:",
        "    ret",
        "    restore",
    ]
    return Block(body, funcs)


def _block_smc(rng: random.Random, uid: str) -> Block:
    """Self-modifying code: a loop whose body (or delay slot) is
    patched while the loop is hot — after the fast engines have
    memoized the decode and translated the block.  Exercises the
    per-PC memo pop, block-cache page invalidation, and the
    active-block dirty bail-out."""
    addr_r, word_r, tgt_r, counter = rng.sample(
        ["%o0", "%o1", "%o2", "%o3", "%o4", "%l6", "%l7"], 4)
    acc = rng.choice(["%g1", "%g2", "%g3", "%g4", "%g5"])
    label = f"L{uid}"
    delta = rng.randint(2, 9)
    in_slot = rng.random() < 0.5
    body = [
        f"    set {label}_patch, {addr_r}",
        f"    ld [{addr_r}], {word_r}",
        f"    set {label}_target, {tgt_r}",
        f"    set {rng.randint(2, 5)}, {counter}",
        f"{label}_top:",
    ]
    # SPARC V8 requires FLUSH between storing code and executing it —
    # the accurate engine's icache only learns of the patch then (the
    # fast engines' memo/block invalidation is store-triggered, which
    # is strictly stronger, so all three engines agree after a flush).
    if in_slot:
        # patch the branch's delay slot mid-loop
        body += [
            f"    st {word_r}, [{tgt_r}]",
            f"    flush [{tgt_r}]",
            f"    deccc {counter}",
            f"    bg {label}_top",
            f"{label}_target:",
            f"    add {acc}, 1, {acc}",
        ]
    else:
        # patch a straight-line instruction inside the loop body
        body += [
            f"    st {word_r}, [{tgt_r}]",
            f"    flush [{tgt_r}]",
            f"{label}_target:",
            f"    add {acc}, 1, {acc}",
            f"    deccc {counter}",
            f"    bg {label}_top",
            "    nop",
        ]
    body += [
        f"    ba {label}_end",
        "    nop",
        f"{label}_patch:",
        f"    add {acc}, {delta}, {acc}",
        f"{label}_end:",
    ]
    return Block(body)


_BLOCK_KINDS = [
    (_block_alu, 0.26),
    (_block_branch, 0.16),
    (_block_loop, 0.12),
    (_block_mem, 0.16),
    (_block_mmio, 0.10),
    (_block_call, 0.08),
    (_block_div, 0.04),
    (_block_recursion, 0.04),
    (_block_smc, 0.04),
]


def generate_blocks(seed: int, nwindows: int = 8) -> list[Block]:
    """The seeded program body as a list of removable blocks."""
    rng = random.Random(seed)
    count = rng.randint(6, 14)
    blocks = []
    for i in range(count):
        pick, acc = rng.random(), 0.0
        for maker, weight in _BLOCK_KINDS:
            acc += weight
            if pick < acc:
                break
        uid = f"{seed}_{i}"
        if maker is _block_recursion:
            blocks.append(maker(rng, uid, nwindows))
        else:
            blocks.append(maker(rng, uid))
    return blocks


def render(blocks: list[Block], seed: int) -> str:
    """Blocks -> complete assembly source (prologue/epilogue fixed)."""
    # A string seed hashes deterministically (sha512) — a tuple would go
    # through salted hash() and vary across processes.
    rng = random.Random(f"prologue-{seed}")
    lines = [
        f"! difftest program, seed {seed}",
        "    .text",
        "    .global _start",
        "_start:",
        f"    set {DEFAULT_MAP.stack_top}, %sp",
        f"    set {DATA_BASE}, %g6",
        f"    set {UART_ADDR}, %g7",
    ]
    for reg in REG_POOL:
        lines.append(f"    set {rng.randint(0, 0xFFFFFFFF)}, {reg}")
    for block in blocks:
        lines.extend(block.body)
    result_reg = "%l0"
    lines += [
        f"    set {DEFAULT_MAP.result_addr}, %g1",
        f"    st {result_reg}, [%g1]",
        "    ta 0",
        "    nop",
    ]
    for block in blocks:
        if block.funcs:
            lines.extend(block.funcs)
    return "\n".join(lines) + "\n"


def generate(seed: int, nwindows: int = 8) -> str:
    """One seeded program, ready to assemble."""
    return render(generate_blocks(seed, nwindows), seed)


def shrink(blocks: list[Block], still_fails) -> list[Block]:
    """Delta-debug *blocks* to a locally minimal failing subset.

    *still_fails(blocks)* re-renders and re-runs the candidate; the
    result is 1-minimal — removing any single remaining block makes the
    failure disappear.  Chunked passes first (halves, then smaller) so
    large programs collapse quickly.
    """
    chunk = max(1, len(blocks) // 2)
    while chunk >= 1:
        i = 0
        while i < len(blocks):
            candidate = blocks[:i] + blocks[i + chunk:]
            if candidate and still_fails(candidate):
                blocks = candidate  # keep the removal, stay at this index
            else:
                i += chunk
        chunk //= 2
    return blocks
