"""Self-modifying code under translation: deterministic difftest
programs that store into already-translated blocks and delay slots.

The randomized suite now generates SMC blocks too (``gen._block_smc``);
these pinned programs keep the three interesting shapes covered even at
small seed counts: patching a hot loop body, patching a delay slot, and
a block that patches an instruction *ahead of itself* so the translated
engine must bail out of the active block.  Every program is compared
byte-identical across all three engines (accurate, functional,
translated) through the shared harness, and every program's replayed
timing record must equal the accurate engine's — a store to code
followed by the FLUSH V8 requires keeps the I-cache coherent, so replay
stays exact.  So must each pinned program's sampled run (the sampled
column).
"""

from __future__ import annotations

import pytest

from tests.difftest import gen
from tests.difftest.harness import (
    ALL_TIMING,
    EXTRA_TIMING,
    MAX_INSTRUCTIONS,
    build,
    compare_engines,
    compare_sampled,
)

pytestmark = pytest.mark.difftest

PROLOGUE = """
    .text
    .global _start
_start:
    set 0x40170000, %sp
    set 0x40011000, %g6
"""
EPILOGUE = """
    set 0x40010000, %g1
    st %l0, [%g1]
    ta 0
    nop
"""


def _check(body: str) -> None:
    problems = compare_engines(PROLOGUE + body + EPILOGUE,
                               timing=ALL_TIMING)
    problems += compare_sampled(build(PROLOGUE + body + EPILOGUE),
                                MAX_INSTRUCTIONS, ALL_TIMING)[0]
    assert not problems, "\n".join(problems)


def test_patch_into_translated_loop_body():
    """By the second iteration the loop is translated; the store must
    invalidate the block and the third iteration must run new code."""
    _check("""
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    set 4, %o3
    mov 0, %l0
top:
    deccc %o3
target:
    add %l0, 1, %l0         ! becomes add %l0, 5 once patched
    st %o1, [%o2]
    flush [%o2]             ! V8 contract: flush before executing patched code
    bg top
    nop
    ba join
    nop
patch:
    add %l0, 5, %l0
join:
""")


def test_patch_into_translated_delay_slot():
    """The patched instruction sits in an annul-capable delay slot of
    an already-translated branch."""
    _check("""
    set patch, %o0
    ld [%o0], %o1
    set slot, %o2
    set 4, %o3
    mov 0, %l0
top:
    st %o1, [%o2]
    flush [%o2]
    deccc %o3
    bg,a top
slot:
    add %l0, 1, %l0         ! becomes add %l0, 7 once patched
    ba join
    nop
patch:
    add %l0, 7, %l0
join:
""")


def test_block_patches_ahead_of_itself():
    """A single straight-line block stores over one of its *own* later
    instructions — the translated engine must observe its own write
    (mid-block bail-out) the very first time through."""
    _check("""
    ba go
    nop
patch:
    add %l0, 9, %l0
go:
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    mov 0, %l0
    st %o1, [%o2]           ! patches an instruction below, same block
    flush [%o2]
    add %l0, 1, %l0
target:
    add %l0, 1, %l0         ! becomes add %l0, 9
    add %l0, 1, %l0
""")


def test_generated_smc_blocks_match():
    """A focused sweep of generator-built SMC blocks (both the loop-body
    and delay-slot shapes appear across these seeds)."""
    smc_seen = 0
    for seed in range(40):
        rng_blocks = gen.generate_blocks(seed)
        text = gen.render(rng_blocks, seed)
        if "_patch" not in text:
            continue
        smc_seen += 1
        problems = compare_engines(
            text, timing=("stock", EXTRA_TIMING[seed % len(EXTRA_TIMING)]))
        assert not problems, f"seed {seed}:\n" + "\n".join(problems)
    assert smc_seen > 0, "no SMC blocks in the first 40 seeds"
