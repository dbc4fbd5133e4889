"""Randomized differential test: functional engine vs cycle-accurate.

Every seeded program must finish with an identical architectural state
(registers in all windows, control registers, memory, peripherals,
retired/trap counts) and an identical UART byte stream on both engines,
and its replayed timing record must equal the accurate engine's under
the stock configuration plus one more (rotating through
``harness.EXTRA_TIMING`` by seed; the corpus runs all of them).
Every eleventh seed also runs the sampled column: its sampled run,
windows replayed, must equal the accurate oracle's run of the same
plan under the same two configurations.
Seeded programs mostly run once, so they translate each block on its
first entry (``harness.compare_generated``), and each must run
translated code; each with a hot counted loop must compile a trace.
A failing seed is delta-debugged down to a minimal block listing, which
is written into ``corpus/`` — commit that file so the bug stays covered
forever (``test_corpus_replays`` re-runs every committed listing).

``DIFFTEST_PROGRAMS`` scales the randomized set (default 200 seeds);
CI runs the default set on every push and a larger one on the main
branch.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from tests.difftest import gen
from repro.core.replay import REPLAYED
from tests.difftest.harness import (
    ALL_TIMING,
    DEFAULT_PROGRAMS,
    MAX_INSTRUCTIONS,
    build,
    compare_engines,
    compare_generated,
    compare_sampled,
    timing_for,
)

pytestmark = pytest.mark.difftest

PROGRAMS = int(os.environ.get("DIFFTEST_PROGRAMS", DEFAULT_PROGRAMS))
CHUNKS = 20
CORPUS = pathlib.Path(__file__).parent / "corpus"
#: The sampled column's seeds: a stride coprime to the rotation, so
#: every extra timing configuration takes its turn.
SAMPLED_SEEDS = range(3, PROGRAMS, 11)


def _seeds_for(chunk: int) -> range:
    per = (PROGRAMS + CHUNKS - 1) // CHUNKS
    return range(chunk * per, min((chunk + 1) * per, PROGRAMS))


def _shrink_and_record(seed: int, problems: list[str]) -> str:
    """Minimize the failing seed and write the listing into corpus/."""
    blocks = gen.generate_blocks(seed)

    def still_fails(candidate):
        return bool(compare_generated(gen.render(candidate, seed),
                                      timing=timing_for(seed)).problems)

    minimal = gen.shrink(blocks, still_fails)
    listing = gen.render(minimal, seed)
    CORPUS.mkdir(exist_ok=True)
    path = CORPUS / f"shrunk_seed{seed}.s"
    header = "".join(f"! {line}\n" for line in [
        f"shrunk from seed {seed} "
        f"({len(blocks)} blocks -> {len(minimal)})",
        "engines diverged:", *problems,
    ])
    path.write_text(header + listing)
    return str(path)


@pytest.mark.slow
@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_generated_programs_match(chunk):
    for seed in _seeds_for(chunk):
        result = compare_generated(gen.generate(seed),
                                   timing=timing_for(seed))
        problems = result.problems
        if problems:
            path = _shrink_and_record(seed, problems)
            pytest.fail(
                f"seed {seed}: engines diverged:\n  "
                + "\n  ".join(problems)
                + f"\nshrunk listing written to {path} — commit it "
                f"to the regression corpus")
        # The translated column must have compiled blocks, and a hot
        # counted loop must have run as a trace.
        fastpath = result.translated.fastpath
        assert fastpath["blocks_translated"] > 0, seed
        if _hot_loops(seed):
            assert fastpath["traces_translated"] > 0, seed


def _hot_loops(seed: int) -> list[list[str]]:
    """The bodies of the seed's counted loops (``_block_loop``) of three
    or more iterations: the first runs inside the block that falls into
    the loop, the second in the loop's own blocks, whose exit back to
    the head compiles the trace.  (A ``_block_smc`` loop FLUSHes every
    iteration, which drops every translation, so it never forms one.)"""
    return [block.body for block in gen.generate_blocks(seed)
            if len(block.body) > 1 and block.body[1].endswith("_top:")
            and int(block.body[0].split()[1].rstrip(",")) >= 3]


def test_most_seeds_run_a_hot_loop():
    """The trace assertion above is not vacuous."""
    assert sum(1 for seed in range(PROGRAMS) if _hot_loops(seed)) > (
        PROGRAMS // 2)


def test_hot_loops_span_blocks():
    """Hot loops with zero, one and two forward branches in their body
    (traces of one, two and three members) occur, and so do branches to
    the word after their delay slot, annulled and not, whose two arms
    lead to the same member."""
    shapes = set()
    for body in (body for seed in range(PROGRAMS)
                 for body in _hot_loops(seed)):
        branches = [i for i, line in enumerate(body)
                    if line.endswith("_skip")]
        shapes.add(len(branches))
        for i in branches:
            if body[i + 2].endswith("_skip:"):
                shapes.add(".+8,a" if ",a " in body[i] else ".+8")
    assert shapes == {0, 1, 2, ".+8", ".+8,a"}


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
def test_sampled_windows_match_the_oracle(seed):
    problems, paths = compare_sampled(build(gen.generate(seed)),
                                      MAX_INSTRUCTIONS, timing_for(seed))
    assert not problems, f"seed {seed}:\n" + "\n".join(problems)
    assert set(paths.values()) == {REPLAYED}


@pytest.mark.parametrize(
    "listing",
    sorted(CORPUS.glob("*.s"), key=lambda p: p.name) or
    [pytest.param(None, marks=pytest.mark.skip(reason="corpus empty"))],
    ids=lambda p: p.name if p else "empty")
def test_corpus_replays(listing):
    """Every committed corpus listing stays engine-identical, at the
    translator's default thresholds and at the eager ones its seed was
    run and shrunk with (``harness.compare_generated``): a listing of a
    trace bug loops too few times to form a trace at the default."""
    source = listing.read_text()
    problems = (compare_engines(source, timing=ALL_TIMING)
                + compare_generated(source, timing=ALL_TIMING).problems)
    assert not problems, (
        f"{listing.name} diverged again:\n  " + "\n  ".join(problems))


def test_generator_is_deterministic():
    """Same seed, same program — across calls and across processes
    (string-seeded RNG, no salted hashing anywhere)."""
    assert gen.generate(1234) == gen.generate(1234)
    blocks = gen.generate_blocks(1234)
    assert gen.render(blocks, 1234) == gen.generate(1234)


def test_generated_programs_cover_the_mix():
    """The default seed set exercises every block family the generator
    knows — otherwise the differential suite silently loses coverage."""
    text = "".join(gen.generate(seed) for seed in range(50))
    for marker in ("call F", "call R", "udiv", "sdiv", "stb", "ldd",
                   "std", "deccc", "ta 0", "[%g7]", "_patch"):
        assert marker in text, f"mix lost '{marker}' blocks"


def test_shrinker_is_one_minimal():
    """ddmin on a synthetic predicate: failure iff blocks 3 AND 7 are
    both present must shrink to exactly those two blocks."""
    blocks = gen.generate_blocks(99)
    assert len(blocks) >= 8
    culprits = {id(blocks[3]), id(blocks[7])}

    def still_fails(candidate):
        return culprits <= {id(b) for b in candidate}

    minimal = gen.shrink(blocks, still_fails)
    assert {id(b) for b in minimal} == culprits
