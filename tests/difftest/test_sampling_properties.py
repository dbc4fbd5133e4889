"""Conservation property: sampled runs partition generated programs.

Hypothesis draws seeded difftest programs (the same generator the
engine-differential suite uses) plus random sampling plans, and checks
the books balance exactly: the phase ledger's retired-instruction
counts sum to the full-run retired count measured by an *independent*
cycle-accurate execution, its step counts tile ``[0, total_steps)``
with no gaps or overlaps, and the architectural outputs (RESULT word,
UART byte stream) match the accurate run's.  Any imbalance means a
checkpoint restored into the wrong position or a window measured the
wrong span — silent corruptions a CPI comparison would paper over.

``derandomize=True`` keeps the drawn corpus identical across CI and
local runs.  A failing draw is written as a full assembly listing into
``corpus/`` so ``test_corpus_replays`` keeps covering it once
committed.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import Simulator
from tests.difftest import gen
from tests.difftest.harness import MAX_INSTRUCTIONS, build

pytestmark = [pytest.mark.difftest, pytest.mark.sampling]

CORPUS = pathlib.Path(__file__).parent / "corpus"

plans = st.builds(
    SamplingPlan,
    n_windows=st.integers(min_value=1, max_value=12),
    window_length=st.sampled_from([50, 200, 1000, 100_000]),
    ramp_length=st.sampled_from([0, 64, 512]),
    seed=st.integers(min_value=0, max_value=999),
)


def _record_failure(program_seed: int, plan: SamplingPlan,
                    problem: str) -> pathlib.Path:
    listing = gen.render(gen.generate_blocks(program_seed), program_seed)
    CORPUS.mkdir(exist_ok=True)
    path = CORPUS / f"shrunk_sampling_seed{program_seed}.s"
    header = (f"! sampling conservation failure, program seed "
              f"{program_seed}\n"
              f"! plan: {plan}\n"
              f"! {problem}\n")
    path.write_text(header + listing)
    return path


@given(program_seed=st.integers(min_value=0, max_value=2**16 - 1),
       plan=plans)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_phases_conserve_instructions_and_steps(program_seed, plan):
    image = build(gen.render(gen.generate_blocks(program_seed),
                             program_seed))

    accurate = Simulator().run(
        image, max_instructions=MAX_INSTRUCTIONS)
    run = SampledRunner().run(image, plan,
                              max_instructions=MAX_INSTRUCTIONS)

    problems = []
    if sum(p["instructions"] for p in run.phases) != accurate.instructions:
        problems.append(
            f"phase instructions sum "
            f"{sum(p['instructions'] for p in run.phases)} != full-run "
            f"retired count {accurate.instructions}")
    if run.total_instructions != accurate.instructions:
        problems.append(
            f"survey retired count {run.total_instructions} != accurate "
            f"retired count {accurate.instructions}")
    position = 0
    for phase in run.phases:
        if phase["start"] != position:
            problems.append(
                f"phase {phase} starts at {phase['start']}, expected "
                f"{position}")
            break
        position = phase["end"]
    else:
        if position != run.total_steps:
            problems.append(
                f"phases end at {position}, total_steps is "
                f"{run.total_steps}")
    if run.result_word != accurate.result_word:
        problems.append(
            f"RESULT {run.result_word!r} != accurate "
            f"{accurate.result_word!r}")
    if run.uart_hex != accurate.uart_output.hex():
        problems.append("UART byte streams diverge")

    if problems:
        path = _record_failure(program_seed, plan, "; ".join(problems))
        pytest.fail("\n".join(problems) +
                    f"\nlisting written to {path} — commit it to the "
                    f"regression corpus")
