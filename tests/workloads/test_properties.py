"""Property tests: random inputs through the whole stack.

For every registry workload, hypothesis draws input seeds; each seed is
generated, rendered to C, compiled by the in-repo toolchain, executed
on the functional engine, and the RESULT word compared against the
pure-Python reference model.  Any divergence is a bug somewhere in
generator/compiler/engine — and the shrunk failing program is written
as a full assembly listing into ``tests/difftest/corpus/``, where
``test_corpus_replays`` keeps replaying it forever once committed.

``derandomize=True``: the drawn seeds are a pure function of the test,
so CI and local runs explore the same inputs (the workloads' own
seeded generators provide the actual input entropy).
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.toolchain.cc import compile_c
from repro.toolchain.driver import crt0_source
from repro.utils import u32
from repro.workloads import all_workloads

CORPUS = pathlib.Path(__file__).parent.parent / "difftest" / "corpus"

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]


def _record_failure(workload, seed: int) -> pathlib.Path:
    """Write the failing program as a self-contained corpus listing.

    crt0 + compiled kernel is exactly what ``compile_c_program`` links,
    flattened to one assembly file so the difftest corpus replayer
    (which builds with ``with_crt0=False``, entry ``_start``) picks it
    up with no knowledge of the workload registry.
    """
    listing = crt0_source() + "\n" + compile_c(workload.c_source(seed))
    CORPUS.mkdir(exist_ok=True)
    path = CORPUS / f"shrunk_workload_{workload.name}.s"
    header = (f"! workload '{workload.name}' seed {seed}: "
              f"RESULT != reference model\n"
              f"! regenerate: repro.workloads.get"
              f"('{workload.name}').c_source({seed})\n")
    path.write_text(header + listing)
    return path


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_random_inputs_match_reference(workload, seed):
    result = workload.self_check(engine="translated", seed=seed)
    if not result.ok:
        path = _record_failure(workload, seed)
        pytest.fail(f"{result.describe()}\nlisting written to {path} — "
                    f"commit it to the regression corpus")
    assert u32(result.result_word) == workload.expected(seed)


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_inputs_are_compilable_and_bounded(workload, seed):
    """Generated sources always compile, and the declared footprint
    metadata stays truthful for every seed, not just seed 0."""
    image = workload.image(seed)
    assert image.entry
    assert workload.footprint_bytes(seed) > 0
