"""Registry workloads as differential seeds.

The fuzzer's generated programs cover the ISA corner-by-corner; the
workload registry covers it the way real programs do — long dependent
chains, recursion through the register windows, byte-granularity memory
traffic.  Every registry kernel must (a) run divergence-free on both
engines and (b) compute the answer its Python reference model predicts,
on both engines — so a workload seed failing here localizes to either
an engine bug (divergence) or a toolchain bug (both engines agree on
the wrong answer).
"""

from __future__ import annotations

import pytest

from repro.utils import u32
from repro.workloads import all_workloads, get
from tests.difftest.harness import (
    ALL_TIMING,
    compare_image,
    compare_timing,
    compare_traced,
)

WINDOW_OVERFLOW_TT = 0x05
WINDOW_UNDERFLOW_TT = 0x06


def _ids():
    return [w.name for w in all_workloads()]


@pytest.mark.difftest
@pytest.mark.parametrize("workload", all_workloads(), ids=_ids())
def test_workload_engines_agree_and_self_check(workload):
    result = compare_traced(workload.image(),
                            max_instructions=workload.max_instructions,
                            timing=ALL_TIMING)
    assert result.ok, (
        f"{workload.name}: engines diverged:\n" + "\n".join(result.problems))
    expected = workload.expected()
    assert u32(result.accurate.result_word) == expected, (
        f"{workload.name}: accurate engine computed "
        f"{u32(result.accurate.result_word):#010x}, "
        f"reference model says {expected:#010x}")
    # result.ok already proved functional == accurate, so the reference
    # check transfers; assert anyway so a failure names both engines.
    assert u32(result.functional.result_word) == expected
    # Every kernel's loops ran as regions in the translated column, and
    # their member exits stayed in generated code: fewer calls of it
    # than member bodies run.
    fastpath = result.translated.fastpath
    assert fastpath["traces_translated"] > 0
    assert fastpath["dispatches"] < fastpath["blocks_executed"], fastpath


@pytest.mark.difftest
def test_recursive_sort_exercises_window_traps():
    """Trap-parity spot check: the recursive quicksort must actually
    drive the register-window machinery — overflow on the way down,
    underflow on the way up — and still match across engines (which
    :func:`compare_image` proved, ArchState trap counts included)."""
    workload = get("qsort_rec")
    assert workload.takes_window_traps
    result = compare_image(workload.image(),
                           max_instructions=workload.max_instructions)
    assert result.ok, "\n".join(result.problems)
    taken = result.trap_types()
    assert WINDOW_OVERFLOW_TT in taken, (
        f"qsort_rec never overflowed a window (traps seen: {taken})")
    assert WINDOW_UNDERFLOW_TT in taken, (
        f"qsort_rec never underflowed a window (traps seen: {taken})")
    # Deep recursion, not a one-off: multiple spills each way.
    overflows = sum(1 for tt, _pc in result.traps
                    if tt == WINDOW_OVERFLOW_TT)
    assert overflows >= 2


#: The registry's long-running kernels (hidden from all_workloads()).
LONG_KERNELS = ("xtea_stream", "fir_stream", "ipsum_stream")


@pytest.mark.difftest
@pytest.mark.slow
@pytest.mark.parametrize("name", LONG_KERNELS)
def test_long_kernel_replayed_timing_matches(name):
    """The timing column over the long kernels: each one's replayed
    record equals the accurate engine's, byte for byte."""
    workload = get(name)
    problems = compare_timing(workload.image(), workload.max_instructions,
                              ("stock",))
    assert not problems, "\n".join(problems)
