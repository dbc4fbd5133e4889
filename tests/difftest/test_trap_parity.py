"""Trap parity: every TrapException site behaves identically on all
three engines (accurate, functional, translated), including the TBR
dispatch into the boot ROM's trap table.

Unhandled traps park the machine at the ROM's ``error_state`` loop with
ET = 0 and the trap type still latched in TBR — so driving both engines
to ``rom_info.error_address`` and comparing the full
:class:`~repro.cpu.archstate.ArchState` (which includes TBR, PSR, and
the trap window's ``%l1``/``%l2`` = trapped PC/nPC) proves the whole
entry sequence matched.  Window overflow/underflow are *handled* by the
ROM, so those run to normal completion instead.
"""

from __future__ import annotations

import pytest

from repro.core.sim import Simulator
from repro.core.sweep import _evaluate_group, _evaluate_task
from repro.cpu.archstate import ArchState
from repro.cpu.blockcache import TranslatedUnit
from repro.cpu.fastpath import FunctionalUnit
from repro.cpu.traps import WatchdogExpired
from tests.difftest.harness import (
    ALL_TIMING,
    MAX_INSTRUCTIONS,
    STOCK,
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
    ta 0
    nop
"""


def _run_to_error(asm_text: str, fast_unit=None):
    """Boot, dispatch, run until the machine parks at error_state: on
    the accurate engine, or on a *fast_unit* (a FunctionalUnit class)
    over the same machine."""
    image = build(asm_text)
    sim = Simulator(obs=False)
    engine = sim.cpu if fast_unit is None else sim._fast_unit(fast_unit)
    sim._dispatch_on(engine, image)
    engine.run(max_instructions=500_000,
               until_pc=sim.rom_info.error_address)
    if fast_unit is not None:
        sim._sync_from_functional(engine)
    return ArchState.capture(sim), engine


#: (name, trapping body, expected 8-bit trap type).
ERROR_CASES = [
    ("ld_unaligned", "    ld [%g6 + 2], %g1", 0x07),
    ("st_unaligned", "    st %g1, [%g6 + 1]", 0x07),
    ("lduh_unaligned", "    lduh [%g6 + 1], %g1", 0x07),
    ("ldd_unaligned", "    ldd [%g6 + 4], %g2", 0x07),
    ("illegal_unimp", "    unimp 0", 0x02),
    ("illegal_ldd_odd_rd", "    .word 0xc21b8000", 0x02),  # ldd rd=%g1
    ("illegal_wrpsr_bad_cwp", "    wr %g0, 31, %psr", 0x02),
    ("division_by_zero", "    udiv %g1, %g0, %g2", 0x2A),
    ("software_trap_5", "    ta 5", 0x85),
]


ERROR_PARAMS = pytest.mark.parametrize(
    "body,expected_tt", [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES])


@ERROR_PARAMS
def test_unhandled_trap_parity(body, expected_tt):
    _assert_unhandled_trap_parity(body, expected_tt)


@ERROR_PARAMS
@pytest.mark.usefixtures("translate_on_first_entry")
def test_unhandled_trap_parity_in_generated_code(body, expected_tt):
    """At the default threshold the run-once body is interpreted; here
    its block is compiled on its first entry, so the translated engine
    takes the trap in generated code."""
    unit = _assert_unhandled_trap_parity(body, expected_tt)
    assert unit.blocks_translated > 0


def _assert_unhandled_trap_parity(body, expected_tt):
    """Compare the three engines parked at error_state; returns the
    translated engine."""
    asm = PROLOGUE + body + "\n" + EPILOGUE
    accurate, _ = _run_to_error(asm)
    functional, _ = _run_to_error(asm, FunctionalUnit)
    translated, unit = _run_to_error(asm, TranslatedUnit)
    assert (accurate.tbr >> 4) & 0xFF == expected_tt
    assert accurate == functional
    assert accurate == translated
    # the error loop head is where both machines parked
    assert accurate.pc == functional.pc == translated.pc
    # trap entry disabled further traps and stayed there
    assert not accurate.psr & (1 << 5)  # PSR.ET
    return unit


@ERROR_PARAMS
def test_unhandled_trap_timing_parity(body, expected_tt):
    """The timing column of a program that never finishes: parked in
    error_state, it hits the watchdog on the accurate engine — and the
    replay path (recording pass, then its fallback) raises exactly the
    same."""
    _assert_unhandled_trap_timing_parity(body)


@ERROR_PARAMS
@pytest.mark.usefixtures("translate_on_first_entry")
def test_unhandled_trap_timing_parity_in_generated_code(body, expected_tt):
    """The same, with the recording pass compiling each block on its
    first entry: the trap exit is logged by generated code."""
    _assert_unhandled_trap_timing_parity(body)


def _assert_unhandled_trap_timing_parity(body):
    task = (STOCK, build(PROLOGUE + body + "\n" + EPILOGUE), 5_000, None)
    with pytest.raises(WatchdogExpired) as accurate:
        _evaluate_task(task)
    with pytest.raises(WatchdogExpired) as replayed:
        _evaluate_group([task])
    assert str(replayed.value) == str(accurate.value)


@pytest.mark.parametrize("depth", [2, 9, 12])
def test_window_trap_parity(depth):
    """Recursion past NWINDOWS drives the ROM's overflow handler on the
    way down and the underflow handler on the way up — both engines must
    take the same trap count and land in the same state."""
    asm = PROLOGUE + f"""
    set {depth}, %o0
    call recurse
    nop
""" + EPILOGUE + """
recurse:
    save %sp, -96, %sp
    subcc %i0, 1, %o0
    bg deeper
    nop
    ba unwind
    nop
deeper:
    call recurse
    nop
unwind:
    ret
    restore
"""
    problems = compare_engines(asm, timing=ALL_TIMING)
    image = build(asm)
    problems += compare_sampled(image, MAX_INSTRUCTIONS, ALL_TIMING)[0]
    assert not problems, "\n".join(problems)

    # prove the deep case actually trapped: run accurately and count
    sim = Simulator(obs=False)
    sim.run(image)
    state = ArchState.capture(sim)
    if depth > sim.config.nwindows:
        # at least one overflow and one underflow beyond the exit trap
        assert state.traps_taken >= 3
