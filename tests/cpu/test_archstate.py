"""Property tests for ArchState capture/restore (the two-speed engine's
correctness keystone).

The property that matters: *restore-then-run equals run-straight-
through, byte for byte* — same final architectural state (every window,
control registers, memory image, peripheral counters), same UART bytes,
same result word.  Programs come from the differential suite's seeded
generator, so the explored state space includes window traps, MMIO side
effects and multiply/divide traffic, not just straight-line ALU code.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sim import Simulator
from repro.cpu.archstate import ArchState
from tests.difftest import gen
from tests.difftest.harness import build

SEEDS = st.integers(min_value=0, max_value=500)
STEPS = st.integers(min_value=0, max_value=4000)

#: Each example boots and runs real simulators; cap the count and drop
#: the per-example deadline so slow hosts don't flake.
EXAMPLE_SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=64)
def _image(seed: int):
    return build(gen.generate(seed))


def _checkpoint(image, steps: int) -> ArchState:
    """The state *steps* steps into *image* on the translated engine."""
    sim = Simulator()
    fast = sim.translated_unit()
    sim._dispatch_on(fast, image)
    fast.fast_forward(steps, stop_pc=sim.rom_info.poll_address)
    return ArchState.capture(sim, engine=fast)


def _resume(state: ArchState) -> Simulator:
    """A fresh simulator that restores *state* and finishes the program
    on the accurate engine — how a sampled window that cannot be
    replayed resumes from its checkpoint."""
    sim = Simulator()
    state.restore(sim)
    sim.cpu.run(until_pc=sim.rom_info.poll_address)
    # Park the polling loop, as Simulator.run does after the program.
    sim.sram.host_write_word(sim.memmap.mailbox_start, 0)
    return sim


@given(seed=SEEDS, steps=STEPS)
@EXAMPLE_SETTINGS
def test_capture_restore_round_trip(seed, steps):
    """restore(capture(sim)) into a fresh simulator reproduces the
    captured state exactly."""
    state = _checkpoint(_image(seed), steps)

    fresh = Simulator()
    state.restore(fresh)
    assert ArchState.capture(fresh) == state


@given(seed=SEEDS, steps=STEPS)
@EXAMPLE_SETTINGS
def test_restore_then_run_equals_straight_through(seed, steps):
    """Fast-forward N steps, checkpoint, restore into a *different*
    simulator, finish there — the final machine must be byte-identical
    to a cold cycle-accurate run, peripheral counters included."""
    image = _image(seed)

    straight = Simulator()
    report_straight = straight.run(image)
    final_straight = ArchState.capture(straight)

    resumed = _resume(_checkpoint(image, steps))
    final_resumed = ArchState.capture(resumed)

    assert final_resumed == final_straight
    assert resumed.uart.transmitted() == report_straight.uart_output
    assert (resumed.sram.host_read_word(resumed.memmap.result_addr)
            == report_straight.result_word)


def test_restore_rejects_mismatched_memory_size():
    state = _checkpoint(_image(0), 100)
    state.memory["sram"] = state.memory["sram"][:-1]
    fresh = Simulator()
    try:
        state.restore(fresh)
    except ValueError as err:
        assert "sram" in str(err)
    else:
        raise AssertionError("truncated memory image accepted")
