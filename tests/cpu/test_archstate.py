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
import json

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


def _resume(state: ArchState) -> Simulator:
    """A fresh simulator that restores *state* and finishes the program
    on the accurate engine — how a sampled window that cannot be
    replayed resumes from its checkpoint."""
    sim = Simulator(capture_memory_trace=False, obs=False)
    sim.restore_state(state)
    sim.cpu.run(until_pc=sim.rom_info.poll_address)
    # Park the polling loop, as Simulator.run does after the program.
    sim.sram.host_write_word(sim.memmap.mailbox_start, 0)
    return sim


@given(seed=SEEDS, steps=STEPS)
@EXAMPLE_SETTINGS
def test_capture_restore_round_trip(seed, steps):
    """restore(capture(sim)) into a fresh simulator reproduces the
    captured state exactly (and the digest is stable)."""
    warm = Simulator(capture_memory_trace=False, obs=False)
    state = warm.checkpoint(_image(seed), steps)

    fresh = Simulator(capture_memory_trace=False, obs=False)
    fresh.restore_state(state)
    again = fresh.capture_state()

    assert again == state
    assert again.digest() == state.digest()


@given(seed=SEEDS, steps=STEPS)
@EXAMPLE_SETTINGS
def test_restore_then_run_equals_straight_through(seed, steps):
    """Fast-forward N steps, checkpoint, restore into a *different*
    simulator, finish there — the final machine must be byte-identical
    to a cold cycle-accurate run, peripheral counters included."""
    image = _image(seed)

    straight = Simulator(capture_memory_trace=False, obs=False)
    report_straight = straight.run(image)
    final_straight = ArchState.capture(straight)

    warm = Simulator(capture_memory_trace=False, obs=False)
    resumed = _resume(warm.checkpoint(image, steps))
    final_resumed = ArchState.capture(resumed)

    assert final_resumed == final_straight
    assert resumed.uart.transmitted() == report_straight.uart_output
    assert (resumed.sram.host_read_word(resumed.memmap.result_addr)
            == report_straight.result_word)


@given(seed=SEEDS, steps=STEPS)
@EXAMPLE_SETTINGS
def test_payload_round_trip(seed, steps):
    """to_payload -> JSON text -> from_payload is lossless, and the
    reconstructed state still restores into a working simulator."""
    warm = Simulator(capture_memory_trace=False, obs=False)
    state = warm.checkpoint(_image(seed), steps)

    wire = json.loads(json.dumps(state.to_payload()))
    back = ArchState.from_payload(wire)
    assert back == state
    assert back.digest() == state.digest()

    resumed = _resume(back)
    cold = Simulator(capture_memory_trace=False, obs=False)
    assert resumed.uart.transmitted() == cold.run(_image(seed)).uart_output


def test_payload_schema_is_checked():
    warm = Simulator(capture_memory_trace=False, obs=False)
    payload = warm.checkpoint(_image(0), 100).to_payload()
    payload["schema"] = 999
    try:
        ArchState.from_payload(payload)
    except ValueError as err:
        assert "schema" in str(err)
    else:
        raise AssertionError("stale schema accepted")


def test_restore_rejects_mismatched_memory_size():
    warm = Simulator(capture_memory_trace=False, obs=False)
    state = warm.checkpoint(_image(0), 100)
    state.memory["sram"] = state.memory["sram"][:-1]
    fresh = Simulator(capture_memory_trace=False, obs=False)
    try:
        fresh.restore_state(state)
    except ValueError as err:
        assert "sram" in str(err)
    else:
        raise AssertionError("truncated memory image accepted")


#: Arbitrary JSON values, for corrupting payload fields.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)


@functools.lru_cache(maxsize=1)
def _payload_text() -> str:
    warm = Simulator(capture_memory_trace=False, obs=False)
    return json.dumps(warm.checkpoint(_image(0), 200).to_payload())


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_corrupt_payload_raises_only_value_error(data):
    """Truncated, corrupt or mistyped payloads are rejected with
    ValueError — never KeyError, binascii.Error or zlib.error."""
    payload = json.loads(_payload_text())
    mutation = data.draw(st.sampled_from(
        ["drop", "retype", "truncate-blob", "corrupt-blob", "whole"]))
    if mutation == "drop":
        del payload[data.draw(st.sampled_from(sorted(payload)))]
    elif mutation == "retype":
        payload[data.draw(st.sampled_from(sorted(payload)))] = \
            data.draw(JSON_VALUES)
    elif mutation in ("truncate-blob", "corrupt-blob"):
        name = data.draw(st.sampled_from(sorted(payload["memory"])))
        blob = payload["memory"][name]
        cut = data.draw(st.integers(0, len(blob) - 1))
        tail = ("" if mutation == "truncate-blob"
                else data.draw(st.text(max_size=8)) + blob[cut + 1:])
        payload["memory"][name] = blob[:cut] + tail
    else:
        payload = data.draw(JSON_VALUES)
    try:
        state = ArchState.from_payload(payload)
    except ValueError:
        return
    assert isinstance(state, ArchState)
