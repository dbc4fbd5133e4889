"""EventTrace unit tests: bounded ring, cycle stamps, JSONL export."""

import json

import pytest

from repro.obs.events import Event, EventTrace


class TestEventTrace:
    def test_records_in_order_with_fields(self):
        trace = EventTrace()
        trace.record(10, "dispatch", entry=0x4000_1000)
        trace.record(250, "trap", tt=0x83, pc=0x4000_1040)
        events = trace.events()
        assert [e.kind for e in events] == ["dispatch", "trap"]
        assert events[1].as_dict() == {
            "cycle": 250, "kind": "trap", "pc": 0x4000_1040, "tt": 0x83}

    def test_ring_is_bounded_and_counts_drops(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.record(i, "tick")
        assert len(trace) == 4
        assert trace.recorded == 10
        assert trace.dropped == 6
        # Oldest dropped, newest kept.
        assert [e.cycle for e in trace.events()] == [6, 7, 8, 9]

    def test_kind_filter(self):
        trace = EventTrace()
        trace.record(1, "trap", tt=1)
        trace.record(2, "done")
        trace.record(3, "trap", tt=2)
        assert [e.cycle for e in trace.events("trap")] == [1, 3]

    def test_clear(self):
        trace = EventTrace()
        trace.record(1, "a")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_jsonl_round_trips_and_is_sorted(self):
        trace = EventTrace()
        trace.record(5, "dispatch", entry=64)
        trace.record(9, "done", cycles=4)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"cycle": 5, "entry": 64, "kind": "dispatch"}
        # Canonical separators: byte-stable across runs.
        assert lines[1] == '{"cycle":9,"cycles":4,"kind":"done"}'

    def test_event_fields_sorted_for_determinism(self):
        trace = EventTrace()
        trace.record(1, "x", b=2, a=1)
        assert trace.events()[0].fields == (("a", 1), ("b", 2))

    def test_events_are_immutable(self):
        event = Event(1, "x")
        with pytest.raises(Exception):
            event.cycle = 2
