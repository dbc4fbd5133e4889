"""Structured event trace: a bounded ring of timestamped typed events.

This is the software analogue of the paper's streamed instrumented
traces (Figure 1: "simulation can provide additional instruction traces
to assist the developer"): where :mod:`repro.analysis.trace` captures
the dense per-access memory trace, the :class:`EventTrace` records the
*sparse* control-plane story — program dispatch, completion, traps,
cache flushes, protocol retransmissions — cycle-stamped so events from
different layers interleave on one timeline.

Events are stamped with the simulation cycle (never wall-clock), so
traces are deterministic and diffable across serial/parallel runs.  The
ring is bounded: when full, the oldest events are dropped and counted,
never silently lost.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

__all__ = ["Event", "EventTrace"]


@dataclass(frozen=True)
class Event:
    """One timestamped typed event."""

    cycle: int
    kind: str
    fields: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        record = {"cycle": self.cycle, "kind": self.kind}
        record.update(self.fields)
        return record


class EventTrace:
    """Bounded ring buffer of :class:`Event` records."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, cycle: int, kind: str, **fields) -> None:
        self.recorded += 1
        self._ring.append(Event(cycle, kind,
                                tuple(sorted(fields.items()))))

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self._ring)

    def events(self, kind: str | None = None) -> list[Event]:
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._ring)

    def to_jsonl(self) -> str:
        """JSON-lines export, one event per line, oldest first."""
        return "\n".join(
            json.dumps(event.as_dict(), sort_keys=True,
                       separators=(",", ":"))
            for event in self._ring)
