"""Shared cycle clock.

The platform owns one :class:`Clock`; the integer unit's consumed cycles
are pushed into it after every step, and time-aware peripherals (timers,
the FPX cycle counter) read it lazily.  Keeping a single time base means
"cycles" mean the same thing everywhere — the quantity the paper's
hardware counter reports.
"""

from __future__ import annotations


class Clock:
    """Monotonic cycle counter (the 30 MHz system clock of the paper)."""

    def __init__(self, frequency_hz: int = 30_000_000):
        self.cycles = 0
        self.frequency_hz = frequency_hz

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("time does not run backwards")
        self.cycles += cycles

    def seconds(self) -> float:
        """Wall-clock model time at the configured frequency."""
        return self.cycles / self.frequency_hz

    def reset(self) -> None:
        self.cycles = 0
