"""LEON2-style decrementing timer with prescaler (APB).

Registers: ``0x0`` counter (read current value), ``0x4`` reload,
``0x8`` control (bit0 enable, bit1 reload-on-underflow, bit2 load now).
Time comes from the shared :class:`~repro.peripherals.clock.Clock` —
the timer computes its value lazily from elapsed cycles instead of being
ticked, which keeps the simulator's inner loop free of peripheral work.
"""

from __future__ import annotations

from repro.peripherals.clock import Clock
from repro.utils import u32

CTRL_ENABLE = 1 << 0
CTRL_RELOAD = 1 << 1
CTRL_LOAD = 1 << 2


class Timer:
    def __init__(self, clock: Clock, prescaler: int = 1):
        if prescaler < 1:
            raise ValueError("prescaler must be >= 1")
        self.clock = clock
        self.prescaler = prescaler
        self.reload = 0xFFFF_FFFF
        self.control = 0
        self._start_cycle = 0
        self._start_value = 0xFFFF_FFFF
        self.underflows = 0

    def _elapsed_ticks(self) -> int:
        return (self.clock.cycles - self._start_cycle) // self.prescaler

    def value(self) -> int:
        if not self.control & CTRL_ENABLE:
            return self._start_value
        ticks = self._elapsed_ticks()
        if ticks <= self._start_value:
            return self._start_value - ticks
        # Underflowed at least once.
        if not self.control & CTRL_RELOAD:
            return 0
        period = self.reload + 1
        past = ticks - self._start_value - 1
        return self.reload - (past % period)

    def pending_underflows(self) -> int:
        """Number of underflows since the last (re)load — an interrupt
        source for the IRQ controller."""
        if not self.control & CTRL_ENABLE:
            return 0
        ticks = self._elapsed_ticks()
        if ticks <= self._start_value:
            return 0
        if not self.control & CTRL_RELOAD:
            return 1
        period = self.reload + 1
        return 1 + (ticks - self._start_value - 1) // period

    # -- APB register interface --------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset == 0x0:
            return self.value()
        if offset == 0x4:
            return self.reload
        if offset == 0x8:
            return self.control
        return 0

    def write_register(self, offset: int, value: int) -> None:
        value = u32(value)
        if offset == 0x0:
            self._start_value = value
            self._start_cycle = self.clock.cycles
        elif offset == 0x4:
            self.reload = value
        elif offset == 0x8:
            was_enabled = bool(self.control & CTRL_ENABLE)
            now_enabled = bool(value & CTRL_ENABLE)
            if was_enabled and not now_enabled:
                # Latch the live value while it is still computable so a
                # later re-enable resumes from here instead of rewinding
                # to the last load anchor.
                self._start_value = self.value()
                self._start_cycle = self.clock.cycles
            self.control = value & 0x3
            if value & CTRL_LOAD:
                self._start_value = self.reload
                self._start_cycle = self.clock.cycles
            elif now_enabled and not was_enabled:
                # Re-anchor on the disabled->enabled edge: cycles that
                # elapsed while the timer was off are not ticks.
                self._start_cycle = self.clock.cycles
