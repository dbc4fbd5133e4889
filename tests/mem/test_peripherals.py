"""APB peripheral tests: UART, timer, IRQ controller, LEDs, cycle counter."""

import pytest

from repro.peripherals import (
    Clock,
    CycleCounter,
    IrqController,
    LedPort,
    Timer,
    Uart,
)
from repro.peripherals.timer import CTRL_ENABLE, CTRL_LOAD, CTRL_RELOAD
from repro.peripherals.uart import STATUS_DATA_READY, STATUS_TX_HOLD_EMPTY


class TestClock:
    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.cycles == 15

    def test_seconds_at_30mhz(self):
        clock = Clock(frequency_hz=30_000_000)
        clock.advance(30_000_000)
        assert clock.seconds() == pytest.approx(1.0)

    def test_time_cannot_reverse(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestUart:
    def test_tx_log_collects_bytes(self):
        uart = Uart()
        for byte in b"ok":
            uart.write_register(0x0, byte)
        assert uart.transmitted() == b"ok"

    def test_rx_fifo_and_data_ready(self):
        uart = Uart()
        assert not uart.read_register(0x4) & STATUS_DATA_READY
        uart.host_send(b"A")
        assert uart.read_register(0x4) & STATUS_DATA_READY
        assert uart.read_register(0x0) == ord("A")
        assert not uart.read_register(0x4) & STATUS_DATA_READY

    def test_tx_always_ready(self):
        uart = Uart()
        assert uart.read_register(0x4) & STATUS_TX_HOLD_EMPTY

    def test_disabled_tx_drops(self):
        uart = Uart()
        uart.write_register(0x8, 0x1)  # RX only
        uart.write_register(0x0, ord("x"))
        assert uart.transmitted() == b""

    def test_disabled_rx_ignores_host(self):
        uart = Uart()
        uart.write_register(0x8, 0x2)  # TX only
        uart.host_send(b"y")
        assert uart.read_register(0x0) == 0

    def test_scaler_register(self):
        uart = Uart()
        uart.write_register(0xC, 0x123)
        assert uart.read_register(0xC) == 0x123


class TestTimer:
    def test_counts_down_from_loaded_value(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 100)
        timer.write_register(0x8, CTRL_ENABLE)
        clock.advance(30)
        assert timer.read_register(0x0) == 70

    def test_prescaler_divides(self):
        clock = Clock()
        timer = Timer(clock, prescaler=10)
        timer.write_register(0x0, 100)
        timer.write_register(0x8, CTRL_ENABLE)
        clock.advance(95)
        assert timer.read_register(0x0) == 91

    def test_one_shot_saturates_at_zero(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 10)
        timer.write_register(0x8, CTRL_ENABLE)
        clock.advance(50)
        assert timer.read_register(0x0) == 0
        assert timer.pending_underflows() == 1

    def test_auto_reload_wraps(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x4, 9)              # reload value
        timer.write_register(0x8, CTRL_ENABLE | CTRL_RELOAD | CTRL_LOAD)
        clock.advance(25)
        # start 9; after 25 ticks: 9 -> ... wraps at period 10
        assert timer.read_register(0x0) == 9 - (25 % 10) + (0 if 25 % 10 <= 9 else 10)
        assert timer.pending_underflows() == 2

    def test_disabled_timer_holds_value(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 42)
        clock.advance(100)
        assert timer.read_register(0x0) == 42

    def test_bad_prescaler(self):
        with pytest.raises(ValueError):
            Timer(Clock(), prescaler=0)

    def test_late_enable_does_not_backdate_ticks(self):
        """Regression: enabling without CTRL_LOAD used to leave the
        anchor at the last load cycle, so every cycle since then was
        counted as if the timer had been running the whole time."""
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 50)
        clock.advance(1000)                 # timer off: not ticks
        timer.write_register(0x8, CTRL_ENABLE)
        assert timer.read_register(0x0) == 50
        clock.advance(20)
        assert timer.read_register(0x0) == 30

    def test_late_enable_underflows_only_from_the_edge(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 50)
        clock.advance(1000)
        timer.write_register(0x8, CTRL_ENABLE)
        # Pre-fix this reported an underflow immediately (1000 phantom
        # ticks against a 50-tick countdown).
        assert timer.pending_underflows() == 0
        clock.advance(51)
        assert timer.pending_underflows() == 1

    def test_disable_then_reenable_resumes_where_it_stopped(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x0, 100)
        timer.write_register(0x8, CTRL_ENABLE)
        clock.advance(40)
        timer.write_register(0x8, 0)        # pause at 60
        clock.advance(500)
        assert timer.read_register(0x0) == 60
        timer.write_register(0x8, CTRL_ENABLE)
        clock.advance(10)
        assert timer.read_register(0x0) == 50

    def test_enable_with_load_still_loads(self):
        clock = Clock()
        timer = Timer(clock)
        timer.write_register(0x4, 7)
        clock.advance(1000)
        timer.write_register(0x8, CTRL_ENABLE | CTRL_LOAD)
        assert timer.read_register(0x0) == 7


class TestIrqController:
    def test_pending_level_respects_mask(self):
        irq = IrqController()
        irq.raise_irq(4)
        assert irq.pending_level() == 0      # masked by default
        irq.write_register(0x4, 1 << 4)
        assert irq.pending_level() == 4

    def test_highest_level_wins(self):
        irq = IrqController()
        irq.write_register(0x4, 0xFFFE)
        irq.raise_irq(3)
        irq.raise_irq(9)
        assert irq.pending_level() == 9

    def test_acknowledge_clears(self):
        irq = IrqController()
        irq.write_register(0x4, 0xFFFE)
        irq.raise_irq(5)
        irq.acknowledge(5)
        assert irq.pending_level() == 0

    def test_force_and_clear_registers(self):
        irq = IrqController()
        irq.write_register(0x4, 0xFFFE)
        irq.write_register(0x8, 1 << 7)   # force
        assert irq.pending_level() == 7
        irq.write_register(0xC, 1 << 7)   # clear
        assert irq.pending_level() == 0

    def test_invalid_level_rejected(self):
        irq = IrqController()
        with pytest.raises(ValueError):
            irq.raise_irq(0)
        with pytest.raises(ValueError):
            irq.raise_irq(16)


class TestLeds:
    def test_pattern_rendering(self):
        leds = LedPort(Clock())
        leds.write_register(0, 0b1010_0001)
        assert leds.pattern() == "#.#....#"

    def test_history_records_changes_with_time(self):
        clock = Clock()
        leds = LedPort(clock)
        leds.write_register(0, 1)
        clock.advance(50)
        leds.write_register(0, 3)
        leds.write_register(0, 3)  # no change, no record
        assert leds.history == [(0, 1), (50, 3)]

    def test_width_mask(self):
        leds = LedPort(Clock(), width=4)
        leds.write_register(0, 0xFF)
        assert leds.value == 0xF


class TestCycleCounter:
    def test_arm_freeze_measures_interval(self):
        clock = Clock()
        counter = CycleCounter(clock)
        clock.advance(100)
        counter.arm()
        clock.advance(250)
        assert counter.freeze() == 250
        clock.advance(50)
        assert counter.value() == 250  # frozen

    def test_value_live_while_running(self):
        clock = Clock()
        counter = CycleCounter(clock)
        counter.arm()
        clock.advance(7)
        assert counter.value() == 7

    def test_apb_register_interface(self):
        clock = Clock()
        counter = CycleCounter(clock)
        counter.write_register(0x4, 1)    # arm
        clock.advance(12)
        assert counter.read_register(0x0) == 12
        assert counter.read_register(0x4) == 1
        counter.write_register(0x4, 0)    # freeze
        clock.advance(5)
        assert counter.read_register(0x0) == 12

    def test_rearm_restarts_from_zero(self):
        clock = Clock()
        counter = CycleCounter(clock)
        counter.arm()
        clock.advance(10)
        counter.freeze()
        counter.arm()
        clock.advance(3)
        assert counter.value() == 3

    def test_rearm_then_immediate_freeze_reads_zero(self):
        """Regression: arm() must discard the previous frozen count, so
        freezing after zero elapsed cycles reads 0, not the stale value
        of the last measured program."""
        clock = Clock()
        counter = CycleCounter(clock)
        counter.arm()
        clock.advance(123)
        assert counter.freeze() == 123
        counter.arm()                    # re-arm, no cycles elapse
        assert counter.value() == 0
        assert counter.freeze() == 0     # not 123
        assert counter.read_register(0x0) == 0

    def test_double_freeze_keeps_first_count(self):
        clock = Clock()
        counter = CycleCounter(clock)
        counter.arm()
        clock.advance(42)
        assert counter.freeze() == 42
        clock.advance(58)
        assert counter.freeze() == 42    # second freeze is a no-op

    def test_clock_reset_while_armed_never_goes_negative(self):
        """Regression: a clock reset while the counter is armed used to
        freeze a negative elapsed count, which the 32-bit register then
        exposed as wrapped garbage."""
        clock = Clock()
        counter = CycleCounter(clock)
        clock.advance(100)
        counter.arm()
        clock.reset()
        assert counter.value() == 0
        assert counter.freeze() == 0
        assert counter.read_register(0x0) == 0


class TestStateSnapshots:
    """Every peripheral a checkpoint covers must round-trip through
    state()/load_state() — including state that used to be private and
    unreachable (a counter armed mid-count)."""

    def test_cycle_counter_armed_mid_count(self):
        clock = Clock()
        counter = CycleCounter(clock)
        clock.advance(100)
        counter.arm()
        clock.advance(37)
        snapshot = counter.state()

        other_clock = Clock()
        other_clock.advance(137)
        restored = CycleCounter(other_clock)
        restored.load_state(snapshot)
        assert restored.running
        assert restored.value() == counter.value() == 37
        other_clock.advance(13)
        assert restored.freeze() == 50

    def test_cycle_counter_frozen_value_survives(self):
        clock = Clock()
        counter = CycleCounter(clock)
        counter.arm()
        clock.advance(42)
        counter.freeze()
        restored = CycleCounter(Clock())
        restored.load_state(counter.state())
        assert not restored.running
        assert restored.read_register(0x0) == 42

    def test_uart_round_trips_fifo_and_log(self):
        uart = Uart()
        uart.host_send(b"hi")
        uart.write_register(0x0, ord("A"))
        uart.read_register(0x0)  # pop 'h'
        restored = Uart()
        restored.load_state(uart.state())
        assert restored.tx_log == [ord("A")]
        assert list(restored.rx_fifo) == [ord("i")]
        assert restored.read_register(0x4) & STATUS_DATA_READY

    def test_led_history_round_trips(self):
        clock = Clock()
        leds = LedPort(clock)
        leds.write_register(0, 0x5)
        clock.advance(10)
        leds.write_register(0, 0xA)
        restored = LedPort(Clock())
        restored.load_state(leds.state())
        assert restored.value == 0xA
        assert restored.history == [(0, 0x5), (10, 0xA)]
