"""FPX SDRAM controller + AHB adapter tests — the §3.2 design claims."""

import pytest

from repro.mem.adapter import AdapterConfig, AhbSdramAdapter
from repro.mem.interface import BusError
from repro.mem.sdram import FpxSdramController

BASE = 0x6000_0000
SIZE = 1 << 20


def make_stack(read_burst_words=4):
    controller = FpxSdramController(BASE, SIZE)
    port = controller.connect("leon")
    adapter = AhbSdramAdapter(port, BASE, SIZE,
                              AdapterConfig(read_burst_words))
    return controller, port, adapter


class TestSdramController:
    def test_max_three_ports(self):
        controller = FpxSdramController(BASE, SIZE)
        for name in ("a", "b", "c"):
            controller.connect(name)
        with pytest.raises(ValueError):
            controller.connect("d")

    def test_read_write_64bit_roundtrip(self):
        controller, port, _ = make_stack()
        port.write_burst(BASE, [0x1122334455667788])
        values, _ = port.read_burst(BASE, 1)
        assert values == [0x1122334455667788]

    def test_sequential_burst_roundtrip(self):
        controller, port, _ = make_stack()
        data = [0x100 * i for i in range(8)]
        port.write_burst(BASE + 64, data)
        values, _ = port.read_burst(BASE + 64, 8)
        assert values == data

    def test_misaligned_request_rejected(self):
        _, port, _ = make_stack()
        with pytest.raises(BusError):
            port.read_burst(BASE + 4, 1)

    def test_out_of_range_rejected(self):
        _, port, _ = make_stack()
        with pytest.raises(BusError):
            port.read_burst(BASE + SIZE, 1)

    def test_burst_amortizes_handshake(self):
        """One 8-beat burst is much cheaper than eight 1-beat requests."""
        _, port, _ = make_stack()
        _, burst_cycles = port.read_burst(BASE, 8)
        singles = sum(port.read_burst(BASE + 8 * i, 1)[1] for i in range(8))
        assert burst_cycles < singles

    def test_row_miss_penalty(self):
        controller, port, _ = make_stack()
        timing = controller.timing
        _, first = port.read_burst(BASE, 1)           # opens row 0
        _, same_row = port.read_burst(BASE + 8, 1)    # row hit
        _, new_row = port.read_burst(BASE + timing.row_size * 4, 1)
        assert same_row < first
        assert new_row == same_row + timing.row_miss_penalty

    def test_arbitration_switch_costs(self):
        controller = FpxSdramController(BASE, SIZE)
        a = controller.connect("leon")
        b = controller.connect("net")
        a.read_burst(BASE, 1)
        _, same_port = a.read_burst(BASE + 8, 1)
        _, switched = b.read_burst(BASE + 16, 1)
        assert switched == same_port + controller.timing.arbitration_cycles
        assert controller.arbitration_switches == 1

    def test_stats(self):
        controller, port, _ = make_stack()
        port.read_burst(BASE, 4)
        stats = controller.stats()
        assert stats["handshakes"] == 1
        assert stats["beats"] == 4


class TestAdapterReads:
    def test_word_read_roundtrip(self):
        controller, _, adapter = make_stack()
        controller.host_write(BASE + 0x100, (0x0102030405060708)
                              .to_bytes(8, "big"))
        assert adapter.read(BASE + 0x100, 4)[0] == 0x01020304
        assert adapter.read(BASE + 0x104, 4)[0] == 0x05060708

    def test_sub_word_reads(self):
        controller, _, adapter = make_stack()
        controller.host_write(BASE, bytes([0xAA, 0xBB, 0xCC, 0xDD,
                                           0x11, 0x22, 0x33, 0x44]))
        assert adapter.read(BASE + 1, 1)[0] == 0xBB
        assert adapter.read(BASE + 2, 2)[0] == 0xCCDD

    def test_stream_buffer_saves_handshakes(self):
        """§3.2: a fixed 4-word read burst means the next 3 sequential
        words cost no new handshake."""
        controller, _, adapter = make_stack(read_burst_words=4)
        adapter.read(BASE, 4)
        handshakes_before = controller.total_handshakes
        for offset in (4, 8, 12):
            _, cycles = adapter.read(BASE + offset, 4)
            assert cycles == 0
        assert controller.total_handshakes == handshakes_before
        assert adapter.handshakes_saved == 3

    def test_fifth_word_needs_new_handshake(self):
        controller, _, adapter = make_stack(read_burst_words=4)
        adapter.read(BASE, 4)
        _, cycles = adapter.read(BASE + 16, 4)
        assert cycles > 0

    def test_line_fill_two_handshakes_at_burst4(self):
        """8-word (32 B) cache-line fill = 2 groups = 2 handshakes."""
        controller, _, adapter = make_stack(read_burst_words=4)
        adapter.read_burst(BASE, 8)
        assert controller.total_handshakes == 2

    def test_single_word_policy_needs_handshake_per_word(self):
        controller, _, adapter = make_stack(read_burst_words=1)
        adapter.read_burst(BASE, 8)
        assert controller.total_handshakes == 8

    def test_burst4_faster_than_burst1(self):
        """The paper's central adapter claim, in cycles."""
        _, _, adapter4 = make_stack(read_burst_words=4)
        _, _, adapter1 = make_stack(read_burst_words=1)
        _, cycles4 = adapter4.read_burst(BASE, 8)
        _, cycles1 = adapter1.read_burst(BASE, 8)
        assert cycles4 < cycles1


class TestAdapterWrites:
    def test_write_is_read_modify_write(self):
        """'the controller must first read the entire contents of the
        memory address, modify the appropriate 32 bits, and then rewrite
        the data.  This requires two separate handshakes for each write
        request.'"""
        controller, _, adapter = make_stack()
        adapter.write(BASE, 4, 0xAAAAAAAA)
        assert controller.total_handshakes == 2
        assert adapter.rmw_writes == 1

    def test_write_preserves_other_half(self):
        controller, _, adapter = make_stack()
        controller.host_write(BASE, bytes(range(8)))
        adapter.write(BASE + 4, 4, 0xDEADBEEF)
        assert controller.host_read(BASE, 8) == \
            bytes(range(4)) + bytes.fromhex("deadbeef")

    def test_byte_write_merges(self):
        controller, _, adapter = make_stack()
        controller.host_write(BASE, bytes(8))
        adapter.write(BASE + 3, 1, 0x7F)
        assert controller.host_read(BASE, 8)[3] == 0x7F

    def test_write_invalidates_stream_buffer(self):
        controller, _, adapter = make_stack()
        adapter.read(BASE, 4)
        adapter.write(BASE, 4, 0x12345678)
        value, _ = adapter.read(BASE, 4)
        assert value == 0x12345678

    def test_write_burst_disallowed_by_default(self):
        _, _, adapter = make_stack()
        assert not adapter.supports_write_burst
        with pytest.raises(RuntimeError):
            adapter.write_burst(BASE, [1, 2])

    def test_write_costs_more_than_read(self):
        """The RMW penalty the paper calls 'significantly impairing
        performance'."""
        _, _, adapter = make_stack()
        _, read_cycles = adapter.read(BASE + 0x800, 4)
        write_cycles = adapter.write(BASE + 0x1000, 4, 1)
        assert write_cycles > read_cycles

    def test_ablation_write_burst_coalesces_pairs(self):
        controller, port, _ = make_stack()
        adapter = AhbSdramAdapter(port, BASE, SIZE,
                                  AdapterConfig(4, allow_write_burst=True))
        before = controller.total_handshakes
        adapter.write_burst(BASE, [0x11111111, 0x22222222])
        # Aligned pair -> one 64-bit beat, one handshake (no RMW).
        assert controller.total_handshakes == before + 1
        assert controller.host_read(BASE, 8) == \
            bytes.fromhex("1111111122222222")
