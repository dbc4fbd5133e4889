"""Control-software tests: client over direct and lossy transports,
listener console, servlet, hardware emulator."""

import struct

import pytest

from repro.control import (
    ControlServlet,
    DeviceError,
    DirectTransport,
    HardwareEmulator,
    LiquidClient,
    LossyTransport,
    ResponseListener,
)
from repro.mem.memmap import DEFAULT_MAP
from repro.net.channel import ChannelConfig
from repro.net.protocol import LeonState
from repro.toolchain import assemble, link
from repro.toolchain.linker import MemoryMapScript


def make_image(value=99):
    return link([assemble(f"""
    .global _start
_start:
    set {value}, %o0
    set {DEFAULT_MAP.result_addr}, %g1
    st %o0, [%g1]
    ta 0
    nop
""")], MemoryMapScript.default(DEFAULT_MAP.program_base))


class TestClientDirect:
    def test_status(self, client):
        status = client.status()
        assert status.state == LeonState.POLLING

    def test_run_image_full_flow(self, client):
        result = client.run_image(make_image(77),
                                  result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 77
        assert result.cycles > 0

    def test_read_memory_arbitrary_range(self, client):
        client.run_image(make_image(0x11223344))
        data = client.read_memory(DEFAULT_MAP.result_addr, 4)
        assert data == b"\x11\x22\x33\x44"

    def test_read_word_helper(self, client):
        client.run_image(make_image(1234))
        assert client.read_word(DEFAULT_MAP.result_addr) == 1234

    def test_restart(self, client, platform):
        client.restart()
        assert platform.leon_ctrl.state in (LeonState.RESET,
                                            LeonState.POLLING)

    def test_rerun_same_program(self, client):
        image = make_image(5)
        first = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
        second = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
        assert first.result_word == second.result_word == 5

    def test_listener_records_console(self, client):
        client.status()
        lines = client.listener.console_lines()
        assert any("LEON status" in line for line in lines)

    def test_start_without_load_reports_device_error(self, platform):
        transport = DirectTransport(platform, platform.config.device_ip,
                                    platform.config.control_port)
        fresh = LiquidClient(transport)
        with pytest.raises(DeviceError):
            fresh.start()


class TestClientLossy:
    def _client(self, platform, **channel):
        transport = LossyTransport(platform, platform.config.device_ip,
                                   platform.config.control_port,
                                   channel_config=ChannelConfig(**channel),
                                   seed=123)
        return LiquidClient(transport), transport

    def test_status_over_lossy_channel(self, platform):
        client, _ = self._client(platform, loss=0.3)
        assert client.status().state == LeonState.POLLING

    def test_program_load_survives_loss_and_reorder(self, platform):
        client, transport = self._client(platform, loss=0.25, reorder=0.25,
                                         duplicate=0.1)
        result = client.run_image(make_image(42),
                                  result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 42
        stats = transport.channel_stats()
        assert stats["to_device"]["dropped"] > 0 or \
            stats["to_device"]["reordered"] > 0

    def test_corruption_rejected_by_checksums(self, platform):
        client, transport = self._client(platform, corrupt=0.3)
        result = client.run_image(make_image(9),
                                  result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 9
        # Some frames must have been corrupted on the wire and discarded.
        assert transport.to_device.corrupted + transport.to_client.corrupted \
            > 0

    def test_status_under_duplicate_and_reorder(self, platform):
        client, transport = self._client(platform, duplicate=0.6,
                                         reorder=0.4)
        for _ in range(5):
            assert client.status().state == LeonState.POLLING
        assert transport.to_client.duplicated > 0
        # The duplicated responses must have been suppressed, not
        # silently consumed by later requests.
        assert client.duplicates_suppressed + client.stale_suppressed > 0

    def test_read_memory_under_duplicate_and_reorder(self, platform):
        client, _ = self._client(platform, duplicate=0.5, reorder=0.5)
        client.run_image(make_image(0x11223344))
        addr = DEFAULT_MAP.result_addr
        # Interleave reads of different ranges: every answer must match
        # its own request even with late/duplicate MemoryData in flight.
        for _ in range(3):
            assert client.read_memory(addr, 4) == b"\x11\x22\x33\x44"
            assert client.read_memory(addr + 4, 4) is not None
            assert client.read_word(addr) == 0x11223344


class EchoStaleTransport(DirectTransport):
    """Replays every response payload it has ever delivered ahead of the
    fresh traffic — the pathological mirror of a duplicating channel."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._history = []

    def poll(self):
        fresh = super().poll()
        replay = list(self._history)
        self._history.extend(fresh)
        return replay + fresh


class TestStaleResponseAliasing:
    """Regression: a stale StatusResponse replayed by the network used
    to satisfy a *new* status request, reporting the previous state."""

    def _client(self):
        emulator = HardwareEmulator("128.252.153.2", 2000)
        transport = EchoStaleTransport(emulator, "128.252.153.2", 2000)
        return LiquidClient(transport), emulator

    def test_new_status_is_not_answered_by_an_old_one(self):
        client, emulator = self._client()
        assert client.status().state == LeonState.POLLING
        client.load_binary(0x4000_1000, bytes(range(16)), chunk=8)
        client.start(0x4000_1000)
        # The wire now replays the old POLLING status ahead of the fresh
        # answer; the request tag must reject it.
        assert client.status().state == LeonState.DONE
        assert client.duplicates_suppressed > 0

    def test_replayed_memory_data_cannot_alias_a_new_read(self):
        client, emulator = self._client()
        emulator.memory[0:4] = b"\x01\x02\x03\x04"
        base = emulator.memory_base
        assert client.read_memory(base, 4) == b"\x01\x02\x03\x04"
        emulator.memory[0:4] = b"\x0a\x0b\x0c\x0d"
        # Same address, new content: the replay of the first answer
        # passes the address predicate but not the tag check.
        assert client.read_memory(base, 4) == b"\x0a\x0b\x0c\x0d"
        assert client.duplicates_suppressed > 0

    def test_suppressed_responses_still_reach_the_console(self):
        client, _ = self._client()
        client.status()
        client.status()
        # 3 recorded: two answers plus the replay of the first (shown to
        # the operator, suppressed for request matching).
        assert len(client.listener.of_type(type(client.listener.records[0]))) \
            >= 3


class TestListenerFormat:
    """Regression: the console renderer grouped MemoryData into 4-byte
    words and dropped any trailing partial word."""

    def _memory_line(self, data, address=0x4000_0000):
        from repro.net.protocol import MemoryData

        listener = ResponseListener()
        listener.record(MemoryData(address=address, data=data))
        [line] = listener.console_lines()
        return line

    def test_trailing_partial_word_is_rendered(self):
        line = self._memory_line(b"\xaa\xbb\xcc\xdd\xee")
        assert "aabbccdd" in line
        assert "ee" in line.split("aabbccdd")[1]

    def test_short_read_is_not_hidden(self):
        line = self._memory_line(b"\x01\x02\x03")
        assert "010203" in line

    def test_exact_words_unchanged(self):
        line = self._memory_line(bytes(range(8)))
        assert "00010203 04050607" in line
        assert "..." not in line

    def test_long_reads_still_elide(self):
        line = self._memory_line(bytes(64))
        assert line.endswith("...")


class TestRetryPolicy:
    def test_rounds_back_off_exponentially(self):
        from repro.control import RetryPolicy

        policy = RetryPolicy(attempts=4, poll_rounds=4, backoff=2.0,
                             max_poll_rounds=12)
        assert [policy.rounds_for(n) for n in range(4)] == [4, 8, 12, 12]

    def test_validation(self):
        from repro.control import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(poll_rounds=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(poll_rounds=8, max_poll_rounds=4)

    def test_per_command_policy_override(self):
        from repro.control import RetryPolicy

        emulator = HardwareEmulator("128.252.153.2", 2000)
        transport = DirectTransport(emulator, "128.252.153.2", 2000)
        fast = RetryPolicy(attempts=1, poll_rounds=1, max_poll_rounds=1)
        client = LiquidClient(transport, policies={"status": fast})
        assert client.policy_for("status") is fast
        assert client.policy_for("read") is client.base_policy
        assert client.status().state == LeonState.POLLING

    def test_untagged_responses_accepted_until_tags_confirmed(self):
        """Seed-device compatibility: a device that never echoes tags
        keeps working; once tags are seen, untagged responses (except
        errors) are treated as stale."""
        from repro.net.protocol import StatusResponse

        emulator = HardwareEmulator("128.252.153.2", 2000)
        client = LiquidClient(DirectTransport(emulator, "128.252.153.2",
                                              2000))
        response = StatusResponse(LeonState.POLLING, 0)
        assert client._admit(response, None, {1})
        client._tags_confirmed = True
        assert not client._admit(response, None, {1})
        assert client.stale_suppressed == 1
        from repro.net.protocol import ErrorResponse

        assert client._admit(ErrorResponse(0x13, "crash"), None, {1})


class ChunkDroppingTransport(DirectTransport):
    """Direct transport whose wire eats the first transmission of chosen
    LOAD_PROGRAM sequence numbers (they still count as sent)."""

    def __init__(self, device, device_ip, device_port, drop_seqs=()):
        super().__init__(device, device_ip, device_port)
        self._drop = set(drop_seqs)

    def send(self, payload):
        from repro.net.protocol import Command

        frame = self._frame_for(payload)
        if payload and payload[0] == Command.LOAD_PROGRAM:
            seq = struct.unpack("!H", payload[1:3])[0]
            if seq in self._drop:
                self._drop.discard(seq)
                return
        self.device.inject_frame(frame)


class TestSelectiveRetransmission:
    """Regression: load_binary used to resend the *entire* payload set
    on every retry and to under-count nudge transmissions."""

    BASE = 0x4000_1000

    def _load(self, drop_seqs, blob=bytes(range(32)), chunk=4):
        emulator = HardwareEmulator("128.252.153.2", 2000)
        transport = ChunkDroppingTransport(emulator, "128.252.153.2", 2000,
                                           drop_seqs)
        client = LiquidClient(transport)
        transmissions = client.load_binary(self.BASE, blob, chunk)
        return transmissions, transport, emulator, blob

    def test_lossless_load_sends_each_chunk_exactly_once(self):
        transmissions, transport, emulator, blob = self._load(drop_seqs=())
        assert transmissions == 8
        assert transmissions == transport.sent_payloads
        offset = self.BASE - emulator.memory_base
        assert bytes(emulator.memory[offset:offset + len(blob)]) == blob

    def test_retry_resends_only_the_lost_chunks(self):
        transmissions, transport, emulator, blob = self._load(
            drop_seqs={3, 5})
        # 8 first-round sends + exactly the 2 lost chunks again.
        assert transmissions == 10
        offset = self.BASE - emulator.memory_base
        assert bytes(emulator.memory[offset:offset + len(blob)]) == blob

    def test_transmission_count_matches_the_wire(self):
        transmissions, transport, _, _ = self._load(drop_seqs={0, 6, 7})
        assert transmissions == transport.sent_payloads == 11

    def test_load_gives_up_when_nothing_arrives(self):
        class BlackHole(DirectTransport):
            def send(self, payload):
                self._frame_for(payload)  # swallowed

        emulator = HardwareEmulator("128.252.153.2", 2000)
        transport = BlackHole(emulator, "128.252.153.2", 2000)
        client = LiquidClient(transport, max_retries=2, poll_rounds=2)
        from repro.control import ControlTimeout

        with pytest.raises(ControlTimeout):
            client.load_binary(self.BASE, b"\x01\x02\x03\x04")


class TestTransportDropCounters:
    """Regression: _unwrap_responses silently swallowed bad frames;
    now they are counted and exposed alongside the payload counters."""

    def _transport(self, platform):
        return DirectTransport(platform, platform.config.device_ip,
                               platform.config.control_port)

    def test_corrupt_frame_counted(self, platform):
        transport = self._transport(platform)
        assert transport._unwrap_responses([b"\xde\xad\xbe\xef"]) == []
        assert transport.dropped_corrupt == 1
        assert transport.received_payloads == 0

    def test_misaddressed_frame_counted(self, platform):
        from repro.net.packets import build_udp_packet, parse_ip

        transport = self._transport(platform)
        stranger = build_udp_packet(
            transport.device_ip, parse_ip("10.0.0.1"),
            transport.device_port, 9999, b"not for us")
        assert transport._unwrap_responses([stranger]) == []
        assert transport.dropped_misaddressed == 1

    def test_stats_exposes_all_counters(self, platform):
        transport = self._transport(platform)
        stats = transport.stats()
        assert set(stats) == {"sent_payloads", "received_payloads",
                              "dropped_corrupt", "dropped_misaddressed"}

    def test_lossy_corruption_shows_up_in_drop_counter(self, platform):
        transport = LossyTransport(platform, platform.config.device_ip,
                                   platform.config.control_port,
                                   channel_config=ChannelConfig(corrupt=0.3),
                                   seed=123)
        client = LiquidClient(transport)
        result = client.run_image(make_image(9),
                                  result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 9
        # Frames corrupted on the device->client channel must be counted,
        # not silently discarded.
        if transport.to_client.corrupted:
            assert transport.dropped_corrupt > 0
        assert transport.dropped_corrupt <= transport.to_client.corrupted


class TestServlet:
    @pytest.fixture
    def servlet(self, client):
        return ControlServlet(client)

    def test_status_action(self, servlet):
        page = servlet.handle_request({"action": "status"})
        assert page.startswith("200")
        assert "POLLING" in page

    def test_load_start_read_flow(self, servlet):
        base, blob = make_image(64).flatten()
        page = servlet.handle_request({
            "action": "load", "address": hex(base), "hex": blob.hex()})
        assert page.startswith("200")
        assert servlet.handle_request({"action": "start"}).startswith("200")
        page = servlet.handle_request({
            "action": "read", "address": hex(DEFAULT_MAP.result_addr)})
        assert page.endswith("00000040")  # 64

    def test_unknown_action(self, servlet):
        assert servlet.handle_request({"action": "nuke"}).startswith("400")

    def test_bad_request_reported(self, servlet):
        page = servlet.handle_request({"action": "load", "hex": "zz"})
        assert page.startswith("400")

    def test_console_action(self, servlet):
        servlet.handle_request({"action": "status"})
        page = servlet.handle_request({"action": "console"})
        assert "LEON status" in page

    def test_restart_action(self, servlet):
        assert servlet.handle_request({"action": "restart"}).startswith("200")


class TestHardwareEmulator:
    """The paper's Java HW emulator: protocol-compatible with the
    platform, used to debug the control software without hardware."""

    @pytest.fixture
    def emulated_client(self):
        emulator = HardwareEmulator("128.252.153.2", 2000)
        transport = DirectTransport(emulator, "128.252.153.2", 2000)
        return LiquidClient(transport), emulator

    def test_status(self, emulated_client):
        client, _ = emulated_client
        assert client.status().state == LeonState.POLLING

    def test_load_and_read_back(self, emulated_client):
        client, _ = emulated_client
        client.load_binary(0x4000_1000, b"\xca\xfe\xba\xbe")
        assert client.read_memory(0x4000_1000, 4) == b"\xca\xfe\xba\xbe"

    def test_start_completes_instantly_with_fake_cycles(self, emulated_client):
        client, emulator = emulated_client
        client.load_binary(0x4000_1000, b"\x00" * 8)
        client.start()
        status = client.status()
        assert status.state == LeonState.DONE
        assert status.cycles == emulator.fake_cycles

    def test_emulator_matches_platform_protocol(self, emulated_client):
        """Every payload the client sends must be understood by both the
        emulator and the real platform — the property that made the
        paper's emulator useful."""
        client, _ = emulated_client
        client.restart()
        client.load_binary(0x4000_1000, bytes(range(100)))
        client.start()
        client.read_memory(0x4000_1000, 16)
        # No exceptions: all five command types handled.

    def test_out_of_range_read_is_error(self, emulated_client):
        client, _ = emulated_client
        with pytest.raises(DeviceError):
            client.read_memory(0x0000_1000, 4)


class TestListener:
    def test_records_and_filters(self):
        from repro.net.protocol import LoadAck, StatusResponse
        listener = ResponseListener()
        listener.record(StatusResponse(LeonState.DONE, 5))
        listener.record(LoadAck(1, 2))
        assert len(listener) == 2
        assert len(listener.of_type(LoadAck)) == 1

    def test_console_formats_known_types(self):
        from repro.net.protocol import (
            ErrorResponse,
            MemoryData,
            Started,
            StatusResponse,
        )
        listener = ResponseListener()
        listener.record(StatusResponse(LeonState.RUNNING, 10))
        listener.record(Started(0x4000_1000))
        listener.record(MemoryData(0x4000_0008, b"\x00\x00\x00\x2a"))
        listener.record(ErrorResponse(9, "boom"))
        lines = listener.console_lines()
        assert "RUNNING" in lines[0]
        assert "0x40001000" in lines[1]
        assert "0000002a" in lines[2]
        assert "boom" in lines[3]
