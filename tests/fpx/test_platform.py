"""FPXPlatform end-to-end tests driven by raw control frames."""

import pytest

from repro.cache import CacheGeometry
from repro.core import ArchitectureConfig
from repro.fpx import FPXPlatform, PlatformConfig
from repro.net import protocol
from repro.net.packets import build_udp_packet, parse_ip, parse_udp_packet
from repro.net.protocol import LeonState
from repro.toolchain import assemble, link
from repro.toolchain.linker import MemoryMapScript

CLIENT_IP = "10.1.2.3"
CLIENT_PORT = 45000


def command_frame(platform, payload: bytes) -> bytes:
    return build_udp_packet(parse_ip(CLIENT_IP),
                            parse_ip(platform.config.device_ip),
                            CLIENT_PORT, platform.config.control_port,
                            payload)


def responses(platform) -> list:
    out = []
    for frame in platform.take_tx_frames():
        _, udp = parse_udp_packet(frame)
        out.append(protocol.decode_response(udp.payload))
    return out


def simple_image():
    return link([assemble("""
    .global _start
_start:
    mov 33, %o0
    set 0x40000008, %g1
    st %o0, [%g1]
    ta 0
    nop
""")], MemoryMapScript.default(0x4000_1000))


class TestBootAndStatus:
    def test_boot_reaches_polling(self, platform):
        assert platform.leon_ctrl.state == LeonState.POLLING

    def test_status_command_round_trip(self, platform):
        platform.inject_frame(
            command_frame(platform, protocol.encode_status_request()))
        [response] = responses(platform)
        assert response.state == LeonState.POLLING

    def test_responses_addressed_to_requester(self, platform):
        platform.inject_frame(
            command_frame(platform, protocol.encode_status_request()))
        [frame] = platform.take_tx_frames()
        ip, udp = parse_udp_packet(frame)
        assert ip.dst_ip == parse_ip(CLIENT_IP)
        assert udp.dst_port == CLIENT_PORT
        assert udp.src_port == platform.config.control_port

    def test_frames_for_other_ips_ignored(self, platform):
        frame = build_udp_packet(parse_ip(CLIENT_IP), parse_ip("9.9.9.9"),
                                 CLIENT_PORT, platform.config.control_port,
                                 protocol.encode_status_request())
        platform.inject_frame(frame)
        assert platform.take_tx_frames() == []

    def test_malformed_command_answered_with_error(self, platform):
        platform.inject_frame(command_frame(platform, b"\xff\x00garbage"))
        [response] = responses(platform)
        assert isinstance(response, protocol.ErrorResponse)


class TestLoadExecuteRead:
    def test_full_flow_via_raw_frames(self, platform):
        image = simple_image()
        base, blob = image.flatten()
        for payload in protocol.packetize_program(base, blob, chunk=64):
            platform.inject_frame(command_frame(platform, payload))
        acks = responses(platform)
        assert all(isinstance(a, protocol.LoadAck) for a in acks)
        assert acks[-1].received == acks[-1].total

        platform.inject_frame(
            command_frame(platform, protocol.encode_start()))
        [started] = responses(platform)
        assert isinstance(started, protocol.Started)
        assert started.entry == base

        state = platform.run_program()
        assert state == LeonState.DONE
        # Completion emits an unsolicited DONE status packet.
        done_msgs = [r for r in responses(platform)
                     if isinstance(r, protocol.StatusResponse)]
        assert done_msgs and done_msgs[0].state == LeonState.DONE
        assert done_msgs[0].cycles > 0

        platform.inject_frame(command_frame(
            platform, protocol.encode_read_memory(0x4000_0008, 4)))
        [data] = responses(platform)
        assert isinstance(data, protocol.MemoryData)
        assert int.from_bytes(data.data, "big") == 33

    def test_restart_command(self, platform):
        platform.inject_frame(
            command_frame(platform, protocol.encode_restart()))
        [restarted] = responses(platform)
        assert isinstance(restarted, protocol.Restarted)
        assert platform.leon_ctrl.state == LeonState.RESET
        platform.boot()
        assert platform.leon_ctrl.state == LeonState.POLLING

    def test_program_error_emits_error_packet(self, platform):
        # An illegal instruction inside the program -> trap table ->
        # error_state -> leon_ctrl emits an error packet.
        image = link([assemble("""
    .global _start
_start:
    unimp 0
""")], MemoryMapScript.default(0x4000_1000))
        base, blob = image.flatten()
        for payload in protocol.packetize_program(base, blob):
            platform.inject_frame(command_frame(platform, payload))
        platform.inject_frame(command_frame(platform, protocol.encode_start()))
        responses(platform)  # drain acks/started
        state = platform.run_program(max_instructions=100_000)
        assert state == LeonState.ERROR
        errors = [r for r in responses(platform)
                  if isinstance(r, protocol.ErrorResponse)]
        assert errors


class TestConfigurability:
    def test_cache_geometry_applies(self):
        config = PlatformConfig(arch=ArchitectureConfig(
            dcache=CacheGeometry(size=16384, line_size=32)))
        platform = FPXPlatform(config)
        assert platform.dcache.geometry.size == 16384

    def test_statistics_shape(self, platform):
        stats = platform.statistics()
        for key in ("cycles", "instructions", "state", "icache", "dcache",
                    "sdram", "adapter", "wrappers"):
            assert key in stats

    def test_sdram_reachable_from_program(self, platform):
        image = link([assemble("""
    .global _start
_start:
    set 0x60000000, %g1
    set 0xfeedface, %o0
    st %o0, [%g1]
    ld [%g1], %o1
    set 0x40000008, %g2
    st %o1, [%g2]
    ta 0
    nop
""")], MemoryMapScript.default(0x4000_1000))
        base, blob = image.flatten()
        for payload in protocol.packetize_program(base, blob):
            platform.inject_frame(command_frame(platform, payload))
        platform.inject_frame(command_frame(platform, protocol.encode_start()))
        platform.run_program()
        assert platform.sram.host_read_word(0x4000_0008) == 0xFEEDFACE
        assert platform.sdram.total_handshakes > 0

    def test_rad_records_programming(self, platform):
        assert platform.rad.reprogram_count == 1
        assert platform.rad.bitfile_name == "liquid_baseline.bit"
