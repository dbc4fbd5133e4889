"""Failure-injection tests: how the system degrades, not just how it works."""

import pytest

from repro.control import DeviceError
from repro.mem.memmap import DEFAULT_MAP
from repro.net import protocol
from repro.net.packets import build_udp_packet, parse_ip, parse_udp_packet
from repro.net.protocol import LeonState
from repro.toolchain import assemble, link
from repro.toolchain.driver import compile_c_program
from repro.toolchain.linker import MemoryMapScript

pytestmark = pytest.mark.chaos

CLIENT_IP = "10.0.0.9"
CLIENT_PORT = 55000


def command_frame(platform, payload):
    return build_udp_packet(parse_ip(CLIENT_IP),
                            parse_ip(platform.config.device_ip),
                            CLIENT_PORT, platform.config.control_port,
                            payload)


def asm_image(body: str):
    return link([assemble(f"""
    .global _start
_start:
{body}
""")], MemoryMapScript.default(DEFAULT_MAP.program_base))


class TestProgramFaults:
    """Programs that crash: §4.1's error-packet debug path."""

    @pytest.mark.parametrize("body,name", [
        ("    unimp 0\n", "illegal instruction"),
        ("    set 0x40000001, %o0\n    ld [%o0 + 1], %o1\n    ta 0\n    nop",
         "misaligned load"),
        ("    set 0xF0000000, %o0\n    ld [%o0], %o1\n    ta 0\n    nop",
         "unmapped load"),
        ("    ta 0x44\n    nop", "unhandled software trap"),
    ])
    def test_faulting_programs_reach_error_state(self, platform, client,
                                                 body, name):
        image = asm_image(body)
        client.load_image(image)
        # The fault may fire while the client is still polling for the
        # START acknowledgement — the unsolicited error packet then
        # surfaces as DeviceError, which is equally a pass.
        try:
            client.start()
            platform.run_program(max_instructions=100_000)
        except DeviceError:
            pass
        assert platform.leon_ctrl.state == LeonState.ERROR, name
        status = client._request(protocol.encode_status_request(),
                                 protocol.StatusResponse, allow_error=True)
        assert status.state == LeonState.ERROR

    def test_error_state_recoverable_via_restart(self, platform, client):
        client.load_image(asm_image("    unimp 0\n"))
        try:
            client.start()
            platform.run_program(max_instructions=100_000)
        except DeviceError:
            pass
        assert platform.leon_ctrl.state == LeonState.ERROR
        client.restart()
        platform.boot()
        # A good program runs fine afterwards.
        good = compile_c_program("int main(void) { return 3; }")
        result = client.run_image(good, result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 3

    def test_runaway_program_hits_watchdog(self, platform, client):
        client.load_image(asm_image("""
spin:
    ba spin
    nop
"""))
        client.start()
        with pytest.raises(TimeoutError):
            platform.run_program(max_instructions=20_000)
        # The platform is still responsive to control traffic.
        assert client.status().state == LeonState.RUNNING


class TestProtocolFaults:
    def test_truncated_command_gets_error_response(self, platform):
        load = protocol.encode_load_chunk(0, 1, DEFAULT_MAP.program_base,
                                          b"\x00" * 16)
        platform.inject_frame(command_frame(platform, load[:6]))
        [frame] = platform.take_tx_frames()
        _, udp = parse_udp_packet(frame)
        response = protocol.decode_response(udp.payload)
        assert isinstance(response, protocol.ErrorResponse)

    def test_read_of_unmapped_memory_is_device_error(self, client):
        with pytest.raises(DeviceError):
            client.read_memory(0xEE00_0000, 4)

    def test_new_load_supersedes_half_finished_one(self, platform, client):
        # Send half of a 2-chunk program...
        first = protocol.encode_load_chunk(0, 2, DEFAULT_MAP.program_base,
                                           b"\xAA" * 16)
        platform.inject_frame(command_frame(platform, first))
        platform.take_tx_frames()
        # ...then a complete single-chunk program.
        image = compile_c_program("int main(void) { return 9; }")
        result = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
        assert result.result_word == 9

    def test_start_during_load_is_rejected_until_complete(self, platform):
        chunk = protocol.encode_load_chunk(0, 2, DEFAULT_MAP.program_base,
                                           b"\x00" * 16)
        platform.inject_frame(command_frame(platform, chunk))
        platform.take_tx_frames()
        platform.inject_frame(command_frame(platform,
                                            protocol.encode_start()))
        [frame] = platform.take_tx_frames()
        _, udp = parse_udp_packet(frame)
        response = protocol.decode_response(udp.payload)
        assert isinstance(response, protocol.ErrorResponse)

    def test_load_while_running_applies_after_completion(self, platform,
                                                         client):
        """Commands arriving while a program runs don't corrupt it: the
        running program finishes; the new program is used on next START."""
        slow = compile_c_program("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 2000; i++) total += i;
    return total;
}""")
        client.load_image(slow)
        client.start()
        platform.step(100)  # partially executed
        # Load a different program mid-run (goes to SRAM immediately, but
        # the running program's code was already cached/fetched from its
        # own addresses — here we use a different base to avoid overlap).
        fast = link([assemble("""
    .global _start
_start:
    mov 1, %o0
    set 0x40000008, %g1
    st %o0, [%g1]
    ta 0
    nop
""")], MemoryMapScript.default(DEFAULT_MAP.program_base + 0x4000))
        client.load_image(fast)
        platform.run_program()
        assert platform.leon_ctrl.state == LeonState.DONE
        started = client.start()
        assert started.entry == DEFAULT_MAP.program_base + 0x4000
        platform.run_program()
        assert client.read_word(DEFAULT_MAP.result_addr) == 1


class TestMemorySystemFaults:
    def test_line_fill_at_sram_sdram_boundary(self, platform, client):
        """Reads near the end of SRAM must not burst past the device."""
        end = DEFAULT_MAP.sram_base + DEFAULT_MAP.sram_size
        image = asm_image(f"""
    set {end - 32}, %o0
    ld [%o0], %o1              ! last line of SRAM
    set {end - 4}, %o0
    ld [%o0], %o2              ! very last word
    ta 0
    nop
""")
        client.load_image(image)
        client.start()
        assert platform.run_program(100_000) == LeonState.DONE

    def test_sdram_write_read_cross_check(self, platform, client):
        """Sub-word SDRAM writes via the RMW adapter preserve neighbours."""
        base = DEFAULT_MAP.sdram_base
        image = asm_image(f"""
    set {base}, %o0
    set 0x11223344, %o1
    st %o1, [%o0]
    set 0x55667788, %o2
    st %o2, [%o0 + 4]
    mov 0xAA, %o3
    stb %o3, [%o0 + 5]         ! RMW of the second word
    ld [%o0], %o4
    ld [%o0 + 4], %o5
    set 0x40000008, %g1
    st %o4, [%g1]
    st %o5, [%g1 + 4]
    ta 0
    nop
""")
        client.load_image(image)
        client.start()
        platform.run_program(100_000)
        assert client.read_word(0x4000_0008) == 0x11223344
        assert client.read_word(0x4000_000C) == 0x55AA7788
