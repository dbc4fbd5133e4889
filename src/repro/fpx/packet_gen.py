"""Packet (Message) Generator — the modified-MP3 module of Figure 3.

"The Packet Generator is used to send IP packets in response to receiving
a subset of the command codes (e.g. Read Memory, LEON status)."  It owns
the outbound side of the wrappers and remembers where to send unsolicited
packets (program-done and error notifications go back to whoever last
commanded the device, like the hardware version replying to the control
host).
"""

from __future__ import annotations

from typing import Callable

from repro.fpx.wrappers import LayeredProtocolWrappers
from repro.net import protocol
from repro.net.protocol import LeonState


class PacketGenerator:
    def __init__(self, wrappers: LayeredProtocolWrappers, src_port: int,
                 transmit: Callable[[bytes], None]):
        self.wrappers = wrappers
        self.src_port = src_port
        self.transmit = transmit
        self.last_requester: tuple[int, int] | None = None  # (ip, port)
        self.sent = 0

    def remember_requester(self, ip: int, port: int) -> None:
        self.last_requester = (ip, port)

    def send_to(self, payload: bytes, dst_ip: int, dst_port: int) -> None:
        frame = self.wrappers.wrap(payload, dst_ip, dst_port, self.src_port)
        self.sent += 1
        self.transmit(frame)

    def send_to_requester(self, payload: bytes) -> bool:
        """Send to the last commanding host; False if none is known."""
        if self.last_requester is None:
            return False
        ip, port = self.last_requester
        self.send_to(payload, ip, port)
        return True

    def send_done(self, cycles: int) -> None:
        """leon_ctrl's program-done notification."""
        self.send_to_requester(
            protocol.encode_status_response(LeonState.DONE, cycles))

    def send_error(self, code: int) -> None:
        """leon_ctrl's error-state notification."""
        self.send_to_requester(
            protocol.encode_error(code, "leon_ctrl error state"))
