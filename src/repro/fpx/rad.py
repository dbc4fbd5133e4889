"""Reconfigurable Application Device (RAD).

The RAD is the Virtex XCV2000E that hosts user modules; it is
reprogrammed through the SelectMap interface, over the network, without
disturbing the NID (paper refs [2], [6]).  In the model, "programming"
the RAD swaps in a new :class:`~repro.core.synthesis.Bitfile`'s worth of
configuration (the module object itself is built by the reconfiguration
server) and charges the SelectMap transfer time on the model clock.
"""

from __future__ import annotations

from dataclasses import dataclass

#: SelectMap bandwidth: the XCV2000E bitstream is ~1.2 MB; at 50 MHz x 8 bit
#: programming takes ~20 ms.  We charge time proportional to bitfile size.
SELECTMAP_BYTES_PER_SECOND = 50_000_000

XCV2000E_BITSTREAM_BYTES = 1_261_980


@dataclass
class ProgrammingRecord:
    name: str
    size_bytes: int
    seconds: float


class Rad:
    """Holds the identity of the currently-programmed bitfile."""

    def __init__(self):
        self.bitfile_name: str | None = None
        self.history: list[ProgrammingRecord] = []
        self.total_programming_seconds = 0.0

    def program(self, bitfile_name: str,
                bitfile_bytes: int = XCV2000E_BITSTREAM_BYTES) -> float:
        """Load *bitfile_name* (full reconfiguration); returns seconds
        spent."""
        seconds = bitfile_bytes / SELECTMAP_BYTES_PER_SECOND
        self.bitfile_name = bitfile_name
        self.history.append(ProgrammingRecord(bitfile_name, bitfile_bytes,
                                              seconds))
        self.total_programming_seconds += seconds
        return seconds

    @property
    def reprogram_count(self) -> int:
        return len(self.history)
