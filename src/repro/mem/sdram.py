"""FPX SDRAM controller model (Dharmapurikar & Lockwood, WUCS-01-26).

The paper replaces LEON's bundled memory controller with the FPX SDRAM
controller because it is 64-bit wide, supports sequential read/write
bursts, and offers an *arbitrated* interface with up to three request
modules (so the LEON processor and the network components share the
SDRAM).  This model reproduces those properties at transaction level:

* data path is 64 bits — all requests are in 64-bit beats;
* every request pays a handshake + RAS/CAS latency, then one cycle per
  beat (plus a row-miss penalty when the burst opens a new row);
* a round-robin arbiter over up to three ports adds grant latency when
  another port used the controller in the immediately preceding window.

The 32-bit AHB world talks to this through
:class:`repro.mem.adapter.AhbSdramAdapter` — the bridge whose design
trade-offs §3.2 of the paper describes and which
``benchmarks/bench_sdram_adapter.py`` ablates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.interface import BusError
from repro.utils import u64

MAX_PORTS = 3
MAX_BURST_BEATS = 64  # the controller supports bursts "up to <n> 64-bit words"


@dataclass(frozen=True)
class SdramTiming:
    """Cycle costs of the FPX SDRAM controller's handshake protocol."""

    handshake_cycles: int = 2   # request/grant exchange with the controller
    cas_latency: int = 3        # column access before the first beat
    cycles_per_beat: int = 1    # 64 bits per cycle once streaming
    row_miss_penalty: int = 4   # precharge + activate on a new row
    row_size: int = 2048        # bytes per open row (per bank model)
    arbitration_cycles: int = 1  # grant latency when switching ports


class SdramPort:
    """One of the (up to three) request modules on the arbiter."""

    def __init__(self, controller: "FpxSdramController", port_id: int,
                 name: str):
        self.controller = controller
        self.port_id = port_id
        self.name = name
        self.requests = 0

    def read_burst(self, address: int, beats: int) -> tuple[list[int], int]:
        """Sequential read of *beats* 64-bit words; returns (values, cycles)."""
        self.requests += 1
        return self.controller._read_burst(self.port_id, address, beats)

    def write_burst(self, address: int, values: list[int]) -> int:
        self.requests += 1
        return self.controller._write_burst(self.port_id, address, values)


class FpxSdramController:
    """64-bit, 3-port arbitrated SDRAM controller."""

    def __init__(self, base: int, size: int,
                 timing: SdramTiming | None = None):
        if size % 8:
            raise ValueError("SDRAM size must be a multiple of 8 bytes")
        self.base = base
        self.size = size
        self.timing = timing or SdramTiming()
        self.data = bytearray(size)
        # Names only: a port holds its controller, so the controller
        # holding its ports would be a reference cycle.
        self._port_names: list[str] = []
        self._last_port: int | None = None
        self._open_row: int | None = None
        self.total_handshakes = 0
        self.total_beats = 0
        self.row_misses = 0
        self.arbitration_switches = 0

    # -- topology -----------------------------------------------------------

    def connect(self, name: str) -> SdramPort:
        """Register a request module; the FPX controller supports three."""
        if len(self._port_names) >= MAX_PORTS:
            raise ValueError("FPX SDRAM controller supports at most "
                             f"{MAX_PORTS} request modules")
        self._port_names.append(name)
        return SdramPort(self, len(self._port_names) - 1, name)

    # -- internals -----------------------------------------------------------

    def _offset(self, address: int, length: int) -> int:
        if address % 8:
            raise BusError(address, "SDRAM requests must be 64-bit aligned")
        offset = address - self.base
        if offset < 0 or offset + length > self.size:
            raise BusError(address, "outside SDRAM")
        return offset

    def _access_cost(self, port_id: int, address: int, beats: int) -> int:
        timing = self.timing
        cycles = timing.handshake_cycles + timing.cas_latency \
            + beats * timing.cycles_per_beat
        self.total_handshakes += 1
        self.total_beats += beats
        if self._last_port is not None and self._last_port != port_id:
            cycles += timing.arbitration_cycles
            self.arbitration_switches += 1
        self._last_port = port_id
        row = (address - self.base) // timing.row_size
        if row != self._open_row:
            cycles += timing.row_miss_penalty
            self.row_misses += 1
            self._open_row = row
        return cycles

    def _read_burst(self, port_id: int, address: int,
                    beats: int) -> tuple[list[int], int]:
        if not 1 <= beats <= MAX_BURST_BEATS:
            raise ValueError(f"burst of {beats} beats unsupported")
        offset = self._offset(address, beats * 8)
        cycles = self._access_cost(port_id, address, beats)
        values = [
            int.from_bytes(self.data[offset + 8 * i:offset + 8 * i + 8], "big")
            for i in range(beats)
        ]
        return values, cycles

    def _write_burst(self, port_id: int, address: int,
                     values: list[int]) -> int:
        beats = len(values)
        if not 1 <= beats <= MAX_BURST_BEATS:
            raise ValueError(f"burst of {beats} beats unsupported")
        offset = self._offset(address, beats * 8)
        cycles = self._access_cost(port_id, address, beats)
        for i, value in enumerate(values):
            self.data[offset + 8 * i:offset + 8 * i + 8] = \
                u64(value).to_bytes(8, "big")
        return cycles

    # -- host-side helpers (tests, DMA models) ---------------------------------

    def host_write(self, address: int, blob: bytes) -> None:
        offset = address - self.base
        if offset < 0 or offset + len(blob) > self.size:
            raise BusError(address, "outside SDRAM")
        self.data[offset:offset + len(blob)] = blob

    def host_read(self, address: int, length: int) -> bytes:
        offset = address - self.base
        if offset < 0 or offset + length > self.size:
            raise BusError(address, "outside SDRAM")
        return bytes(self.data[offset:offset + length])

    def stats(self) -> dict:
        return {
            "handshakes": self.total_handshakes,
            "beats": self.total_beats,
            "row_misses": self.row_misses,
            "arbitration_switches": self.arbitration_switches,
            "ports": list(self._port_names),
        }
