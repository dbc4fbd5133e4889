"""FPXPlatform: the assembled reconfigurable node (paper Figures 2 and 3).

One object wires together everything on the board:

* the Liquid processor system on the RAD — the
  :class:`~repro.machine.LiquidCore` the Sim box also runs (LEON IU,
  I/D caches, AHB, APB peripherals, boot PROM, SRAM), with the SRAM
  behind leon_ctrl's gate, plus the SDRAM behind the §3.2 adapter and
  the timer and IRQ controller;
* leon_ctrl + packet generator + control packet processor;
* the layered protocol wrappers and the NID's four-port switch.

Frames enter through :meth:`inject_frame` (as if arriving on a line
card), responses appear on :attr:`tx_frames`.  The processor advances
only when :meth:`step`/:meth:`run_until` is called — the platform is
fully deterministic and single-threaded, so tests and benchmarks control
time explicitly.

Every callback the board's parts hold (leon_ctrl's cache flush and
notifications, the CPP's restart and trace source, the NID's RAD port,
the packet generator's transmit) takes the parts it uses, never the
platform, so a dropped platform holds no reference cycle and is freed
at once, with its SRAM and SDRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ArchitectureConfig
from repro.cpu.traps import ErrorMode
from repro.fpx.cpp import ControlPacketProcessor
from repro.fpx.leon_ctrl import GatedSram, LeonController
from repro.fpx.nid import FourPortSwitch
from repro.fpx.packet_gen import PacketGenerator
from repro.fpx.rad import Rad
from repro.fpx.wrappers import LayeredProtocolWrappers
from repro.machine import LiquidCore
from repro.mem.adapter import AhbSdramAdapter
from repro.mem.memmap import IRQCTRL_OFFSET, TIMER_OFFSET
from repro.mem.sdram import FpxSdramController
from repro.mem.sram import SramBank
from repro.net.protocol import LeonState
from repro.obs.collect import cache_record, simulator_snapshot
from repro.peripherals import IrqController, Timer

DEFAULT_DEVICE_IP = "128.252.153.2"  # a wustl.edu address, as in the lab
DEFAULT_CONTROL_PORT = 2000


@dataclass(frozen=True)
class PlatformConfig:
    """One instantiation of the Liquid system: the architecture on the
    RAD plus what only the board has.

    The paper's evaluation (Figure 8) holds ``arch.icache`` at 1 KB /
    32 B lines and sweeps ``arch.dcache.size`` from 1 KB to 16 KB.
    """

    arch: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    # Background network DMA on the SDRAM's second arbiter port: one
    # 8-beat burst every N retired instructions (0 = quiet network).
    # Models "simultaneous use by both the LEON processor and the
    # network control components" (paper 2.4).
    net_dma_period: int = 0
    # Attach a trace recorder to the D-cache so the instrumented trace
    # can be streamed off the board with READ_TRACE (Figure 1).
    capture_trace: bool = False
    device_ip: str = DEFAULT_DEVICE_IP
    control_port: int = DEFAULT_CONTROL_PORT


class FPXPlatform(LiquidCore):
    """The reconfigurable node, ready to receive control packets: the
    Liquid core plus the board."""

    def __init__(self, config: PlatformConfig | None = None):
        self.config = config or PlatformConfig()
        cfg = self.config
        super().__init__(cfg.arch)
        memmap = self.memmap

        # ---- SDRAM behind the §3.2 adapter ---------------------------------
        self.sdram = FpxSdramController(memmap.sdram_base, memmap.sdram_size)
        # FPX SDRAM arbitration supports three modules: LEON plus the
        # network components (paper §2.4).
        self.sdram_cpu_port = self.sdram.connect("leon")
        self.sdram_net_port = self.sdram.connect("network")
        self.sdram_adapter = AhbSdramAdapter(self.sdram_cpu_port,
                                             memmap.sdram_base,
                                             memmap.sdram_size,
                                             cfg.arch.adapter())
        self.bus.attach(self.sdram_adapter, memmap.sdram_base,
                        memmap.sdram_size, "sdram")

        # ---- timer + interrupt controller ------------------------------------
        self.timer = Timer(self.clock)
        self.irqctrl = IrqController()
        self.apb.attach(self.timer, TIMER_OFFSET, 0x10, "timer")
        self.apb.attach(self.irqctrl, IRQCTRL_OFFSET, 0x10, "irqctrl")
        self.cpu.interrupt_source = self.irqctrl.pending_level

        # ---- leon_ctrl ---------------------------------------------------------
        cpu, icache, dcache = self.cpu, self.icache, self.dcache

        def flush_caches() -> None:
            icache.flush()
            dcache.flush()

        self.leon_ctrl = leon_ctrl = LeonController(
            gate=self.gate,
            cycle_counter=self.cycle_counter,
            poll_address=self.rom_info.poll_address,
            error_address=self.rom_info.error_address,
            mailbox_address=memmap.mailbox_start,
            flush_caches=flush_caches,
            # Loads/reads addressed to SDRAM go through the controller's
            # host (network) port — how an OS-sized payload would arrive.
            extra_memories=[self.sdram],
        )
        cpu.on_fetch = leon_ctrl.snoop_fetch

        # ---- network side ---------------------------------------------------------
        self.tx_frames: list[bytes] = []
        self.wrappers = wrappers = LayeredProtocolWrappers.for_address(
            cfg.device_ip)
        self.packet_gen = PacketGenerator(wrappers, cfg.control_port,
                                          self.tx_frames.append)
        leon_ctrl.on_done = self.packet_gen.send_done
        leon_ctrl.on_error = self.packet_gen.send_error
        self.trace_recorder = recorder = None
        if cfg.capture_trace:
            from repro.analysis.trace import TraceRecorder

            self.trace_recorder = recorder = TraceRecorder().attach(dcache)

        def restart() -> None:
            """The RESTART command: full processor + controller reset."""
            cpu.reset()
            leon_ctrl.reset()
            flush_caches()

        self.restart = restart
        self.cpp = cpp = ControlPacketProcessor(
            leon_ctrl, self.packet_gen, cfg.control_port,
            restart_handler=restart,
            trace_source=None if recorder is None
            else lambda: recorder.trace().to_bytes())

        def rad_port(ingress_port: str, frame: bytes) -> None:
            unwrapped = wrappers.unwrap(frame)
            if unwrapped is not None:
                cpp.handle(unwrapped)

        self.nid = FourPortSwitch()
        self.nid.attach("rad", rad_port)
        self.rad = Rad()
        self.rad.program("liquid_baseline.bit")

        self.instructions_retired = 0
        self._net_dma_countdown = cfg.net_dma_period
        self._net_dma_cursor = memmap.sdram_base

    def _sram_port(self, sram: SramBank) -> GatedSram:
        """The Figure 6 mux: leon_ctrl cuts LEON off the SRAM while the
        host loads a program."""
        self.gate = GatedSram(sram)
        return self.gate

    # ------------------------------------------------------------------
    # Network path
    # ------------------------------------------------------------------

    def inject_frame(self, frame: bytes, port: str = "linecard0") -> None:
        """A frame arrives from the network (via the NID)."""
        self.nid.ingress(port, frame)

    def take_tx_frames(self) -> list[bytes]:
        frames = self.tx_frames[:]
        self.tx_frames.clear()
        return frames

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def step(self, instructions: int = 1) -> int:
        """Advance the processor; returns cycles consumed.  A processor
        error (trap with ET=0) is converted into the leon_ctrl error
        state, mirroring the hardware's error-packet debug path."""
        total = 0
        for _ in range(instructions):
            if self.cpu.halted:
                break
            try:
                cycles = self.cpu.step()
            except ErrorMode as exc:
                self.leon_ctrl.enter_error(exc.tt)
                break
            self.clock.advance(cycles)
            total += cycles
            if self.config.net_dma_period:
                self._net_dma_countdown -= 1
                if self._net_dma_countdown <= 0:
                    self._net_dma_countdown = self.config.net_dma_period
                    self._network_dma_burst()
        self.instructions_retired = self.cpu.instret
        return total

    def _network_dma_burst(self) -> None:
        """One 8-beat SDRAM transfer on the network port.  Its own cycles
        overlap with packet processing; what LEON feels is the arbiter:
        the next CPU access pays the port-switch grant and usually a row
        miss, exactly the FPX controller's sharing cost."""
        memmap = self.memmap
        self.sdram_net_port.read_burst(self._net_dma_cursor, 8)
        self._net_dma_cursor += 64
        if self._net_dma_cursor >= memmap.sdram_base + (1 << 16):
            self._net_dma_cursor = memmap.sdram_base

    def run_until(self, states: set[LeonState],
                  max_instructions: int = 50_000_000) -> LeonState:
        """Step until leon_ctrl reaches one of *states*."""
        for _ in range(max_instructions):
            if self.leon_ctrl.state in states:
                return self.leon_ctrl.state
            if self.cpu.halted:
                return self.leon_ctrl.state
            self.step()
        raise TimeoutError(
            f"leon_ctrl did not reach {states} within {max_instructions} "
            f"instructions (state={self.leon_ctrl.state!r})")

    def boot(self, max_instructions: int = 100_000) -> None:
        """Run the boot ROM until the processor parks in the polling loop."""
        self.run_until({LeonState.POLLING}, max_instructions)

    def run_program(self, max_instructions: int = 50_000_000) -> LeonState:
        """After a START command, run to completion (DONE or ERROR)."""
        return self.run_until({LeonState.DONE, LeonState.ERROR},
                              max_instructions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """The status command's answer: totals since the board was
        configured, not one program's window."""
        arch = self.config.arch
        counts = simulator_snapshot(self)
        return {
            "cycles": self.clock.cycles,
            "instructions": self.cpu.instret,
            "state": self.leon_ctrl.state.name,
            "icache": cache_record(counts, "icache", arch.icache),
            "dcache": cache_record(counts, "dcache", arch.dcache,
                                   arch.prefetch),
            "sdram": self.sdram.stats(),
            "adapter": self.sdram_adapter.stats(),
            "wrappers": vars(self.wrappers.stats),
            "uart_tx": self.uart.transmitted().decode(errors="replace"),
        }
