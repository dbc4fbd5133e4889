"""The Liquid core: one assembly of the processor system both machines run.

The Sim box of Figure 1 and the FPX node of Figures 2–3 are the same
Liquid processor system.  :class:`LiquidCore` builds it once, from one
:class:`~repro.core.config.ArchitectureConfig`: the clock, the modified
boot PROM, the SRAM, the APB (UART, LED port, cycle counter), the AHB,
the I/D caches and the LEON integer unit, with the config's custom
instructions installed.

:class:`~repro.core.sim.Simulator` is this core plus mailbox dispatch;
:class:`~repro.fpx.platform.FPXPlatform` is this core plus the board —
the gated SRAM (through :meth:`LiquidCore._sram_port`), the SDRAM behind
its adapter, the timer and IRQ controller, leon_ctrl and the network
side.  Both buses decode by address, so what a subclass attaches after
the core lands in the same maps as if it had been attached in between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.ahb import AhbBus
from repro.bus.apb import ApbBridge
from repro.cache import CacheController
from repro.cpu import IntegerUnit
from repro.mem.bootrom import BootRom, build_boot_rom
from repro.mem.memmap import (
    CYCLE_COUNTER_OFFSET,
    IOPORT_OFFSET,
    UART_OFFSET,
    MemoryMap,
)
from repro.mem.sram import SramBank
from repro.peripherals import Clock, CycleCounter, LedPort, Uart

if TYPE_CHECKING:
    from repro.core.config import ArchitectureConfig


class LiquidCore:
    """LEON, its caches, buses, boot PROM, SRAM and APB peripherals."""

    def __init__(self, arch: ArchitectureConfig):
        # Imported here: repro.core's package init imports
        # repro.fpx.platform, which subclasses this class, so a
        # module-level import would cycle when the platform loads first.
        from repro.core.rewriter import install_recipes

        self.memmap = memmap = MemoryMap()
        self.rom_info = build_boot_rom(memmap, arch.nwindows, modified=True)
        self.clock = Clock()
        self.uart = Uart()
        self.leds = LedPort(self.clock)
        self.cycle_counter = CycleCounter(self.clock)

        self.bus = AhbBus()
        self.prom = BootRom(memmap.prom_base, memmap.prom_size,
                            self.rom_info.image)
        self.bus.attach(self.prom, memmap.prom_base, memmap.prom_size,
                        "prom")
        self.sram = SramBank(memmap.sram_base, memmap.sram_size)
        self.bus.attach(self._sram_port(self.sram), memmap.sram_base,
                        memmap.sram_size, "sram")
        self.apb = apb = ApbBridge(memmap.apb_base)
        apb.attach(self.uart, UART_OFFSET, 0x10, "uart")
        apb.attach(self.leds, IOPORT_OFFSET, 0x10, "ioport")
        apb.attach(self.cycle_counter, CYCLE_COUNTER_OFFSET, 0x10,
                   "cycle_counter")
        self.bus.attach(apb, memmap.apb_base, memmap.apb_size, "apb")

        self.icache, self.dcache = (
            CacheController(geometry, self.bus, memmap.cacheable, name=name,
                            prefetch=prefetch)
            for name, geometry, prefetch in (
                ("icache", arch.icache, "none"),
                ("dcache", arch.dcache, arch.prefetch)))
        self.cpu = IntegerUnit(self.icache, self.dcache,
                               nwindows=arch.nwindows, timing=arch.timing(),
                               reset_pc=memmap.prom_base)
        install_recipes(self.cpu, arch)

    def _sram_port(self, sram: SramBank):
        """The AHB slave at the SRAM's addresses: the bank itself."""
        return sram
