"""The Liquid Processor memory map.

Matches the paper's supervisory state machine: boot PROM at 0, FPX SRAM
at 0x4000_0000 (where programs load and where the leon_ctrl mailbox
lives), FPX SDRAM at 0x6000_0000 behind the AHB adapter, and the APB
register space at 0x8000_0000.  The linker's default
:class:`~repro.toolchain.linker.MemoryMapScript` and the control
software's packetizer both derive from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- region bases -----------------------------------------------------------

PROM_BASE = 0x0000_0000
PROM_SIZE = 0x0000_2000            # 8 KiB of boot code

SRAM_BASE = 0x4000_0000
SRAM_SIZE = 0x0020_0000            # 2 MiB FPX ZBT SRAM

SDRAM_BASE = 0x6000_0000
SDRAM_SIZE = 0x0400_0000           # 64 MiB FPX SDRAM

APB_BASE = 0x8000_0000
APB_SIZE = 0x0000_1000

# -- leon_ctrl mailbox protocol (paper §3.1) ---------------------------------
# The modified boot ROM polls MAILBOX_START for a non-zero program start
# address; the external circuitry writes it after a program is loaded.
# The word after it is where crt0 deposits main()'s return value so the
# user can fetch it with the Read Memory command.

MAILBOX_START = SRAM_BASE + 0x0    # 0x4000_0000: program start address
RESULT_ADDR = SRAM_BASE + 0x8      # 0x4000_0008: main() return value
MAILBOX_BYTES = 0x10               # the mailbox words, kept uncached
PROGRAM_BASE = SRAM_BASE + 0x1000  # default load address for user code
# Initial %sp.  SPARC frames keep a 64-byte register-window save area at
# [%sp .. %sp+63], so the top of stack leaves that much headroom below
# the end of SRAM (plus slack, 8-byte aligned).
STACK_TOP = SRAM_BASE + SRAM_SIZE - 0x80

# -- APB register offsets (relative to APB_BASE, LEON2-style) -----------------

MCFG_OFFSET = 0x00        # memory configuration registers (stubs)
TIMER_OFFSET = 0x40
UART_OFFSET = 0x70
IRQCTRL_OFFSET = 0x90
IOPORT_OFFSET = 0xA0      # LED / discrete output port
CYCLE_COUNTER_OFFSET = 0x100  # FPX cycle-counting state machine (paper §4)


@dataclass(frozen=True)
class MemoryMap:
    """Bundled map so alternative layouts remain expressible (the
    configuration space can move/resize SRAM and SDRAM)."""

    prom_base: int = PROM_BASE
    prom_size: int = PROM_SIZE
    sram_base: int = SRAM_BASE
    sram_size: int = SRAM_SIZE
    sdram_base: int = SDRAM_BASE
    sdram_size: int = SDRAM_SIZE
    apb_base: int = APB_BASE
    apb_size: int = APB_SIZE

    @property
    def mailbox_start(self) -> int:
        return self.sram_base

    @property
    def result_addr(self) -> int:
        return self.sram_base + 0x8

    @property
    def program_base(self) -> int:
        return self.sram_base + 0x1000

    @property
    def stack_top(self) -> int:
        return self.sram_base + self.sram_size - 0x80

    def cacheable(self, address: int) -> bool:
        """PROM/SRAM/SDRAM are cacheable; APB (and anything unmapped) is
        not.  The mailbox/result words are also non-cacheable so that the
        CPU observes writes made by the leon_ctrl circuitry and vice versa
        (the real hardware relies on the boot-loop cache flush for this;
        keeping the two mailbox words uncached makes the model robust to
        user programs that poll them without flushing)."""
        if self.sram_base <= address < self.sram_base + MAILBOX_BYTES:
            return False
        return (
            self.prom_base <= address < self.prom_base + self.prom_size
            or self.sram_base <= address < self.sram_base + self.sram_size
            or self.sdram_base <= address < self.sdram_base + self.sdram_size
        )

    def bounds(self) -> set[int]:
        """Every address at which :meth:`cacheable` or :meth:`region_of`
        can change its answer: each region's start and end, and the end
        of the uncached mailbox words."""
        return {self.prom_base, self.prom_base + self.prom_size,
                self.sram_base, self.sram_base + MAILBOX_BYTES,
                self.sram_base + self.sram_size,
                self.sdram_base, self.sdram_base + self.sdram_size,
                self.apb_base, self.apb_base + self.apb_size}

    def region_of(self, address: int) -> str:
        if self.prom_base <= address < self.prom_base + self.prom_size:
            return "prom"
        if self.sram_base <= address < self.sram_base + self.sram_size:
            return "sram"
        if self.sdram_base <= address < self.sdram_base + self.sdram_size:
            return "sdram"
        if self.apb_base <= address < self.apb_base + self.apb_size:
            return "apb"
        return "unmapped"


DEFAULT_MAP = MemoryMap()
