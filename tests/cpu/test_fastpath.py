"""Unit tests for the functional fast path: FastMemory semantics and the
FunctionalUnit's architectural equivalence to the IntegerUnit on small,
pinned programs (the randomized version of the same claim lives in
``tests/difftest``)."""

from __future__ import annotations

import pytest

from repro.core.sim import Simulator
from repro.cpu import IntegerUnit
from repro.cpu.fastpath import FastMemory, FunctionalUnit
from repro.mem.interface import BusError, FlatMemory
from tests.conftest import RAM_BASE, RAM_SIZE, STACK_TOP, build


class _RecordingPort:
    """MemoryPort stub that logs accesses and answers with a constant."""

    def __init__(self, value: int = 0xA5A5A5A5):
        self.value = value
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int, int]] = []

    def read(self, address, size):
        self.reads.append((address, size))
        return self.value & ((1 << (8 * size)) - 1), 3  # waits discarded

    def write(self, address, size, value):
        self.writes.append((address, size, value))
        return 0


class TestFastMemory:
    def _mem(self):
        mem = FastMemory()
        self.ram = bytearray(0x100)
        self.rom = bytearray(b"\xde\xad\xbe\xef" * 8)
        self.port = _RecordingPort()
        mem.add_region(0x4000_0000, self.ram, name="ram")
        mem.add_region(0x0, self.rom, writable=False, name="rom")
        mem.add_mmio(0x8000_0000, 0x100, self.port, name="apb")
        return mem

    def test_ram_read_write_big_endian(self):
        mem = self._mem()
        mem.write(0x4000_0010, 4, 0x11223344)
        assert self.ram[0x10:0x14] == b"\x11\x22\x33\x44"
        assert mem.read(0x4000_0012, 2) == 0x3344

    def test_rom_is_readable_but_not_writable(self):
        mem = self._mem()
        assert mem.read(0x0, 4) == 0xDEADBEEF
        with pytest.raises(BusError):
            mem.write(0x0, 4, 1)

    def test_zero_copy_aliasing(self):
        """Writes through FastMemory are visible in the shared buffer
        and vice versa — no coherence step between the engines."""
        mem = self._mem()
        self.ram[0x20:0x24] = b"\x01\x02\x03\x04"
        assert mem.read(0x4000_0020, 4) == 0x01020304

    def test_mmio_routing_discards_waits(self):
        mem = self._mem()
        assert mem.read(0x8000_0070, 4) == 0xA5A5A5A5
        mem.write(0x8000_0070, 1, 0x42)
        assert self.port.reads == [(0x8000_0070, 4)]
        assert self.port.writes == [(0x8000_0070, 1, 0x42)]

    def test_unmapped_raises_bus_error(self):
        mem = self._mem()
        with pytest.raises(BusError):
            mem.read(0x9000_0000, 4)
        with pytest.raises(BusError):
            mem.write(0x9000_0000, 4, 0)

    def test_read_code_flags_ram_vs_mmio(self):
        mem = self._mem()
        assert mem.read_code(0x0) == (0xDEADBEEF, True)
        word, from_ram = mem.read_code(0x8000_0000)
        assert not from_ram

    def test_straddling_region_end_is_unmapped(self):
        mem = self._mem()
        with pytest.raises(BusError):
            mem.read(0x4000_00FE, 4)  # last 2 bytes + 2 beyond

    def test_straddling_mmio_end_faults_without_device_access(self):
        """Regression: a multi-byte access whose first byte is inside an
        MMIO window but whose tail runs past it must fault — it used to
        be routed to the device port."""
        mem = self._mem()
        with pytest.raises(BusError):
            mem.read(0x8000_00FE, 4)
        with pytest.raises(BusError):
            mem.write(0x8000_00FE, 4, 0)
        with pytest.raises(BusError):
            mem.read_code(0x8000_00FE)
        assert self.port.reads == []
        assert self.port.writes == []
        # the last fully-contained word still works
        assert mem.read(0x8000_00FC, 4) == 0xA5A5A5A5

    def test_read_code_ram_probes_only_byte_regions(self):
        """The block translator's fetch probe: RAM/ROM words come back,
        MMIO and unmapped space return None without touching devices."""
        mem = self._mem()
        assert mem.read_code_ram(0x0) == 0xDEADBEEF
        assert mem.read_code_ram(0x8000_0000) is None
        assert mem.read_code_ram(0x9000_0000) is None
        assert mem.read_code_ram(0x4000_00FE) is None  # straddles end
        assert self.port.reads == []


def _run_both(source: str, max_instructions: int = 10_000):
    """Run a standalone program on a fresh IU and a fresh FunctionalUnit
    over identical flat memory; returns both engines."""
    image = build(source)

    iu_mem = FlatMemory(size=RAM_SIZE, base=RAM_BASE)
    fast_buf = bytearray(RAM_SIZE)
    for base, blob in image.segments.items():
        iu_mem.load(base, blob)
        fast_buf[base - RAM_BASE:base - RAM_BASE + len(blob)] = blob

    iu = IntegerUnit(iu_mem, iu_mem, reset_pc=image.entry)
    iu.regs.write(14, STACK_TOP)

    fast_mem = FastMemory()
    fast_mem.add_region(RAM_BASE, fast_buf, name="ram")
    fast = FunctionalUnit(fast_mem, reset_pc=image.entry)
    fast.regs.write(14, STACK_TOP)

    done = image.symbols["done"]
    iu.run(max_instructions=max_instructions, until_pc=done)
    fast.run(max_instructions=max_instructions, until_pc=done)
    return iu, fast


SMALL_PROGRAM = """
    .text
    .global _start
_start:
    set 1000, %o0
    set 7, %o1
    udiv %o0, %o1, %o2      ! 142
    smul %o2, %o1, %o3      ! 994
    subcc %o0, %o3, %o4     ! 6, flags set
    bne,a taken
    sll %o4, 2, %o5         ! annul-candidate delay slot (executed)
    xor %o5, %o5, %o5
taken:
    save %sp, -96, %sp
    add %i2, %i3, %l0
    restore
done:
    nop
"""


class TestFunctionalUnitParity:
    def test_registers_and_flags_match_iu(self):
        iu, fast = _run_both(SMALL_PROGRAM)
        for reg in range(32):
            assert fast.regs.read(reg) == iu.regs.read(reg), f"reg {reg}"
        assert fast.ctrl.psr == iu.ctrl.psr
        assert fast.ctrl.y == iu.ctrl.y
        assert fast.instret == iu.instret
        assert fast.annulled_slots == iu.annulled_slots

    def test_functional_cycles_count_steps_not_timing(self):
        _, fast = _run_both(SMALL_PROGRAM)
        assert fast.cycles == fast.instret + fast.annulled_slots

    def test_decode_memo_invalidated_by_store(self):
        """Self-modifying code: a store over an already-executed PC must
        drop the per-PC decode memo (write-invalidate contract)."""
        source = f"""
    .text
    .global _start
_start:
    set patch, %o0
    set target, %o1
    ld [%o0], %o2
    st %o2, [%o1]           ! overwrite 'add 1' with 'add 2'
    set 3, %l1
loop:
    deccc %l1
target:
    add %g3, 1, %g3         ! patched to add 2 after first pass
    bg loop
    nop
done:
    nop
patch:
    add %g3, 2, %g3
"""
        iu, fast = _run_both(source)
        assert fast.regs.read(3) == iu.regs.read(3)

    def test_flush_clears_decode_memo(self):
        mem = FastMemory()
        mem.add_region(RAM_BASE, bytearray(0x1000), name="ram")
        fast = FunctionalUnit(mem, reset_pc=RAM_BASE)
        fast._inst_cache[RAM_BASE] = object()
        fast.flush_icache()
        assert not fast._inst_cache

    def test_memo_cap_clears_wholesale_at_capacity(self):
        """The per-PC decode memo is bounded at MEMO_CAPACITY; hitting
        the bound clears it wholesale before memoizing the new PC."""
        from repro.cpu.fastpath import MEMO_CAPACITY

        assert MEMO_CAPACITY == 1 << 16
        mem = FastMemory()
        buf = bytearray(0x1000)
        buf[0:4] = (0x01000000).to_bytes(4, "big")  # nop
        mem.add_region(RAM_BASE, buf, name="ram")
        fast = FunctionalUnit(mem, reset_pc=RAM_BASE)
        fast._inst_cache.update(
            (i, None) for i in range(MEMO_CAPACITY))
        fast.step()
        assert len(fast._inst_cache) == 1
        assert RAM_BASE in fast._inst_cache

    def test_run_contract_both_paths(self):
        """run() without until_pc executes exactly the budget and
        returns; with until_pc it raises WatchdogExpired on exhaustion
        — code and docstring agree (the docstring used to promise a
        watchdog on both paths)."""
        from repro.cpu.traps import WatchdogExpired

        src = """
    .text
    .global _start
_start:
    b _start
    add %g1, 1, %g1
done:
    nop
"""
        image = build(src)
        buf = bytearray(RAM_SIZE)
        for base, blob in image.segments.items():
            buf[base - RAM_BASE:base - RAM_BASE + len(blob)] = blob
        mem = FastMemory()
        mem.add_region(RAM_BASE, buf, name="ram")
        fast = FunctionalUnit(mem, reset_pc=image.entry)
        assert fast.run(max_instructions=40) == 40  # silent return
        assert fast.cycles == 40
        with pytest.raises(WatchdogExpired):
            fast.run(max_instructions=40, until_pc=image.symbols["done"])


class TestSimulatorIntegration:
    def test_functional_unit_shares_architectural_state(self):
        sim = Simulator()
        fast = sim._fast_unit(FunctionalUnit)
        assert fast.regs is sim.cpu.regs
        assert fast.ctrl is sim.cpu.ctrl
        fast.regs.write(9, 0x1234)
        assert sim.cpu.regs.read(9) == 0x1234

    def test_functional_unit_sees_simulator_memory_map(self):
        sim = Simulator()
        fast = sim._fast_unit(FunctionalUnit)
        memmap = sim.memmap
        # PROM readable, not writable
        assert fast.mem.read(memmap.prom_base, 4) == \
            int.from_bytes(sim.rom_info.image[:4], "big")
        with pytest.raises(BusError):
            fast.mem.write(memmap.prom_base, 4, 0)
        # SRAM aliases the SramBank buffer
        fast.mem.write(memmap.sram_base + 0x100, 4, 0xCAFEBABE)
        assert sim.sram.data[0x100:0x104] == b"\xca\xfe\xba\xbe"
        # APB MMIO reaches the UART (status: TX empty)
        from repro.mem.memmap import UART_OFFSET
        status = fast.mem.read(memmap.apb_base + UART_OFFSET + 4, 4)
        assert status & 0x6
