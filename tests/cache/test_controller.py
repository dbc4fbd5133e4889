"""CacheController tests: timing, write-through policy, bypass, flush."""

from repro.cache import CacheController, CacheGeometry
from repro.mem.interface import FlatMemory

BASE = 0x4000_0000


def make_controller(size=1024, line=32, read_wait=0, cacheable=None,
                    **kwargs):
    memory = FlatMemory(size=1 << 16, base=BASE, read_wait=read_wait)
    controller = CacheController(CacheGeometry(size, line), memory,
                                 cacheable or (lambda a: True), **kwargs)
    return controller, memory


class TestReadPath:
    def test_miss_fills_line_and_costs_cycles(self):
        controller, memory = make_controller()
        memory.write_word(BASE + 0x100, 0xCAFEBABE)
        value, cycles = controller.read(BASE + 0x100, 4)
        assert value == 0xCAFEBABE
        assert cycles > 0
        assert controller.fill_count == 1

    def test_hit_is_free(self):
        controller, memory = make_controller()
        memory.write_word(BASE + 0x100, 7)
        controller.read(BASE + 0x100, 4)
        value, cycles = controller.read(BASE + 0x100, 4)
        assert value == 7
        assert cycles == 0

    def test_whole_line_resident_after_miss(self):
        controller, memory = make_controller(line=32)
        for offset in range(0, 32, 4):
            memory.write_word(BASE + 0x200 + offset, offset)
        controller.read(BASE + 0x200, 4)
        for offset in range(4, 32, 4):
            value, cycles = controller.read(BASE + 0x200 + offset, 4)
            assert value == offset
            assert cycles == 0

    def test_refill_read_not_double_counted_in_stats(self):
        controller, memory = make_controller()
        controller.read(BASE, 4)
        stats = controller.cache.stats
        assert stats.read_misses == 1
        assert stats.read_hits == 0

    def test_falls_back_to_per_word_fill_without_read_burst(self):
        class NoBurstMemory(FlatMemory):
            read_burst = None

        memory = NoBurstMemory(size=1 << 16, base=BASE)
        # read_burst attribute is None -> controller must loop reads
        controller = CacheController(CacheGeometry(1024, 32), memory)
        memory.write_word(BASE + 64, 99)
        value, cycles = controller.read(BASE + 64, 4)
        assert value == 99
        assert cycles >= 8  # at least one cycle per word in the line


class TestWritePath:
    def test_write_through_always_reaches_memory(self):
        controller, memory = make_controller()
        controller.write(BASE + 0x40, 4, 0x1234)
        assert memory.read_word(BASE + 0x40) == 0x1234

    def test_write_hit_keeps_cache_coherent(self):
        controller, memory = make_controller()
        memory.write_word(BASE + 0x40, 1)
        controller.read(BASE + 0x40, 4)         # make it resident
        controller.write(BASE + 0x40, 4, 2)
        value, cycles = controller.read(BASE + 0x40, 4)
        assert value == 2
        assert cycles == 0                       # still a hit
        assert memory.read_word(BASE + 0x40) == 2

    def test_write_miss_does_not_allocate(self):
        controller, memory = make_controller()
        controller.write(BASE + 0x80, 4, 5)
        assert controller.cache.stats.write_misses == 1
        _, cycles = controller.read(BASE + 0x80, 4)
        assert cycles > 0  # read still misses: no write-allocate

    def test_byte_write_merges_into_line(self):
        controller, memory = make_controller()
        memory.write_word(BASE, 0x11223344)
        controller.read(BASE, 4)
        controller.write(BASE + 1, 1, 0xFF)
        value, _ = controller.read(BASE, 4)
        assert value == 0x11FF3344


class TestBypassAndFlush:
    def test_uncacheable_addresses_bypass(self):
        controller, memory = make_controller(
            cacheable=lambda address: address < BASE + 0x1000)
        memory.write_word(BASE + 0x2000, 42)
        value, _ = controller.read(BASE + 0x2000, 4)
        assert value == 42
        assert controller.bypass_count == 1
        assert controller.cache.stats.reads == 0

    def test_uncacheable_sees_external_updates(self):
        """The mailbox property: an uncached location always reads fresh."""
        controller, memory = make_controller(
            cacheable=lambda address: address != BASE)
        memory.write_word(BASE, 0)
        assert controller.read(BASE, 4)[0] == 0
        memory.write_word(BASE, 0x4000_2000)  # external (host) write
        assert controller.read(BASE, 4)[0] == 0x4000_2000

    def test_disabled_cache_forwards_everything(self):
        controller, memory = make_controller(enabled=False)
        memory.write_word(BASE, 9)
        assert controller.read(BASE, 4)[0] == 9
        assert controller.cache.valid_lines == 0

    def test_flush_invalidates_and_costs_cycles(self):
        controller, memory = make_controller()
        memory.write_word(BASE, 3)
        controller.read(BASE, 4)
        cycles = controller.flush()
        assert cycles == controller.flush_cycles > 0
        memory.write_word(BASE, 4)  # stale data must not be served
        assert controller.read(BASE, 4)[0] == 4

    def test_flush_cycles_scale_with_lines(self):
        small, _ = make_controller(size=1024)
        large, _ = make_controller(size=16384)
        assert large.flush_cycles > small.flush_cycles

    def test_stats_dict_shape(self):
        controller, _ = make_controller()
        controller.read(BASE, 4)
        stats = controller.stats_dict()
        assert stats["fills"] == 1
        assert stats["geometry"]["size"] == 1024


class TestPaperScenario:
    """The Figure 7/8 access pattern at data-structure level."""

    def _sweep_misses(self, cache_size: int) -> int:
        controller, memory = make_controller(size=cache_size, line=32)
        # 4 KB array, stride 128 bytes (count[i % 1024], i += 32), 3 passes
        for _ in range(3):
            for index in range(0, 1024, 32):
                controller.read(BASE + index * 4, 4)
        return controller.cache.stats.read_misses

    def test_small_cache_thrashes(self):
        # 1 KB direct-mapped, 4 KB working set: every access conflicts.
        assert self._sweep_misses(1024) == 3 * 32

    def test_2kb_still_thrashes(self):
        assert self._sweep_misses(2048) == 3 * 32

    def test_4kb_only_cold_misses(self):
        # "no cache misses (excluding the initial loading of the cache)
        # once the cache size reaches 4KB"
        assert self._sweep_misses(4096) == 32

    def test_16kb_same_as_4kb(self):
        assert self._sweep_misses(16384) == 32
