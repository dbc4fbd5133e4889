"""Set-associative cache data-structure tests."""

import pytest

from repro.cache import CacheGeometry, SetAssociativeCache


class TestGeometry:
    def test_default_splits(self):
        geometry = CacheGeometry(size=4096, line_size=32, ways=1)
        assert geometry.sets == 128
        assert geometry.offset_bits == 5
        assert geometry.index_bits == 7

    def test_split_roundtrip(self):
        geometry = CacheGeometry(size=1024, line_size=32)
        address = 0x4000_1234
        tag, index, offset = geometry.split(address)
        rebuilt = (tag << (geometry.offset_bits + geometry.index_bits)) \
            | (index << geometry.offset_bits) | offset
        assert rebuilt == address

    def test_line_base(self):
        geometry = CacheGeometry(size=1024, line_size=32)
        assert geometry.line_base(0x1234_5678) == 0x1234_5660

    @pytest.mark.parametrize("size,line,ways", [
        (1024, 32, 1), (2048, 32, 1), (4096, 32, 1),
        (8192, 32, 1), (16384, 32, 1),   # the paper's sweep
        (4096, 16, 2), (8192, 64, 4),
    ])
    def test_valid_geometries(self, size, line, ways):
        CacheGeometry(size=size, line_size=line, ways=ways)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size=3000)
        with pytest.raises(ValueError):
            CacheGeometry(line_size=24)
        with pytest.raises(ValueError):
            CacheGeometry(ways=3)

    def test_unknown_replacement_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(replacement="fifo")

    def test_fully_associative_corner(self):
        geometry = CacheGeometry(size=1024, line_size=32, ways=32)
        assert geometry.sets == 1


class TestLookupAndFill:
    def _filled(self, geometry=None):
        cache = SetAssociativeCache(geometry or CacheGeometry(1024, 32))
        line = bytes(range(32))
        cache.fill(0x4000_0000, line)
        return cache, line

    def test_miss_then_hit(self):
        cache, _ = self._filled()
        assert cache.read(0x5000_0000, 4) is None
        assert cache.stats.read_misses == 1
        assert cache.read(0x4000_0000, 4) is not None
        assert cache.stats.read_hits == 1

    def test_read_returns_filled_bytes(self):
        cache, line = self._filled()
        assert cache.read(0x4000_0004, 4) == int.from_bytes(line[4:8], "big")
        assert cache.read(0x4000_001F, 1) == line[31]

    def test_write_hit_updates_line(self):
        cache, _ = self._filled()
        assert cache.write(0x4000_0008, 4, 0xAABBCCDD)
        assert cache.read(0x4000_0008, 4) == 0xAABBCCDD

    def test_write_miss_does_not_allocate(self):
        cache, _ = self._filled()
        assert not cache.write(0x6000_0000, 4, 1)
        assert cache.read(0x6000_0000, 4) is None  # still not resident
        assert cache.stats.write_misses == 1

    def test_direct_mapped_conflict_evicts(self):
        cache = SetAssociativeCache(CacheGeometry(1024, 32, ways=1))
        cache.fill(0x4000_0000, bytes(32))
        evicted = cache.fill(0x4000_0400, bytes(32))  # same set, 1KB apart
        assert evicted == 0x4000_0000
        assert cache.read(0x4000_0000, 4) is None

    def test_two_way_holds_both_conflicting_lines(self):
        cache = SetAssociativeCache(CacheGeometry(1024, 32, ways=2))
        cache.fill(0x4000_0000, bytes(32))
        evicted = cache.fill(0x4000_0200, bytes(32))  # same set index
        assert evicted is None
        assert cache.read(0x4000_0000, 4) is not None
        assert cache.read(0x4000_0200, 4) is not None

    def test_lru_evicts_least_recently_used(self):
        cache = SetAssociativeCache(
            CacheGeometry(1024, 32, ways=2, replacement="lru"))
        set_stride = 512  # ways * sets * line...: same-index addresses
        a, b, c = 0x4000_0000, 0x4000_0000 + 512, 0x4000_0000 + 1024
        cache.fill(a, bytes(32))
        cache.fill(b, bytes(32))
        cache.read(a, 4)            # touch a: b becomes LRU
        evicted = cache.fill(c, bytes(32))
        assert evicted == b

    def test_lrr_evicts_oldest_fill_regardless_of_use(self):
        cache = SetAssociativeCache(
            CacheGeometry(1024, 32, ways=2, replacement="lrr"))
        a, b, c = 0x4000_0000, 0x4000_0000 + 512, 0x4000_0000 + 1024
        cache.fill(a, bytes(32))
        cache.fill(b, bytes(32))
        cache.read(a, 4)            # LRR ignores touches
        evicted = cache.fill(c, bytes(32))
        assert evicted == a

    def test_random_replacement_is_deterministic_per_seed(self):
        def evictions(seed):
            cache = SetAssociativeCache(
                CacheGeometry(1024, 32, ways=4, replacement="random"),
                seed=seed)
            out = []
            for step in range(16):
                out.append(cache.fill(0x4000_0000 + step * 256, bytes(32)))
            return out

        assert evictions(1) == evictions(1)

    def test_fill_wrong_size_rejected(self):
        cache = SetAssociativeCache(CacheGeometry(1024, 32))
        with pytest.raises(ValueError):
            cache.fill(0x4000_0000, bytes(16))

    def test_invalidate_all(self):
        cache, _ = self._filled()
        cache.invalidate_all()
        assert cache.valid_lines == 0
        assert cache.read(0x4000_0000, 4) is None

    def test_stats_miss_rate(self):
        cache, _ = self._filled()
        cache.read(0x4000_0000, 4)
        cache.read(0x7000_0000, 4)
        assert cache.stats.read_miss_rate == 0.5

    def test_contents_summary(self):
        cache, _ = self._filled()
        summary = cache.contents_summary()
        assert sum(len(tags) for tags in summary.values()) == 1
