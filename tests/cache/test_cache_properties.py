"""Property-based cache tests against a naive reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import REPLACEMENT_POLICIES, CacheGeometry, SetAssociativeCache


class ReferenceLruCache:
    """Obviously-correct LRU set-associative model (dict of lists)."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.sets: dict[int, list[int]] = {}

    def access(self, address: int) -> bool:
        """Reference a line; True on hit.  Misses always fill."""
        line = address // self.geometry.line_size
        index = line % self.geometry.sets
        resident = self.sets.setdefault(index, [])
        if line in resident:
            resident.remove(line)
            resident.append(line)
            return True
        resident.append(line)
        if len(resident) > self.geometry.ways:
            resident.pop(0)
        return False


geometries = st.builds(
    CacheGeometry,
    size=st.sampled_from([512, 1024, 4096]),
    line_size=st.sampled_from([16, 32]),
    ways=st.sampled_from([1, 2, 4]),
    replacement=st.just("lru"),
)

# Word-aligned addresses over the whole 32-bit space, drawn often from
# the PROM region at 0 and the SRAM region at 0x4000_0000 so that sets
# see reuse and conflicts; the high bits exercise the tag.
word_addresses = st.one_of(
    st.integers(min_value=0, max_value=0x3FFF),
    st.integers(min_value=0x1000_0000, max_value=0x1000_3FFF),
    st.integers(min_value=0, max_value=0x3FFF_FFFF),
).map(lambda x: x * 4)

address_lists = st.lists(word_addresses, min_size=1, max_size=300)


class TestAgainstReference:
    @given(geometry=geometries, addresses=address_lists)
    @settings(max_examples=60, deadline=None)
    def test_hit_miss_sequence_matches_reference(self, geometry, addresses):
        cache = SetAssociativeCache(geometry)
        reference = ReferenceLruCache(geometry)
        for address in addresses:
            got_hit = cache.read(address, 4) is not None
            if not got_hit:
                cache.fill(geometry.line_base(address),
                           bytes(geometry.line_size))
            expected_hit = reference.access(address)
            assert got_hit == expected_hit, f"address 0x{address:x}"

    @given(geometry=geometries, addresses=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_resident_lines_never_exceed_capacity(self, geometry, addresses):
        cache = SetAssociativeCache(geometry)
        for address in addresses:
            if cache.read(address, 4) is None:
                cache.fill(geometry.line_base(address),
                           bytes(geometry.line_size))
        assert cache.valid_lines <= geometry.sets * geometry.ways
        for index, tags in cache.contents_summary().items():
            assert len(tags) <= geometry.ways
            assert len(set(tags)) == len(tags)  # no duplicate tags in a set

    @given(addresses=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_data_integrity_under_fills(self, addresses):
        """Whatever is resident always reads back what was filled."""
        geometry = CacheGeometry(1024, 32)
        cache = SetAssociativeCache(geometry)
        expected: dict[int, bytes] = {}
        for address in addresses:
            base = geometry.line_base(address)
            payload = base.to_bytes(4, "big") * 8
            cache.fill(base, payload)
            expected[base] = payload
        for base, payload in expected.items():
            value = cache.read(base, 4)
            if value is not None:  # may have been evicted
                assert value == int.from_bytes(payload[:4], "big")

    @given(addresses=address_lists, size_a=st.sampled_from([512, 1024]),
           factor=st.sampled_from([2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_larger_cache_never_misses_more_lru_full_assoc(
            self, addresses, size_a, factor):
        """LRU inclusion property holds for fully-associative caches."""

        def misses(size: int) -> int:
            geometry = CacheGeometry(size, 32, ways=size // 32)
            reference = ReferenceLruCache(geometry)
            return sum(not reference.access(address)
                       for address in addresses)

        assert misses(size_a * factor) <= misses(size_a)


mixed_geometries = st.builds(
    CacheGeometry,
    size=st.sampled_from([512, 1024, 4096]),
    line_size=st.sampled_from([16, 32]),
    ways=st.sampled_from([1, 2, 4]),
    replacement=st.sampled_from(REPLACEMENT_POLICIES),
)

operations = st.lists(
    st.tuples(st.sampled_from(["read", "write", "fill"]), word_addresses,
              st.integers(min_value=0, max_value=3),
              st.sampled_from([1, 2, 4])),
    min_size=64, max_size=300,
)


class TestReplacementPolicies:
    @given(geometry=mixed_geometries, ops=operations,
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_seeded_caches_agree_and_evict_only_resident_lines(
            self, geometry, ops, seed):
        """Two identically seeded caches fed the same reads, writes and
        fills end in the same state, and every eviction ``fill`` reports
        is the base of a line that was resident."""
        caches = [SetAssociativeCache(geometry, seed=seed) for _ in range(2)]
        resident: set[int] = set()
        for kind, word, byte, size in ops:
            address = word + byte - byte % size
            base = geometry.line_base(address)
            if kind == "fill" and base in resident:
                kind = "read"  # the controller fills only on a miss
            results = []
            for cache in caches:
                if kind == "read":
                    results.append(cache.read(address, size))
                elif kind == "write":
                    results.append(cache.write(address, size, word))
                else:
                    results.append(cache.fill(
                        base, base.to_bytes(4, "big") * (geometry.line_size // 4)))
            assert results[0] == results[1]
            if kind == "read":
                assert (results[0] is not None) == (base in resident)
            elif kind == "write":
                assert results[0] == (base in resident)
            else:
                evicted = results[0]
                if evicted is not None:
                    assert evicted in resident
                    resident.discard(evicted)
                resident.add(base)
        first, second = caches
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.contents_summary() == second.contents_summary()
        expected: dict[int, set[int]] = {}
        for base in resident:
            tag, index, _ = geometry.split(base)
            expected.setdefault(index, set()).add(tag)
        assert {index: set(tags) for index, tags
                in first.contents_summary().items()} == expected
