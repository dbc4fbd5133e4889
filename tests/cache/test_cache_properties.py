"""Property-based cache tests against a naive reference model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import REPLACEMENT_POLICIES, CacheGeometry, SetAssociativeCache
from repro.cache.cache import REPLACEMENT_SEED, tag_store


class ReferenceCache:
    """Obviously-correct set-associative model, independent of the
    shared tag store: a list of slots per set, each ``None`` or a
    ``[line, last_use, fill_order]`` record.  A fill takes the first
    invalid way, else the lru (oldest use), lrr (oldest fill) or random
    (``default_rng(seed).integers(ways)``) way; a resident line refills
    its own way."""

    def __init__(self, geometry: CacheGeometry,
                 seed: int = REPLACEMENT_SEED):
        self.geometry = geometry
        self.seed = seed
        self.sets = [[None] * geometry.ways for _ in range(geometry.sets)]
        self.restart()

    def _ways(self, line: int) -> list:
        return self.sets[line % self.geometry.sets]

    def lookup(self, line: int) -> bool:
        """Hit test; a hit is a use."""
        self.time += 1
        for slot in self._ways(line):
            if slot is not None and slot[0] == line:
                slot[1] = self.time
                return True
        return False

    def fill(self, line: int) -> int:
        """Install *line*; return the evicted line, or -1."""
        self.time += 1
        ways = self._ways(line)
        lines = [slot[0] if slot else None for slot in ways]
        evicted = -1
        if line in lines:
            way = lines.index(line)
        elif None in lines:
            way = lines.index(None)
        else:
            policy = self.geometry.replacement
            if policy == "lru":
                way = min(range(len(ways)), key=lambda w: ways[w][1])
            elif policy == "lrr":
                way = min(range(len(ways)), key=lambda w: ways[w][2])
            else:
                way = int(self.rng.integers(len(ways)))
            evicted = ways[way][0]
        ways[way] = [line, self.time, self.time]
        return evicted

    def access(self, address: int) -> bool:
        """Read a line; True on hit.  Misses always fill."""
        line = address // self.geometry.line_size
        if self.lookup(line):
            return True
        self.fill(line)
        return False

    def invalidate(self) -> None:
        self.sets = [[None] * len(ways) for ways in self.sets]

    def restart(self) -> None:
        self.time = 0
        self.rng = np.random.default_rng(self.seed)
        for ways in self.sets:
            for slot in ways:
                if slot is not None:
                    slot[1] = slot[2] = 0

    def resident(self) -> set[int]:
        return {slot[0] for ways in self.sets for slot in ways if slot}


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
        reference = ReferenceCache(geometry)
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
            reference = ReferenceCache(geometry)
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
        assert first.stats == second.stats
        assert first.contents_summary() == second.contents_summary()
        expected: dict[int, set[int]] = {}
        for base in resident:
            tag, index, _ = geometry.split(base)
            expected.setdefault(index, set()).add(tag)
        assert {index: set(tags) for index, tags
                in first.contents_summary().items()} == expected


# Eight lines 4 KB apart share set 0 of every geometry above, so full
# sets, hits on older ways and evictions are common.
set_zero_addresses = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
    lambda pair: 0x4000_0000 + pair[0] * 4096 + pair[1] * 4)

reference_operations = st.lists(
    st.tuples(st.sampled_from(["read"] * 8 + ["write"] * 3 + ["fill"] * 2
                              + ["invalidate", "restart"]),
              st.one_of(set_zero_addresses, word_addresses)),
    min_size=64, max_size=300,
)


class TestAgainstReferencePolicies:
    """The shared tag store and the machine's cache, checked against
    :class:`ReferenceCache` under all three policies."""

    @given(geometry=mixed_geometries, ops=reference_operations,
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tag_store_and_cache_match_reference(self, geometry, ops, seed):
        """Reads fill on a miss, writes only look up, ``fill`` installs a
        line even when it is resident, ``invalidate`` empties every set
        and ``restart`` resets the replacement state: the hits, the
        evicted lines and the resident lines match throughout."""
        tags = tag_store(geometry, seed)
        cache = SetAssociativeCache(geometry, seed=seed)
        reference = ReferenceCache(geometry, seed)
        shift = geometry.offset_bits
        for kind, address in ops:
            line = address >> shift
            if kind == "read":
                hit = reference.lookup(line)
                assert tags.lookup(line) == hit
                assert (cache.read(address, 4) is not None) == hit
                if not hit:
                    kind = "fill"
            elif kind == "write":
                hit = reference.lookup(line)
                assert tags.lookup(line) == hit
                assert cache.write(address, 4, line) == hit
            elif kind == "invalidate":
                reference.invalidate()
                tags.invalidate()
                cache.invalidate_all()
            elif kind == "restart":
                reference.restart()
                tags.restart()
                cache.reset_replacement_state()
            if kind == "fill":
                evicted = reference.fill(line)
                assert tags.fill(line) == evicted
                data = line.to_bytes(4, "big") * (geometry.line_size // 4)
                assert cache.fill(line << shift, data) == (
                    None if evicted < 0 else evicted << shift)
        resident = reference.resident()
        assert {line for line in tags.slots if line >= 0} == resident
        assert cache.valid_lines == len(resident)
        for line in resident:
            assert cache.read(line << shift, 4) == line

    def test_refill_of_a_resident_line_stays_in_its_way(self):
        """A two-way set holding A and B: refilling A evicts nothing and
        keeps one copy of A, whose data is the new fill's."""
        geometry = CacheGeometry(1024, 32, ways=2, replacement="lrr")
        cache = SetAssociativeCache(geometry)
        a, b = 0x4000_0000, 0x4000_0200
        cache.fill(a, bytes(32))
        cache.fill(b, bytes(32))
        assert cache.fill(a, b"\x5a" * 32) is None
        assert cache.contents_summary() == {
            0: [geometry.split(a)[0], geometry.split(b)[0]]}
        assert cache.read(a, 4) == 0x5A5A_5A5A
        assert cache.stats.evictions == 0
