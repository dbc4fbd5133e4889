"""The shared cache walk against one tag-store walk per geometry."""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import cache as cache_module
from repro.cache.cache import FLUSH, READ, WRITE, CacheGeometry, tag_store, walk

#: A second read kind (counted apart, as replay counts PROM misses) and
#: an uncached kind that passes the cache by.
OTHER_READ, UNCACHED = 3, 5
READS = (READ, OTHER_READ)


def reference_walk(geometry, addresses, kinds, split, restart):
    """One geometry's counts through its own tag store, reference by
    reference, counting from *split* on."""
    tags = tag_store(geometry)
    shift = geometry.offset_bits
    for lo, hi in ((0, split), (split, len(kinds))):
        if lo == split and restart:
            tags.restart()
        counts = Counter()
        for address, kind in zip(addresses[lo:hi], kinds[lo:hi]):
            line = address >> shift
            if kind == WRITE:
                counts["write_hits"] += tags.lookup(line)
            elif kind in READS:
                if tags.lookup(line):
                    counts["read_hits"] += 1
                else:
                    counts["miss", kind] += 1
                    counts["evictions"] += tags.fill(line) >= 0
            elif kind == FLUSH:
                tags.invalidate()
    return counts


# Word addresses that share sets at every size below, with a few far
# ones whose tags differ in the high bits.
addresses = st.one_of(
    st.integers(0, 0x7FF).map(lambda word: 0x4000_0000 + 4 * word),
    st.integers(0, 0xFF).map(lambda word: 0x4001_0000 + 4 * word),
    st.integers(0, 0x3FFF_FFFF).map(lambda word: 4 * word),
)

streams = st.lists(
    st.tuples(addresses, st.sampled_from(
        [READ] * 6 + [WRITE] * 3 + [OTHER_READ, UNCACHED, FLUSH])),
    min_size=64, max_size=400)

sizes = st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096])


@st.composite
def families(draw):
    """1–5 distinct direct-mapped sizes of one line size, in any order
    (a replacement field changes nothing for one way)."""
    line_size = draw(st.sampled_from([16, 32]))
    chosen = draw(st.lists(sizes, min_size=1, max_size=5, unique=True))
    return [CacheGeometry(size, line_size, 1,
                          draw(st.sampled_from(["lru", "lrr", "random"])))
            for size in chosen]


associative = st.builds(
    CacheGeometry, size=st.sampled_from([256, 512, 1024]),
    line_size=st.sampled_from([16, 32]), ways=st.sampled_from([2, 4]),
    replacement=st.sampled_from(["lru", "lrr", "random"]))


def _check(geometries, stream, split, restart):
    addresses = [address for address, _ in stream]
    kinds = [kind for _, kind in stream]
    split = min(split, len(kinds))
    walked = walk(geometries, np.asarray(addresses, dtype=np.uint64), kinds,
                  split, restart, reads=READS)
    assert len(walked) == len(geometries)
    for geometry, counts in zip(geometries, walked):
        expected = reference_walk(geometry, addresses, kinds, split, restart)
        assert +counts == +expected, geometry


class TestWalk:
    @given(family=families(), stream=streams, split=st.integers(0, 400),
           restart=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_direct_mapped_family_walks_inline(self, family, stream, split,
                                               restart):
        """A direct-mapped family never goes through a tag store, and
        counts what one tag-store walk per size counts."""
        refuse = AssertionError("a direct-mapped family left the inline walk")
        with mock.patch.object(cache_module, "_store_walk",
                               side_effect=refuse), \
                mock.patch.object(cache_module, "tag_store",
                                  side_effect=refuse):
            _check(family, stream, split, restart)

    @given(family=families(), others=st.lists(associative, max_size=3),
           stream=streams, split=st.integers(0, 400), restart=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mixed_geometries_match_one_walk_each(self, family, others,
                                                  stream, split, restart):
        """2- and 4-way caches under every policy keep their own walk
        beside the family, in the order asked for."""
        geometries = others[:1] + family + others[1:]
        _check(geometries, stream, split, restart)

    @given(family=families(), others=st.lists(associative, max_size=2),
           stream=streams, split=st.integers(0, 400), restart=st.booleans(),
           chunk=st.integers(1, 70))
    @settings(max_examples=30, deadline=None)
    def test_chunks_and_column_widths_never_show(self, family, others, stream,
                                                 split, restart, chunk):
        """A walk reads its stream *chunk* references at a time, from
        sequences or from narrow numpy columns, and counts the same."""
        geometries = others + family
        addresses = [address for address, _ in stream]
        kinds = [kind for _, kind in stream]
        split = min(split, len(kinds))
        assert walk(geometries, np.asarray(addresses, dtype=np.uint32),
                    np.asarray(kinds, dtype=np.int8), split, restart,
                    reads=READS, chunk=chunk) == walk(
            geometries, addresses, kinds, split, restart, reads=READS)

    def test_duplicates_and_order_are_kept(self):
        small, large = CacheGeometry(64, 16), CacheGeometry(256, 16)
        stream = [(0x4000_0000, READ), (0x4000_0040, READ),
                  (0x4000_0000, READ)]
        _check([large, small, large], stream, 0, False)
        counts = walk([large, small], np.asarray(
            [address for address, _ in stream], dtype=np.uint64),
            [kind for _, kind in stream])
        assert [c["miss", READ] for c in counts] == [2, 3]

