"""Object-format and image properties: flatten, scripts, expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.toolchain import assemble
from repro.toolchain.asm.parser import parse_expr
from repro.toolchain.linker import Linker, LinkError, MemoryMapScript
from repro.toolchain.objfile import Image, Section


class TestImage:
    def test_flatten_gap_fill(self):
        image = Image(segments={0x100: b"AA", 0x110: b"BB"},
                      symbols={}, entry=0x100)
        base, blob = image.flatten()
        assert base == 0x100
        assert len(blob) == 0x12
        assert blob[0:2] == b"AA"
        assert blob[0x10:0x12] == b"BB"
        assert blob[2:0x10] == bytes(14)

    def test_flatten_custom_fill(self):
        image = Image(segments={0: b"\x01", 4: b"\x02"}, symbols={}, entry=0)
        _, blob = image.flatten(fill=0xEE)
        assert blob == b"\x01\xee\xee\xee\x02"

    def test_empty_image(self):
        image = Image(segments={}, symbols={}, entry=0)
        assert image.flatten() == (0, b"")
        assert image.start == 0 and image.end == 0

    @given(segments=st.dictionaries(
        st.integers(min_value=0, max_value=0x1000).map(lambda v: v * 4),
        st.binary(min_size=1, max_size=64), min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_flatten_preserves_every_segment(self, segments):
        # Discard overlapping segment sets.
        spans = sorted((base, base + len(data))
                       for base, data in segments.items())
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1:
                return
        image = Image(segments=segments, symbols={}, entry=0)
        base, blob = image.flatten()
        for seg_base, data in segments.items():
            offset = seg_base - base
            assert blob[offset:offset + len(data)] == data


class TestSection:
    def test_word_patching(self):
        section = Section(".text")
        section.append_word(0x11223344)
        section.append_word(0xAABBCCDD)
        section.patch_word(4, 0x55667788)
        assert section.word_at(0) == 0x11223344
        assert section.word_at(4) == 0x55667788
        assert section.size == 8


class TestMemoryMapScript:
    def test_explicit_bases(self):
        script = MemoryMapScript(placements={".text": 0x1000,
                                             ".data": 0x8000})
        image = Linker(script).link([assemble("""
_start:
    nop
    .data
v: .word 1
""")])
        assert image.symbols["_start"] == 0x1000
        assert image.symbols["v"] == 0x8000

    def test_alignment_applied_to_follow_on(self):
        script = MemoryMapScript(placements={".text": 0x1001,
                                             ".data": ".text"}, align=16)
        image = Linker(script).link([assemble("""
_start:
    nop
    .data
v: .word 1
""")])
        assert image.symbols["_start"] % 16 == 0
        assert image.symbols["v"] % 16 == 0

    def test_unknown_predecessor_rejected(self):
        script = MemoryMapScript(placements={".data": ".nonexistent"})
        with pytest.raises(LinkError):
            Linker(script).link([assemble("    .data\n    .word 1")])

    def test_unplaced_section_without_cursor_rejected(self):
        script = MemoryMapScript(placements={})
        with pytest.raises(LinkError):
            Linker(script).link([assemble("_start:\n    nop")])


class TestExpressionProperties:
    @given(value=st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_decimal_roundtrip(self, value):
        assert parse_expr(str(value)).constant() == value

    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    def test_hex_roundtrip(self, value):
        assert parse_expr(hex(value)).constant() == value

    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000),
           c=st.integers(1, 16))
    def test_arithmetic_matches_python(self, a, b, c):
        assert parse_expr(f"{a} + {b} * {c}").constant() == a + b * c
        assert parse_expr(f"({a} + {b}) * {c}").constant() == (a + b) * c
        assert parse_expr(f"{a} - {b} - {c}").constant() == a - b - c

    @given(value=st.integers(0, 0xFFFF), shift=st.integers(0, 15))
    def test_shifts_and_masks(self, value, shift):
        assert parse_expr(f"{value} << {shift}").constant() == value << shift
        assert parse_expr(f"({value} >> {shift}) & 0xFF").constant() == \
            (value >> shift) & 0xFF

    def test_symbolic_addend_combinations(self):
        expr = parse_expr("base + 4 * 8 - 2")
        assert expr.symbol == "base"
        assert expr.addend == 30


class TestGeneratorDeterminism:
    def test_sweep_is_reproducible(self):
        """Two independent sweeps measure identical cycle counts — the
        whole model (CPU, caches, protocol, synthesis) is deterministic."""
        from repro.core import ArchitectureGenerator, ConfigurationSpace
        from repro.toolchain.driver import compile_c_program

        image = compile_c_program("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 200; i++) total += i;
    return total;
}""")
        space = ConfigurationSpace().add_dimension("dcache_size",
                                                   [1024, 4096])

        def run():
            return [(m.config.key(), m.cycles)
                    for m in ArchitectureGenerator().sweep(
                        image, space).measurements]

        assert run() == run()
