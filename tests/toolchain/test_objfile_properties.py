"""Object-format and image properties: flatten, scripts, expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.toolchain import assemble
from repro.toolchain.asm.encoder import EncodeError
from repro.toolchain.asm.parser import AssemblyError, parse_expr
from repro.toolchain.linker import Linker, LinkError, MemoryMapScript
from repro.toolchain.objfile import Image, RelocKind, Section, apply_relocation
from repro.utils import sign_extend


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


class TestApplyRelocation:
    """One relocation decision for the assembler's folds, its in-section
    branches and the linker; each reports a misfit in its own error."""

    @given(place=st.integers(min_value=0, max_value=2**30).map(lambda x: 4 * x),
           words=st.integers(min_value=-(1 << 21), max_value=(1 << 21) - 1))
    def test_wdisp22_round_trips_in_range(self, place, words):
        word = apply_relocation(0, RelocKind.WDISP22, place + 4 * words, place)
        assert sign_extend(word, 22) == words

    @given(value=st.integers(min_value=-(2**31), max_value=2**32 - 1))
    def test_sethi_or_pair_rebuilds_the_value(self, value):
        hi = apply_relocation(0, RelocKind.HI22, value)
        lo = apply_relocation(0, RelocKind.LO10, value)
        assert (hi << 10 | lo) == value & 0xFFFF_FFFF

    @pytest.mark.parametrize("kind, value", [
        (RelocKind.SIMM13, 4096), (RelocKind.SIMM13, -4097),
        (RelocKind.WDISP22, 4 << 21), (RelocKind.WDISP22, -(4 << 21) - 4),
    ])
    def test_misfit_raises_value_error(self, kind, value):
        with pytest.raises(ValueError):
            apply_relocation(0, kind, value)

    def test_assembler_fold_raises_encode_error(self):
        """The fold's EncodeError reaches the caller as an AssemblyError
        naming the using line, whether the constant is set before or
        after its use."""
        for source, line in (("    .set big, 5000\n    add %o0, big, %o0", 2),
                             ("    add %o0, big, %o0\n    .set big, 5000", 1)):
            with pytest.raises(AssemblyError) as err:
                assemble(source, "fold.s")
            assert err.value.line == line
            assert str(err.value).startswith(f"fold.s:{line}: ")
            assert isinstance(err.value.__cause__, EncodeError)

    def test_word_of_a_constant_set_after_use(self):
        for source in ("    .set big, 5\n    .word big",
                       "    .word big\n    .set big, 5"):
            assert assemble(source).section(".text").data == bytes(
                [0, 0, 0, 5])

    def test_absolute_branch_target_set_after_use_links_as_before(self):
        """``ba tgt`` with ``tgt`` set later assembles as it does with
        the ``.set`` first: a symbol-less relocation the linker applies."""
        before = ("_start:\n    .set tgt, 0x40001000\n    ba tgt\n    nop")
        after = ("_start:\n    ba tgt\n    nop\n    .set tgt, 0x40001000")
        script = MemoryMapScript.default(0x4000_0000)
        images = [Linker(script).link([assemble(text)])
                  for text in (before, after)]
        assert images[0].segments == images[1].segments
        base, blob = images[1].flatten()
        word = int.from_bytes(blob[:4], "big")
        assert base + 4 * sign_extend(word, 22) == 0x4000_1000

    def test_in_section_branch_raises_assembly_error_with_line(self):
        with pytest.raises(AssemblyError) as err:
            assemble("_start:\n    ba far\n    nop\n    .skip 8388608\n"
                     "far:\n    nop")
        assert err.value.line == 2

    def test_linker_raises_link_error_with_symbol(self):
        # The address of ``far`` never fits in 13 bits at this base.
        obj = assemble("_start:\n    add %o0, far, %o0\n"
                       "    .data\nfar: .word 0")
        with pytest.raises(LinkError) as err:
            Linker(MemoryMapScript.default(0x1000)).link([obj])
        assert "'far'" in str(err.value)


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
