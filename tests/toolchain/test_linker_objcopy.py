"""Linker and objcopy tests: placement, relocation, multi-object links."""

import pytest

from repro.toolchain import assemble, link
from repro.toolchain.linker import MemoryMapScript
from repro.toolchain.objcopy import hexdump, to_binary, to_words
from repro.toolchain.objfile import LinkError


class TestPlacement:
    def test_text_at_requested_base(self):
        image = link([assemble("_start:\n    nop")],
                     MemoryMapScript.default(0x4000_2000))
        assert image.start == 0x4000_2000

    def test_data_follows_text(self):
        image = link([assemble("""
_start:
    nop
    .data
value: .word 7
""")], MemoryMapScript.default(0x4000_1000))
        assert image.symbols["value"] == 0x4000_1008  # 4 text bytes, aligned 8

    def test_chain_skips_empty_sections(self):
        """.data placed after .rodata even when .rodata is empty."""
        image = link([assemble("""
_start:
    nop
    .data
v: .word 1
""")], MemoryMapScript.default(0x100))
        assert "v" in image.symbols

    def test_overlap_detection(self):
        script = MemoryMapScript(placements={".text": 0x1000,
                                             ".data": 0x1000})
        with pytest.raises(LinkError):
            link([assemble("_start:\n    nop\n    .data\n    .word 1")],
                 script)

    def test_entry_prefers_start_symbol(self):
        image = link([assemble("""
    nop
    .global _start
_start:
    nop
""")], MemoryMapScript.default(0x4000_1000))
        assert image.entry == 0x4000_1004

    def test_entry_falls_back_to_text_base(self):
        image = link([assemble("main:\n    nop")],
                     MemoryMapScript.default(0x4000_1000),
                     entry_symbol="_start")
        assert image.entry == 0x4000_1000


class TestRelocations:
    def test_hi_lo_pair(self):
        image = link([assemble("""
_start:
    sethi %hi(value), %o0
    or %o0, %lo(value), %o0
    .data
value: .word 0
""")], MemoryMapScript.default(0x4000_1000))
        address = image.symbols["value"]
        base, blob = to_binary(image)
        first = int.from_bytes(blob[0:4], "big")
        second = int.from_bytes(blob[4:8], "big")
        assert (first & 0x3FFFFF) == address >> 10
        assert (second & 0x3FF) == address & 0x3FF

    def test_word32_data_relocation(self):
        image = link([assemble("""
_start:
    nop
    .data
pointer: .word target
target:  .word 99
""")], MemoryMapScript.default(0x4000_1000))
        words = to_words(image)
        assert words[image.symbols["pointer"]] == image.symbols["target"]

    def test_call_across_objects(self):
        caller = assemble("""
    .global _start
_start:
    call helper
    nop
""")
        callee = assemble("""
    .global helper
helper:
    retl
    nop
""")
        image = link([caller, callee], MemoryMapScript.default(0x4000_1000))
        words = to_words(image)
        call_word = words[image.symbols["_start"]]
        disp = call_word & 0x3FFF_FFFF
        target = image.symbols["_start"] + (disp << 2)
        assert target == image.symbols["helper"]

    def test_branch_across_objects(self):
        a = assemble("""
    .global _start
_start:
    ba elsewhere
    nop
""")
        b = assemble("""
    .global elsewhere
elsewhere:
    nop
""")
        image = link([a, b], MemoryMapScript.default(0x4000_1000))
        words = to_words(image)
        branch = words[image.symbols["_start"]]
        from repro.utils import sign_extend
        disp = sign_extend(branch, 22) << 2
        assert image.symbols["_start"] + disp == image.symbols["elsewhere"]

    def test_undefined_symbol_reported(self):
        with pytest.raises(LinkError) as err:
            link([assemble("_start:\n    call missing\n    nop")],
                 MemoryMapScript.default(0x1000))
        assert "missing" in str(err.value)

    def test_duplicate_global_rejected(self):
        a = assemble(".global f\nf:\n    nop")
        b = assemble(".global f\nf:\n    nop")
        with pytest.raises(LinkError):
            link([a, b], MemoryMapScript.default(0x1000))

    def test_simm13_overflow_reported(self):
        # A symbol address never fits in 13 bits at this base.
        with pytest.raises(LinkError):
            link([assemble("""
_start:
    ld [%g0 + value], %o0
    .data
value: .word 1
""")], MemoryMapScript.default(0x4000_1000))

    def test_same_section_branch_resolved_at_assembly(self):
        obj = assemble("""
_start:
    ba out
    nop
out:
    nop
""")
        assert not obj.sections[".text"].relocations


class TestMultiObject:
    def test_sections_concatenate(self):
        a = assemble("    .data\n    .word 1")
        b = assemble("    .data\n    .word 2")
        image = link([a, b], MemoryMapScript(placements={".data": 0x2000}))
        base, blob = to_binary(image)
        assert blob == b"\x00\x00\x00\x01\x00\x00\x00\x02"

    def test_local_symbols_do_not_collide_when_different(self):
        a = assemble("alpha:\n    nop")
        b = assemble("beta:\n    nop")
        image = link([a, b], MemoryMapScript.default(0x1000))
        assert image.symbols["beta"] == image.symbols["alpha"] + 4


class TestObjcopy:
    def _image(self):
        return link([assemble("""
    .global _start
_start:
    nop
    .data
v: .word 0xAABBCCDD
""")], MemoryMapScript.default(0x4000_1000))

    def test_flatten_fills_gaps(self):
        image = self._image()
        base, blob = to_binary(image)
        assert base == 0x4000_1000
        assert len(blob) == image.end - image.start
        assert blob[:4] == b"\x01\x00\x00\x00"  # nop

    def test_to_words_big_endian(self):
        image = self._image()
        words = to_words(image)
        assert words[image.symbols["v"]] == 0xAABBCCDD

    def test_hexdump_mentions_segments(self):
        dump = hexdump(self._image())
        assert "segment 0x40001000" in dump
        assert "aa bb cc dd" in dump
