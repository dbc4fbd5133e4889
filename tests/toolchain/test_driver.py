"""Driver tests: crt0, source kinds, packetization, memory-map plumbing."""

import pytest

from repro.core.sim import simulate
from repro.mem.memmap import DEFAULT_MAP, MemoryMap
from repro.net.protocol import decode_command, packetize_program
from repro.toolchain.driver import (
    SourceFile,
    build_image,
    compile_c_program,
    compile_sources,
    crt0_source,
)


class TestCrt0:
    def test_crt0_stores_result_and_exits(self):
        report = simulate(compile_c_program("int main(void) { return 55; }"))
        assert report.result_word == 55

    def test_crt0_source_references_result_addr(self):
        text = crt0_source()
        assert str(DEFAULT_MAP.result_addr) in text
        assert "ta 0" in text

    def test_entry_is_crt0_start_not_main(self):
        image = compile_c_program("int main(void) { return 0; }")
        assert image.entry == image.symbols["_start"]
        assert image.symbols["main"] > image.entry

    def test_without_crt0_entry_is_user_start(self):
        image = build_image([SourceFile("""
    .global _start
_start:
    ta 0
    nop
""", "asm")], with_crt0=False)
        assert image.entry == DEFAULT_MAP.program_base


class TestSources:
    def test_mixed_language_order_preserved(self):
        objects = compile_sources([
            SourceFile("int main(void) { return helper(); }\n"
                       "int helper(void);", "c", "a.c"),
            SourceFile(".global helper\nhelper:\n    retl\n    mov 3, %o0",
                       "asm", "b.s"),
        ])
        assert len(objects) == 3  # crt0 + 2

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            compile_sources([SourceFile("x", "fortran")])

    def test_custom_text_base(self):
        image = build_image([SourceFile("int main(void){return 0;}", "c")],
                            text_base=0x4001_0000)
        assert image.start == 0x4001_0000

    def test_custom_memory_map(self):
        memmap = MemoryMap(sram_base=0x2000_0000, sram_size=0x0010_0000)
        image = compile_c_program("int main(void) { return 0; }",
                                  memmap=memmap)
        assert image.start == memmap.program_base
        assert str(memmap.result_addr) in crt0_source(memmap)


class TestPacketization:
    def test_image_to_packets_covers_whole_binary(self):
        image = compile_c_program("""
int table[100];
int main(void) { return sizeof table; }""")
        base, blob = image.flatten()
        payloads = packetize_program(base, blob, 64)
        chunks = [decode_command(p) for p in payloads]
        assert chunks[0].address == base
        total_bytes = sum(len(c.data) for c in chunks)
        assert total_bytes == len(blob)
        assert all(c.total == len(chunks) for c in chunks)

    def test_packets_reconstruct_binary(self):
        image = compile_c_program("int main(void) { return 0x1234; }")
        base, blob = image.flatten()
        payloads = packetize_program(base, blob, 32)
        rebuilt = bytearray(len(blob))
        for payload in payloads:
            chunk = decode_command(payload)
            offset = chunk.address - base
            rebuilt[offset:offset + len(chunk.data)] = chunk.data
        assert bytes(rebuilt) == blob


class TestUtils:
    """Bit helpers underpinning everything else."""

    def test_sign_extension(self):
        from repro.utils import s32, sign_extend

        assert sign_extend(0xFFF, 12) == -1
        assert sign_extend(0x7FF, 12) == 0x7FF
        assert s32(0xFFFF_FFFF) == -1
        assert s32(0x7FFF_FFFF) == 0x7FFF_FFFF

    def test_field_helpers(self):
        from repro.utils import bit, bits, set_field

        assert bits(0xABCD, 15, 12) == 0xA
        assert bit(0b100, 2) == 1
        assert set_field(0, 7, 4, 0xF) == 0xF0
        assert set_field(0xFF, 7, 4, 0) == 0x0F

    def test_alignment_helpers(self):
        from repro.utils import align_down, is_aligned

        assert align_down(0x1237, 16) == 0x1230
        assert is_aligned(0x1000, 8)
        assert not is_aligned(0x1001, 2)

    def test_popcount_and_rotate(self):
        from repro.utils import popcount32, rotate_left32

        assert popcount32(0xFF00FF00) == 16
        assert rotate_left32(0x8000_0001, 1) == 3
        assert rotate_left32(0x1234_5678, 32) == 0x1234_5678

    def test_log2_exact(self):
        from repro.utils import log2_exact

        assert log2_exact(4096) == 12
        with pytest.raises(ValueError):
            log2_exact(3000)
        with pytest.raises(ValueError):
            log2_exact(0)


class TestRad:
    def test_programming_time_and_history(self):
        from repro.fpx.rad import SELECTMAP_BYTES_PER_SECOND, Rad

        rad = Rad()
        seconds = rad.program("a.bit", bitfile_bytes=1_000_000)
        assert seconds == pytest.approx(1_000_000 /
                                        SELECTMAP_BYTES_PER_SECOND)
        rad.program("b.bit")
        assert rad.reprogram_count == 2
        assert rad.bitfile_name == "b.bit"
        assert rad.total_programming_seconds > seconds
