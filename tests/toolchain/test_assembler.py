"""Assembler tests: syntax, directives, synthetics, errors, fix-ups."""

import pytest

from repro.cpu.decode import decode
from repro.cpu.isa import Cond, Op3, Op3Mem
from repro.toolchain.asm import AssemblyError, assemble
from repro.toolchain.asm.parser import (
    parse_address,
    parse_expr,
    parse_register,
    split_operands,
)
from repro.toolchain.linker import MemoryMapScript, link


def words_of(source: str, section: str = ".text") -> list[int]:
    obj = assemble(source)
    data = obj.sections[section].data
    return [int.from_bytes(data[i:i + 4], "big")
            for i in range(0, len(data), 4)]


def one(source: str) -> int:
    words = words_of(source)
    assert len(words) == 1, f"expected one instruction, got {len(words)}"
    return words[0]


class TestRegisterParsing:
    @pytest.mark.parametrize("name,number", [
        ("%g0", 0), ("%g7", 7), ("%o0", 8), ("%o7", 15),
        ("%l0", 16), ("%l7", 23), ("%i0", 24), ("%i7", 31),
        ("%sp", 14), ("%fp", 30), ("%r17", 17), ("%R5", 5),
    ])
    def test_names(self, name, number):
        assert parse_register(name) == number

    @pytest.mark.parametrize("bad", ["%g8", "%o9", "%r32", "%x1", "g0"])
    def test_bad_names(self, bad):
        with pytest.raises(ValueError):
            parse_register(bad)


class TestExpressions:
    @pytest.mark.parametrize("text,value", [
        ("42", 42), ("0x1F", 31), ("0b101", 5), ("'A'", 65), ("'\\n'", 10),
        ("1 + 2 * 3", 7), ("(1 + 2) * 3", 9), ("-5", -5), ("~0", -1),
        ("1 << 10", 1024), ("0xFF & 0x0F", 0x0F), ("10 - 3 - 2", 5),
    ])
    def test_constants(self, text, value):
        expr = parse_expr(text)
        assert expr.constant() == value

    def test_symbol_plus_constant(self):
        expr = parse_expr("label + 8")
        assert expr.symbol == "label"
        assert expr.addend == 8

    def test_two_symbols_rejected(self):
        with pytest.raises(ValueError):
            parse_expr("a + b")

    def test_symbol_in_multiplication_rejected(self):
        with pytest.raises(ValueError):
            parse_expr("label * 2")


class TestOperandSplitting:
    def test_commas_inside_brackets_preserved(self):
        assert split_operands("%o0, [%o1 + %o2], %o3") == \
            ["%o0", "[%o1 + %o2]", "%o3"]

    def test_strings_with_commas(self):
        assert split_operands('"a,b", 2') == ['"a,b"', "2"]

    def test_address_forms(self):
        mem = parse_address("%o1 + 8")
        assert (mem.rs1, mem.rs2, mem.expr.addend) == (9, None, 8)
        mem = parse_address("[%o1 - 4]")
        assert mem.expr.addend == -4
        mem = parse_address("%o1 + %o2")
        assert (mem.rs1, mem.rs2) == (9, 10)


class TestEncodings:
    def test_add_reg(self):
        inst = decode(one("add %o0, %o1, %o2"))
        assert inst.op3 == Op3.ADD
        assert (inst.rs1, inst.rs2, inst.rd) == (8, 9, 10)

    def test_add_imm_negative(self):
        inst = decode(one("add %o0, -1, %o0"))
        assert inst.imm and inst.simm13 == -1

    def test_immediate_out_of_range(self):
        with pytest.raises(AssemblyError):
            assemble("add %o0, 5000, %o0")

    def test_load_store_forms(self):
        assert decode(one("ld [%o0], %o1")).op3 == Op3Mem.LD
        assert decode(one("st %o1, [%o0 + 4]")).simm13 == 4
        assert decode(one("ldub [%o0 + %o1], %o2")).op3 == Op3Mem.LDUB
        assert decode(one("std %o2, [%o0]")).op3 == Op3Mem.STD

    def test_alternate_space_load(self):
        inst = decode(one("lda [%o0] 0xb, %o1"))
        assert inst.op3 == Op3Mem.LDA
        assert inst.asi == 0x0B

    def test_sethi_hi(self):
        image = link([assemble("""
    .global _start
_start:
    sethi %hi(0x40001234), %o0
    or %o0, %lo(0x40001234), %o0
""")], MemoryMapScript.default(0x100))
        words = list(image.segments.values())[0]
        first = int.from_bytes(words[:4], "big")
        second = int.from_bytes(words[4:8], "big")
        assert decode(first).imm22 == 0x40001234 >> 10
        assert decode(second).simm13 == 0x40001234 & 0x3FF

    def test_branch_annul_bit(self):
        assert decode(one("bne,a somewhere\nsomewhere:")).annul
        assert not decode(one("bne somewhere\nsomewhere:")).annul

    def test_branch_displacement_backward(self):
        words = words_of("""
target:
    nop
    ba target
""")
        inst = decode(words[1])
        assert inst.disp22 == -1  # one word back

    def test_trap_instruction(self):
        inst = decode(one("ta 0x10"))
        assert inst.op3 == Op3.TICC
        assert inst.cond == Cond.A
        assert inst.simm13 == 0x10

    def test_custom_instruction(self):
        inst = decode(one("custom 5, %o0, %o1, %o2"))
        assert inst.op3 == Op3.CPOP1
        assert inst.opf == 5

    def test_state_register_access(self):
        assert decode(one("rd %psr, %o0")).op3 == Op3.RDPSR
        assert decode(one("wr %g0, 0xe0, %psr")).op3 == Op3.WRPSR
        assert decode(one("rd %asr17, %o0")).rs1 == 17

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError) as err:
            assemble("frobnicate %o0")
        assert "frobnicate" in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as err:
            assemble("nop\nnop\nbadop %o0\n")
        assert err.value.line == 3


class TestSynthetics:
    def test_nop(self):
        assert one("nop") == 0x01000000

    def test_mov_forms(self):
        assert decode(one("mov 5, %o0")).op3 == Op3.OR
        assert decode(one("mov %o1, %o0")).rs2 == 9
        assert decode(one("mov %y, %o0")).op3 == Op3.RDASR
        assert decode(one("mov %o0, %y")).op3 == Op3.WRASR

    def test_cmp_tst(self):
        inst = decode(one("cmp %o0, 3"))
        assert inst.op3 == Op3.SUBCC and inst.rd == 0
        inst = decode(one("tst %o1"))
        assert inst.op3 == Op3.ORCC and inst.rd == 0

    def test_set_small_constant_one_instruction(self):
        assert len(words_of("set 100, %o0")) == 1
        assert len(words_of("set -50, %o0")) == 1

    def test_set_large_constant_two_instructions(self):
        words = words_of("set 0x12345678, %o0")
        assert len(words) == 2

    def test_set_aligned_constant_sethi_only(self):
        words = words_of("set 0x40000000, %o0")
        assert len(words) == 1
        assert decode(words[0]).op2 == 4  # SETHI

    def test_ret_retl(self):
        inst = decode(one("ret"))
        assert (inst.rs1, inst.simm13) == (31, 8)
        inst = decode(one("retl"))
        assert (inst.rs1, inst.simm13) == (15, 8)

    def test_clr_register_and_memory(self):
        assert decode(one("clr %o0")).op3 == Op3.OR
        assert decode(one("clr [%o1]")).op3 == Op3Mem.ST

    def test_inc_dec(self):
        inst = decode(one("inc %o0"))
        assert inst.op3 == Op3.ADD and inst.simm13 == 1
        inst = decode(one("dec 4, %o1"))
        assert inst.op3 == Op3.SUB and inst.simm13 == 4

    def test_neg_not(self):
        inst = decode(one("neg %o0"))
        assert inst.op3 == Op3.SUB and inst.rs1 == 0
        inst = decode(one("not %o1, %o2"))
        assert inst.op3 == Op3.XNOR

    def test_bset_bclr_btst(self):
        assert decode(one("bset 4, %o0")).op3 == Op3.OR
        assert decode(one("bclr 4, %o0")).op3 == Op3.ANDN
        assert decode(one("btst 4, %o0")).op3 == Op3.ANDCC

    def test_save_restore_bare(self):
        assert decode(one("save")).op3 == Op3.SAVE
        assert decode(one("restore")).op3 == Op3.RESTORE


class TestDirectives:
    def test_word_data(self):
        obj = assemble("""
    .data
values: .word 1, 2, 0x30
""")
        assert obj.sections[".data"].data == \
            b"\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x000"

    def test_byte_and_half(self):
        obj = assemble("""
    .data
    .byte 1, 2
    .half 0x0304
""")
        assert obj.sections[".data"].data == b"\x01\x02\x03\x04"

    def test_ascii_and_asciz(self):
        obj = assemble("""
    .data
    .ascii "ab"
    .asciz "cd"
""")
        assert obj.sections[".data"].data == b"abcd\x00"

    def test_string_escapes(self):
        obj = assemble('    .data\n    .asciz "a\\n\\t\\"b"')
        assert obj.sections[".data"].data == b'a\n\t"b\x00'

    def test_align_pads_with_zeros(self):
        obj = assemble("""
    .data
    .byte 1
    .align 4
    .word 2
""")
        assert obj.sections[".data"].data == \
            b"\x01\x00\x00\x00\x00\x00\x00\x02"

    def test_skip(self):
        obj = assemble("    .data\n    .skip 5, 0xAA")
        assert obj.sections[".data"].data == b"\xaa" * 5

    def test_set_defines_absolute(self):
        word = one("""
    .set BUFSIZE, 0x100
    mov BUFSIZE, %o0
""")
        assert decode(word).simm13 == 0x100

    def test_global_marks_symbol(self):
        obj = assemble("""
    .global entry
entry:
    nop
""")
        assert obj.symbols["entry"].is_global

    def test_global_forward_reference(self):
        obj = assemble("""
    .global entry
    nop
entry:
    nop
""")
        assert obj.symbols["entry"].is_global

    def test_duplicate_label_rejected(self):
        with pytest.raises(Exception):
            assemble("x:\n    nop\nx:\n    nop")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError):
            assemble("    .frobnicate 1")

    def test_comments_stripped(self):
        words = words_of("""
    nop            ! line comment
    # full-line comment
    nop
""")
        assert len(words) == 2
