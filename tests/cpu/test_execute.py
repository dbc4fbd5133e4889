"""Instruction-semantics tests: each exercises one behaviour through
real assembled SPARC code running on the integer unit."""

import pytest

from repro.cpu import traps
from repro.cpu.isa import Trap
from repro.utils import u32

from tests.conftest import make_iu, run_source


def regval(source_body: str, reg: str = "%o0", **kwargs) -> int:
    """Run a fragment and return a register value at the `done` label."""
    source = f"""
    .text
    .global _start
_start:
{source_body}
done:
    ba done
    nop
"""
    iu, _mem, _syms = run_source(source, **kwargs)
    from repro.toolchain.asm.parser import parse_register

    return iu.regs.read(parse_register(reg))


class TestArithmetic:
    def test_add(self):
        assert regval("    mov 20, %o1\n    add %o1, 22, %o0") == 42

    def test_add_register_operands(self):
        assert regval("""
    mov 100, %o1
    mov 55, %o2
    add %o1, %o2, %o0""") == 155

    def test_add_wraps_32_bits(self):
        assert regval("""
    set 0xffffffff, %o1
    add %o1, 1, %o0""") == 0

    def test_sub(self):
        assert regval("    mov 50, %o1\n    sub %o1, 8, %o0") == 42

    def test_sub_negative_result(self):
        assert regval("    mov 5, %o1\n    sub %o1, 9, %o0") == u32(-4)

    def test_addx_uses_carry(self):
        # 0xFFFFFFFF + 1 sets C; addx adds it in.
        assert regval("""
    set 0xffffffff, %o1
    addcc %o1, 1, %o2
    mov 10, %o3
    addx %o3, 0, %o0""") == 11

    def test_subx_borrows(self):
        # 0 - 1 sets C (borrow); subx subtracts it.
        assert regval("""
    mov 0, %o1
    subcc %o1, 1, %o2
    mov 10, %o3
    subx %o3, 0, %o0""") == 9

    def test_addcc_sets_zero_flag(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 5, %o1
    subcc %o1, 5, %g0
done:
    ba done
    nop
""")
        n, z, v, c = iu.ctrl.icc
        assert (n, z, v, c) == (0, 1, 0, 0)

    def test_addcc_overflow_flag(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    set 0x7fffffff, %o1
    addcc %o1, 1, %o0
done:
    ba done
    nop
""")
        n, z, v, c = iu.ctrl.icc
        assert v == 1 and n == 1 and c == 0

    def test_subcc_carry_is_borrow(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 3, %o1
    subcc %o1, 7, %o0
done:
    ba done
    nop
""")
        assert iu.ctrl.icc[3] == 1  # C = borrow


class TestLogicAndShifts:
    def test_and(self):
        assert regval("    set 0xff0f, %o1\n    and %o1, 0xf0, %o0") == 0x0
        assert regval("    set 0xffff, %o1\n    and %o1, 0xf0, %o0") == 0xF0

    def test_andn(self):
        assert regval("    set 0xff, %o1\n    andn %o1, 0x0f, %o0") == 0xF0

    def test_or_orn(self):
        assert regval("    mov 0x10, %o1\n    or %o1, 0x01, %o0") == 0x11
        assert regval("    mov 0, %o1\n    orn %o1, 0, %o0") == 0xFFFF_FFFF

    def test_xor_xnor(self):
        assert regval("    set 0xff, %o1\n    xor %o1, 0x0f, %o0") == 0xF0
        assert regval("""
    set 0xff, %o1
    xnor %o1, 0x0f, %o0""") == u32(~0xF0)

    def test_sll(self):
        assert regval("    mov 1, %o1\n    sll %o1, 12, %o0") == 0x1000

    def test_srl_is_logical(self):
        assert regval("""
    set 0x80000000, %o1
    srl %o1, 4, %o0""") == 0x0800_0000

    def test_sra_is_arithmetic(self):
        assert regval("""
    set 0x80000000, %o1
    sra %o1, 4, %o0""") == 0xF800_0000

    def test_shift_count_masked_to_5_bits(self):
        # shift by 33 behaves as shift by 1
        assert regval("""
    mov 2, %o1
    mov 33, %o2
    sll %o1, %o2, %o0""") == 4

    def test_logic_cc_clears_v_and_c(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    set 0x7fffffff, %o1
    addcc %o1, 1, %o2     ! sets V
    orcc %o1, 0, %o0
done:
    ba done
    nop
""")
        n, z, v, c = iu.ctrl.icc
        assert (v, c) == (0, 0)


class TestMultiplyDivide:
    def test_umul(self):
        assert regval("""
    mov 1000, %o1
    mov 1000, %o2
    umul %o1, %o2, %o0""") == 1_000_000

    def test_umul_writes_high_bits_to_y(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    set 0x10000, %o1
    umul %o1, %o1, %o2
    rd %y, %o0
done:
    ba done
    nop
""")
        assert iu.regs.read(8) == 1  # 2^32 >> 32

    def test_smul_signed(self):
        assert regval("""
    mov 100, %o1
    sub %g0, 3, %o2      ! -3
    smul %o1, %o2, %o0""") == u32(-300)

    def test_udiv(self):
        assert regval("""
    wr %g0, 0, %y
    nop
    nop
    nop
    mov 100, %o1
    udiv %o1, 7, %o0""") == 14

    def test_sdiv_truncates_toward_zero(self):
        assert regval("""
    sub %g0, 7, %o1       ! -7
    sra %o1, 31, %o2
    wr %o2, 0, %y
    nop
    nop
    nop
    mov 2, %o3
    sdiv %o1, %o3, %o0""") == u32(-3)

    def test_udiv_uses_y_as_high_bits(self):
        # Y:rs1 = 0x1_00000000; / 2 = 0x80000000
        assert regval("""
    wr %g0, 1, %y
    nop
    nop
    nop
    mov 0, %o1
    udiv %o1, 2, %o0""") == 0x8000_0000

    def test_udiv_overflow_saturates(self):
        # Y=2 gives quotient 2^33 / 2 > 32 bits: result clamps.
        assert regval("""
    wr %g0, 2, %y
    nop
    nop
    nop
    mov 0, %o1
    udiv %o1, 2, %o0""") == 0xFFFF_FFFF

    def test_division_by_zero_traps(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    mov 1, %o1
    udiv %o1, %g0, %o0
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=10)
        assert err.value.tt == Trap.DIVISION_BY_ZERO

    def test_mulscc_step_sequence_multiplies(self):
        """32 MULSCC steps compute a 32x32 multiply (the pre-UMUL idiom)."""
        body = """
    mov 13, %o1         ! multiplier -> Y
    wr %o1, 0, %y
    nop
    nop
    nop
    andcc %g0, %g0, %o2 ! clear partial product and flags
"""
        body += "    mulscc %o2, 11, %o2\n" * 32
        body += "    mulscc %o2, %g0, %o2\n    rd %y, %o0"
        assert regval(body) == 13 * 11


class TestTaggedArithmetic:
    def test_taddcc_sets_overflow_on_tag_bits(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 5, %o1            ! low 2 bits nonzero -> tagged overflow
    taddcc %o1, 4, %o0
done:
    ba done
    nop
""")
        assert iu.ctrl.icc[2] == 1  # V set

    def test_taddcctv_traps_on_tagged_value(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    mov 5, %o1
    taddcctv %o1, 4, %o0
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=10)
        assert err.value.tt == Trap.TAG_OVERFLOW

    def test_taddcc_clean_tags_no_overflow(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 4, %o1
    taddcc %o1, 8, %o0
done:
    ba done
    nop
""")
        assert iu.ctrl.icc[2] == 0
        assert iu.regs.read(8) == 12
