"""Branches, delay slots, annulment, CALL/JMPL, SAVE/RESTORE."""

import pytest

from repro.cpu import traps
from repro.cpu.isa import Trap

from tests.conftest import make_iu, run_source

from .test_execute import regval


class TestBranches:
    def test_taken_branch_executes_delay_slot(self):
        assert regval("""
    mov 0, %o0
    ba target
    mov 1, %o0            ! delay slot runs
    mov 99, %o0           ! skipped
target:
""") == 1

    def test_untaken_branch_falls_through(self):
        assert regval("""
    mov 1, %o1
    cmp %o1, 2
    be target
    nop
    mov 7, %o0
    ba done
    nop
target:
    mov 9, %o0
""") == 7

    def test_ba_annul_skips_delay_slot(self):
        assert regval("""
    mov 5, %o0
    ba,a target
    mov 99, %o0           ! annulled: must NOT execute
target:
""") == 5

    def test_conditional_taken_with_annul_executes_slot(self):
        assert regval("""
    mov 1, %o1
    cmp %o1, 1
    be,a target
    mov 42, %o0           ! taken + annul bit: slot executes
    mov 99, %o0
target:
""") == 42

    def test_conditional_untaken_with_annul_skips_slot(self):
        assert regval("""
    mov 0, %o0
    mov 1, %o1
    cmp %o1, 2
    be,a target
    mov 99, %o0           ! untaken + annul: slot skipped
    mov 7, %o0
target:
""") == 7

    def test_bn_never_taken(self):
        assert regval("""
    mov 1, %o0
    bn target
    nop
    mov 2, %o0
    ba done
    nop
target:
    mov 3, %o0
""") == 2

    @pytest.mark.parametrize("a,b,branch,taken", [
        (1, 2, "bl", True), (2, 1, "bl", False), (1, 1, "bl", False),
        (1, 2, "ble", True), (1, 1, "ble", True), (2, 1, "ble", False),
        (2, 1, "bg", True), (1, 1, "bg", False),
        (2, 1, "bge", True), (1, 1, "bge", True), (1, 2, "bge", False),
        (1, 2, "bne", True), (1, 1, "bne", False),
        (1, 1, "be", True), (1, 2, "be", False),
    ])
    def test_signed_conditions(self, a, b, branch, taken):
        result = regval(f"""
    mov 0, %o0
    set {a & 0xFFFFFFFF}, %o1
    set {b & 0xFFFFFFFF}, %o2
    cmp %o1, %o2
    {branch} yes
    nop
    ba done
    nop
yes:
    mov 1, %o0
""")
        assert bool(result) == taken

    @pytest.mark.parametrize("a,b,branch,taken", [
        (0xFFFFFFFF, 1, "bgu", True),     # unsigned: big > 1
        (0xFFFFFFFF, 1, "bl", True),      # signed: -1 < 1
        (1, 0xFFFFFFFF, "blu", True),
        (1, 0xFFFFFFFF, "bg", True),
        (5, 5, "bleu", True),
        (5, 5, "bgeu", True),
        (4, 5, "bgeu", False),
    ])
    def test_unsigned_vs_signed_conditions(self, a, b, branch, taken):
        result = regval(f"""
    mov 0, %o0
    set {a}, %o1
    set {b}, %o2
    cmp %o1, %o2
    {branch} yes
    nop
    ba done
    nop
yes:
    mov 1, %o0
""")
        assert bool(result) == taken

    def test_negative_overflow_conditions(self):
        # bvs after signed overflow
        assert regval("""
    mov 0, %o0
    set 0x7fffffff, %o1
    addcc %o1, 1, %o2
    bvs yes
    nop
    ba done
    nop
yes:
    mov 1, %o0
""") == 1

    def test_backward_branch_loop(self):
        assert regval("""
    mov 0, %o0
    mov 10, %o1
loop:
    add %o0, 2, %o0
    deccc %o1
    bne loop
    nop
""") == 20


class TestCallJmpl:
    def test_call_sets_o7(self):
        iu, _, syms = run_source("""
    .text
    .global _start
_start:
    call sub
    nop
done:
    ba done
    nop
sub:
    retl
    nop
""")
        # %o7 holds the address of the call instruction itself.
        assert iu.regs.read(15) == syms["_start"]

    def test_retl_returns_past_delay_slot(self):
        assert regval("""
    mov 0, %o0
    call sub
    nop
    add %o0, 1, %o0       ! executes after return
    ba done
    nop
sub:
    retl
    mov 10, %o0
""") == 11

    def test_jmpl_indirect_jump(self):
        assert regval("""
    set target, %o1
    jmp %o1
    nop
    mov 99, %o0
target:
    mov 3, %o0
""") == 3

    def test_jmpl_misaligned_target_traps(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    set done + 2, %o1
    jmp %o1
    nop
done:
    nop
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=10)
        assert err.value.tt == Trap.MEM_ADDRESS_NOT_ALIGNED

    def test_call_register_form_via_o7(self):
        assert regval("""
    set sub, %o1
    call %o1
    nop
    ba done
    nop
sub:
    retl
    mov 21, %o0
""") == 21


class TestSaveRestore:
    def test_save_shifts_outs_to_ins(self):
        assert regval("""
    mov 77, %o1
    save %sp, -96, %sp
    mov %i1, %l0
    restore %l0, 0, %o0
""") == 77

    def test_save_computes_sum_in_new_window(self):
        """SAVE reads rs1/rs2 in the OLD window, writes rd in the NEW."""
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    set 0x40080000, %sp
    save %sp, -104, %sp
done:
    ba done
    nop
""")
        assert iu.regs.read(14) == 0x40080000 - 104  # new %sp
        assert iu.regs.read(30) == 0x40080000        # %fp = old %sp

    def test_restore_returns_to_previous_window(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 5, %l0
    save %sp, -96, %sp
    mov 6, %l0
    restore
done:
    ba done
    nop
""")
        assert iu.regs.read(16) == 5  # %l0 of the original window

    def test_save_overflow_traps_when_wim_blocks(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    save %sp, -96, %sp
""")
        iu.ctrl.wim = 1 << 7  # window 7 invalid; save from 0 goes to 7
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.WINDOW_OVERFLOW

    def test_restore_underflow_traps(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    restore
""")
        iu.ctrl.wim = 1 << 1  # window 1 invalid; restore from 0 goes to 1
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.WINDOW_UNDERFLOW
