"""Trap entry, state registers, Ticc, interrupts, custom instructions."""

import pytest

from repro.cpu import traps
from repro.cpu.iu import INTERRUPT_TRAP_BASE
from repro.cpu.isa import Trap

from tests.conftest import CODE_BASE, RAM_BASE, build, make_iu, run_source

from .test_execute import regval

TRAP_TABLE = RAM_BASE + 0x10000


def iu_with_trap_table(body: str, handlers: str = "") -> tuple:
    """An IU with traps enabled and a trap table in RAM."""
    table_entries = []
    for tt in range(256):
        table_entries.append("    ba default_handler")
        table_entries.append("    nop")
        table_entries.append("    nop")
        table_entries.append("    nop")
    source = f"""
    .text
    .global _start
_start:
{body}
done:
    ba done
    nop
{handlers}
default_handler:
    ba default_handler
    nop
"""
    image = build(source)
    iu, mem = make_iu(source)
    # Minimal table: every entry branches to a per-test handler label.
    return iu, mem, image


class TestTrapEntry:
    def test_trap_entry_sequence(self):
        """ET<-0, PS<-S, S<-1, CWP decremented, l1/l2 = PC/nPC."""
        source = """
    .text
    .global _start
_start:
    ta 0x10
trap_site:
    nop
"""
        image = build(source)
        iu, mem = make_iu(source)
        iu.ctrl.et = True
        iu.ctrl.tba = 0x40020000
        old_cwp = iu.ctrl.cwp
        iu.step()  # executes ta -> trap
        assert not iu.ctrl.et
        assert iu.ctrl.s and iu.ctrl.ps
        assert iu.ctrl.cwp == (old_cwp - 1) % 8
        assert iu.ctrl.tt == 0x80 + 0x10
        # %l1/%l2 of the new window hold PC and nPC of the trap point.
        assert iu.regs.read(17) == image.entry
        assert iu.regs.read(18) == image.entry + 4
        # Vector = TBA | tt << 4.
        assert iu.pc == 0x40020000 | ((0x80 + 0x10) << 4)

    def test_trap_with_et0_halts_in_error_mode(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    ta 0
""")
        assert not iu.ctrl.et
        with pytest.raises(traps.ErrorMode):
            iu.run(max_instructions=5)
        assert iu.halted
        assert iu.error_tt == 0x80

    def test_stepping_after_error_mode_raises(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    ta 0
""")
        with pytest.raises(traps.ErrorMode):
            iu.run(max_instructions=5)
        with pytest.raises(traps.ErrorMode):
            iu.step()

    def test_conditional_trap_not_taken(self):
        assert regval("""
    mov 1, %o1
    cmp %o1, 2
    te 3                  ! equal? no -> no trap
    mov 42, %o0
""") == 42

    def test_illegal_instruction_trap(self):
        iu, mem = make_iu()
        mem.write_word(CODE_BASE, 0x00000000)  # UNIMP
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.ILLEGAL_INSTRUCTION

    def test_fp_op_raises_fp_disabled(self):
        iu, mem = make_iu()
        # FBfcc encoding: op=0, op2=6
        mem.write_word(CODE_BASE, (0 << 30) | (6 << 22))
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.FP_DISABLED

    def test_instruction_fetch_fault(self):
        iu, mem = make_iu("""
    .text
    .global _start
_start:
    set 0x99000000, %o1
    jmp %o1
    nop
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=10)
        assert err.value.tt == Trap.INSTRUCTION_ACCESS

    def test_rett_returns_and_reenables_traps(self):
        """Full trap round-trip through a real handler."""
        source = f"""
    .text
    .global _start
_start:
    wr %g0, 0xc0, %psr    ! S|PS, ET=0
    nop
    nop
    nop
    set handler_table, %g1
    wr %g1, 0, %tbr
    nop
    nop
    nop
    wr %g0, 0xe0, %psr    ! enable traps
    nop
    nop
    nop
    mov 0, %o0
    ta 1
    mov 42, %o0           ! must execute after rett
done:
    ba done
    nop

    .align 4096
handler_table:
    .skip {0x81 * 16}
handler_entry:            ! entry for tt=0x81
    jmpl %l2, %g0         ! return to nPC (instruction after ta)
    rett %l2 + 4
"""
        image = build(source)
        iu, mem = make_iu(source)
        iu.run(max_instructions=200, until_pc=image.symbols["done"])
        assert iu.regs.read(8) == 42
        assert iu.ctrl.et  # traps re-enabled by rett

    def test_rett_with_et1_is_illegal(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    rett %o7
""")
        iu.ctrl.et = True
        # illegal_instruction trap -> vectors (tba=0 unmapped in flat RAM)
        with pytest.raises(traps.TrapException) as excinfo:
            from repro.cpu.execute import exec_rett
            from repro.cpu.decode import decode
            from repro.toolchain.asm import encoder
            from repro.cpu.isa import Op3
            exec_rett(iu, decode(encoder.arith_imm(Op3.RETT, 0, 15, 0)))
        assert excinfo.value.tt == Trap.ILLEGAL_INSTRUCTION


class TestStateRegisters:
    def test_rd_wr_y(self):
        assert regval("""
    set 0xCAFE, %o1
    wr %o1, 0, %y
    nop
    nop
    nop
    rd %y, %o0
""") == 0xCAFE

    def test_wr_xors_operands(self):
        """WRY writes rs1 ^ operand2 (SPARC's quirky XOR semantics)."""
        assert regval("""
    mov 0xF0, %o1
    wr %o1, 0x0F, %y
    nop
    nop
    nop
    rd %y, %o0
""") == 0xFF

    def test_rd_psr_reflects_icc(self):
        result = regval("""
    mov 0, %o1
    subcc %o1, 1, %g0     ! N=1, C=1
    rd %psr, %o0
""")
        assert (result >> 23) & 1 == 1  # N
        assert (result >> 20) & 1 == 1  # C

    def test_wr_psr_cwp_out_of_range_is_illegal(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    wr %g0, 0xdf, %psr    ! CWP=31 > NWINDOWS-1
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.ILLEGAL_INSTRUCTION

    def test_wim_masked_to_nwindows(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    set 0xffffffff, %o1
    wr %o1, 0, %wim
    nop
    nop
    nop
    rd %wim, %o0
done:
    ba done
    nop
""")
        assert iu.regs.read(8) == 0xFF  # 8 windows

    def test_rd_tbr_after_wr(self):
        assert regval("""
    set 0x40030000, %o1
    wr %o1, 0, %tbr
    nop
    nop
    nop
    rd %tbr, %o0
""") == 0x4003_0000

    def test_asr17_reports_nwindows(self):
        assert regval("    rd %asr17, %o0") == 7  # NWINDOWS-1

    def test_impl_defined_asr_roundtrip(self):
        assert regval("""
    mov 0x5a, %o1
    wr %o1, 0, %asr20
    rd %asr20, %o0
""") == 0x5A

    def test_privileged_reads_trap_in_user_mode(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    rd %psr, %o0
""")
        iu.ctrl.s = False
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.PRIVILEGED_INSTRUCTION


class TestInterrupts:
    def _iu(self, level_source):
        source = """
    .text
    .global _start
_start:
    nop
    nop
    nop
    nop
done:
    ba done
    nop
"""
        iu, mem = make_iu(source)
        iu.ctrl.et = True
        iu.ctrl.tba = RAM_BASE + 0x40000
        iu.interrupt_source = level_source
        return iu

    def test_interrupt_above_pil_taken(self):
        iu = self._iu(lambda: 5)
        iu.ctrl.pil = 3
        iu.step()
        assert iu.ctrl.tt == INTERRUPT_TRAP_BASE + 5

    def test_interrupt_at_or_below_pil_masked(self):
        iu = self._iu(lambda: 5)
        iu.ctrl.pil = 5
        iu.step()
        assert iu.ctrl.et  # no trap taken

    def test_level_15_not_maskable(self):
        iu = self._iu(lambda: 15)
        iu.ctrl.pil = 15
        iu.step()
        assert iu.ctrl.tt == INTERRUPT_TRAP_BASE + 15

    def test_no_interrupts_while_et0(self):
        iu = self._iu(lambda: 7)
        iu.ctrl.et = False
        iu.step()
        assert iu.instret == 1  # executed normally


class TestCustomInstructions:
    def test_unregistered_cpop_raises_cp_disabled(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    custom 1, %o1, %o2, %o0
""")
        with pytest.raises(traps.ErrorMode) as err:
            iu.run(max_instructions=5)
        assert err.value.tt == Trap.CP_DISABLED

    def test_registered_extension_executes(self):
        source = """
    .text
    .global _start
_start:
    mov 21, %o1
    mov 2, %o2
    custom 7, %o1, %o2, %o0
done:
    ba done
    nop
"""
        image = build(source)
        iu, _ = make_iu(source)
        iu.extensions[7] = lambda unit, inst: unit.regs.write(
            inst.rd, unit.regs.read(inst.rs1) * unit.regs.read(inst.rs2))
        iu.run(max_instructions=20, until_pc=image.symbols["done"])
        assert iu.regs.read(8) == 42


class TestRunControl:
    def test_watchdog_expires(self):
        iu, _ = make_iu("""
    .text
    .global _start
_start:
    ba _start
    nop
""")
        with pytest.raises(traps.WatchdogExpired):
            iu.run(max_instructions=100, until_pc=0xDEAD0000)

    def test_reset_restores_initial_state(self):
        iu, _, _ = run_source("""
    .text
    .global _start
_start:
    mov 9, %o0
    save %sp, -96, %sp
done:
    ba done
    nop
""")
        assert iu.cycles > 0
        iu.reset()
        assert iu.cycles == 0
        assert iu.instret == 0
        assert iu.ctrl.cwp == 0
        assert iu.regs.read(8) == 0

    def test_state_summary_keys(self):
        iu, _ = make_iu()
        summary = iu.state_summary()
        for key in ("pc", "npc", "psr", "cwp", "wim", "y", "cycles",
                    "instret", "halted", "regs"):
            assert key in summary
