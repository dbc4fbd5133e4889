"""Interrupt delivery end to end: APB IRQ controller → IU trap → user
ISR → RETT, all in real SPARC code on the full platform."""

from repro.mem.memmap import APB_BASE, DEFAULT_MAP, IRQCTRL_OFFSET
from repro.net.protocol import LeonState
from repro.toolchain import assemble, link
from repro.toolchain.linker import MemoryMapScript
from repro.utils import s32

IRQ_MASK = APB_BASE + IRQCTRL_OFFSET + 0x4
IRQ_FORCE = APB_BASE + IRQCTRL_OFFSET + 0x8
IRQ_CLEAR = APB_BASE + IRQCTRL_OFFSET + 0xC

# A program with its own trap table in SRAM:
#  * installs TBR -> user_table (4 KB aligned),
#  * unmasks interrupt level 3 and forces it via the APB force register,
#  * the ISR bumps a counter, clears the line, and RETTs,
#  * main counts how many interrupts it saw.
INTERRUPT_PROGRAM = f"""
    .global _start
_start:
    set user_table, %g1
    wr %g1, 0, %tbr
    nop
    nop
    nop
    set counter, %g3
    st %g0, [%g3]

    set {IRQ_MASK}, %g1              ! unmask level 3
    mov 8, %g2
    st %g2, [%g1]

    set {IRQ_FORCE}, %g1             ! force level 3 three times
    mov 8, %g2
    st %g2, [%g1]
    nop
    nop
    st %g2, [%g1]
    nop
    nop
    st %g2, [%g1]
    nop
    nop

    set counter, %g3                 ! return the ISR count
    ld [%g3], %o0
    set {DEFAULT_MAP.result_addr}, %g1
    st %o0, [%g1]

    set {IRQ_MASK}, %g1              ! mask again before exiting: the
    st %g0, [%g1]                    ! boot ROM's table has no IRQ entry
    wr %g0, 0, %tbr                  ! restore the ROM trap table so the
    nop                              ! exit syscall vectors correctly
    nop
    nop
    ta 0
    nop

! ---- interrupt service routine (trap window context) ----------------------
isr_level3:
    set counter, %l4
    ld [%l4], %l5
    inc %l5
    st %l5, [%l4]
    set {IRQ_CLEAR}, %l4             ! acknowledge: clear pending bit
    mov 8, %l5
    st %l5, [%l4]
    jmpl %l1, %g0                    ! resume the interrupted instruction
    rett %l2

! ---- user trap table (reset unused; 0x13 = interrupt level 3) -------------
    .align 4096
user_table:
    .skip {0x13 * 16}
    ba isr_level3                    ! entry 0x13
    nop
    nop
    nop
    .skip {(256 - 0x13 - 1) * 16}

    .data
counter:
    .word 0
"""


class TestInterrupts:
    def test_three_forced_interrupts_serviced(self, platform, client):
        image = link([assemble(INTERRUPT_PROGRAM)],
                     MemoryMapScript.default(DEFAULT_MAP.program_base))
        result = client.run_image(image,
                                  result_addr=DEFAULT_MAP.result_addr)
        assert platform.leon_ctrl.state == LeonState.DONE
        assert s32(result.result_word) == 3
        assert platform.cpu.trap_count >= 3 + 1  # 3 IRQs + the exit ta 0

    def test_masked_interrupts_not_delivered(self, platform, client):
        program = INTERRUPT_PROGRAM.replace(
            "mov 8, %g2\n    st %g2, [%g1]\n\n    set "
            f"{IRQ_FORCE}", f"mov 0, %g2\n    st %g2, [%g1]\n\n    set "
            f"{IRQ_FORCE}")  # mask register written with 0
        image = link([assemble(program)],
                     MemoryMapScript.default(DEFAULT_MAP.program_base))
        result = client.run_image(image,
                                  result_addr=DEFAULT_MAP.result_addr)
        assert s32(result.result_word) == 0
