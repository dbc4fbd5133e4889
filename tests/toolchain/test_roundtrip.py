"""Encoder → disassembler → assembler round-trip property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.isa import Cond, Op3, Op3Mem
from repro.toolchain.asm import assemble, encoder
from repro.toolchain.disasm import disassemble, disassemble_block

regs = st.integers(min_value=0, max_value=31)
simm13s = st.integers(min_value=-4096, max_value=4095)

# The op3 values the disassembler renders as plain three-operand ALU text.
ALU_OP3S = [
    Op3.ADD, Op3.ADDCC, Op3.ADDX, Op3.ADDXCC, Op3.SUB, Op3.SUBCC,
    Op3.SUBX, Op3.SUBXCC, Op3.AND, Op3.ANDCC, Op3.ANDN, Op3.ANDNCC,
    Op3.OR, Op3.ORCC, Op3.ORN, Op3.ORNCC, Op3.XOR, Op3.XORCC,
    Op3.XNOR, Op3.XNORCC, Op3.SLL, Op3.SRL, Op3.SRA, Op3.UMUL,
    Op3.SMUL, Op3.UMULCC, Op3.SMULCC, Op3.UDIV, Op3.SDIV,
    Op3.TADDCC, Op3.TSUBCC, Op3.MULSCC, Op3.SAVE, Op3.RESTORE,
]

MEM_OP3S = [Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB, Op3Mem.LDSH,
            Op3Mem.LDD, Op3Mem.ST, Op3Mem.STB, Op3Mem.STH, Op3Mem.STD,
            Op3Mem.LDSTUB, Op3Mem.SWAP]


def reassemble(text: str) -> int:
    obj = assemble(text)
    data = obj.sections[".text"].data
    assert len(data) == 4, f"'{text}' assembled to {len(data)} bytes"
    return int.from_bytes(data[:4], "big")


class TestRoundTripProperties:
    @given(op3=st.sampled_from(ALU_OP3S), rd=regs, rs1=regs, rs2=regs)
    @settings(max_examples=200)
    def test_alu_register_roundtrip(self, op3, rd, rs1, rs2):
        word = encoder.arith_reg(op3, rd, rs1, rs2)
        # Skip words the disassembler prints as synthetics (save/restore
        # render canonically and survive, so no exclusions needed).
        text = disassemble(word)
        assert reassemble(text) == word

    @given(op3=st.sampled_from(ALU_OP3S), rd=regs, rs1=regs, imm=simm13s)
    @settings(max_examples=200)
    def test_alu_immediate_roundtrip(self, op3, rd, rs1, imm):
        word = encoder.arith_imm(op3, rd, rs1, imm)
        assert reassemble(disassemble(word)) == word

    @given(op3=st.sampled_from(MEM_OP3S), rd=regs, rs1=regs, imm=simm13s)
    @settings(max_examples=200)
    def test_memory_immediate_roundtrip(self, op3, rd, rs1, imm):
        word = encoder.mem_imm(op3, rd, rs1, imm)
        assert reassemble(disassemble(word)) == word

    @given(op3=st.sampled_from(MEM_OP3S), rd=regs, rs1=regs, rs2=regs)
    @settings(max_examples=200)
    def test_memory_register_roundtrip(self, op3, rd, rs1, rs2):
        word = encoder.mem_reg(op3, rd, rs1, rs2)
        assert reassemble(disassemble(word)) == word

    @given(rd=regs, imm22=st.integers(min_value=0, max_value=0x3FFFFF))
    @settings(max_examples=200)
    def test_sethi_roundtrip(self, rd, imm22):
        word = encoder.sethi(rd, imm22)
        assert reassemble(disassemble(word)) == word

    @given(rd=regs, opf=st.integers(0, 511), rs1=regs, rs2=regs)
    @settings(max_examples=100)
    def test_custom_roundtrip(self, rd, opf, rs1, rs2):
        word = encoder.cpop1(rd, opf, rs1, rs2)
        assert reassemble(disassemble(word)) == word

    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=300)
    def test_disassembler_total(self, word):
        """Every 32-bit word disassembles to *something* without raising."""
        text = disassemble(word)
        assert isinstance(text, str) and text


class TestSpecificRenderings:
    def test_nop(self):
        assert disassemble(encoder.nop()) == "nop"

    def test_ret_retl_synthetics(self):
        assert disassemble(encoder.jmpl_imm(0, 31, 8)) == "ret"
        assert disassemble(encoder.jmpl_imm(0, 15, 8)) == "retl"

    def test_branch_with_pc_shows_target(self):
        word = encoder.branch(int(Cond.A), 4)  # +16 bytes
        assert disassemble(word, pc=0x4000_1000) == "ba 0x40001010"

    def test_call_with_pc(self):
        word = encoder.call(-2)
        assert disassemble(word, pc=0x100) == "call 0xf8"

    def test_unimp(self):
        assert disassemble(0) == "unimp 0x0"

    def test_block_listing_format(self):
        block = encoder.nop().to_bytes(4, "big") * 2
        lines = disassemble_block(block, base=0x1000)
        assert lines[0].startswith("00001000:")
        assert "nop" in lines[0]

    def test_rd_wr_forms(self):
        from repro.cpu.isa import Op3 as O
        assert disassemble(encoder.fmt3_reg(2, 3, int(O.RDPSR), 0, 0)) == \
            "rd %psr, %g3"
        word = encoder.fmt3_imm(2, 0, int(O.WRASR), 0, 5)
        assert disassemble(word) == "wr %g0, 5, %y"

    def test_negative_offset_address(self):
        text = disassemble(encoder.mem_imm(Op3Mem.LD, 8, 30, -8))
        assert text == "ld [%fp - 8], %o0" or text == "ld [%i6 - 8], %o0"
