"""Cycle-accounting tests for the LEON2 pipeline timing model."""

import pytest

from repro.cpu.decode import decode
from repro.cpu.isa import Op3, Op3Mem
from repro.cpu.pipeline import PipelineModel, TimingConfig
from repro.toolchain.asm import encoder

from tests.conftest import build, make_iu


def cycles_for(source_body: str) -> int:
    """Cycles consumed from _start to `done` on zero-wait flat memory."""
    source = f"""
    .text
    .global _start
_start:
{source_body}
done:
    ba done
    nop
"""
    image = build(source)
    iu, _ = make_iu(source)
    return iu.run(max_instructions=10_000, until_pc=image.symbols["done"])


class TestIssueCosts:
    def test_alu_op_is_one_cycle(self):
        model = PipelineModel()
        assert model.issue_cycles(decode(encoder.arith_reg(Op3.ADD, 1, 2, 3))) == 1

    def test_load_is_two_cycles(self):
        model = PipelineModel()
        assert model.issue_cycles(decode(encoder.ld_imm(1, 2, 0))) == 2

    def test_store_is_three_cycles(self):
        model = PipelineModel()
        assert model.issue_cycles(decode(encoder.st_imm(1, 2, 0))) == 3

    def test_ldd_three_std_four(self):
        model = PipelineModel()
        assert model.issue_cycles(decode(encoder.mem_imm(Op3Mem.LDD, 2, 1, 0))) == 3
        assert model.issue_cycles(decode(encoder.mem_imm(Op3Mem.STD, 2, 1, 0))) == 4

    def test_jmpl_two_cycles(self):
        model = PipelineModel()
        assert model.issue_cycles(decode(encoder.jmpl_imm(0, 15, 8))) == 2

    def test_mul_cost_configurable(self):
        iterative = PipelineModel(TimingConfig(mul_cycles=35))
        fast = PipelineModel(TimingConfig(mul_cycles=2))
        word = decode(encoder.arith_reg(Op3.UMUL, 1, 2, 3))
        assert iterative.issue_cycles(word) == 35
        assert fast.issue_cycles(word) == 2

    def test_div_cost(self):
        model = PipelineModel()
        assert model.issue_cycles(
            decode(encoder.arith_reg(Op3.UDIV, 1, 2, 3))) == 35

    def test_wrpsr_two_cycles(self):
        model = PipelineModel()
        assert model.issue_cycles(
            decode(encoder.arith_imm(Op3.WRPSR, 0, 0, 0xE0))) == 2

    def test_custom_op_cost(self):
        model = PipelineModel(TimingConfig(custom_op_cycles=3))
        assert model.issue_cycles(decode(encoder.cpop1(1, 5, 2, 3))) == 3


class TestLoadUseInterlock:
    def test_dependent_use_adds_bubble(self):
        model = PipelineModel()
        model.issue_cycles(decode(encoder.ld_imm(9, 8, 0)))   # ld -> %o1
        # add %o1, 1, %o2 immediately uses the load result.
        cost = model.issue_cycles(decode(encoder.arith_imm(Op3.ADD, 10, 9, 1)))
        assert cost == 2  # 1 + interlock

    def test_independent_instruction_no_bubble(self):
        model = PipelineModel()
        model.issue_cycles(decode(encoder.ld_imm(9, 8, 0)))
        cost = model.issue_cycles(decode(encoder.arith_imm(Op3.ADD, 12, 11, 1)))
        assert cost == 1

    def test_interlock_only_immediately_after(self):
        model = PipelineModel()
        model.issue_cycles(decode(encoder.ld_imm(9, 8, 0)))
        model.issue_cycles(decode(encoder.nop()))
        cost = model.issue_cycles(decode(encoder.arith_imm(Op3.ADD, 10, 9, 1)))
        assert cost == 1

    def test_store_data_dependency_counts(self):
        model = PipelineModel()
        model.issue_cycles(decode(encoder.ld_imm(9, 8, 0)))
        cost = model.issue_cycles(decode(encoder.st_imm(9, 10, 0)))
        assert cost == 4  # 3 + interlock

    def test_interlock_can_be_disabled(self):
        model = PipelineModel(TimingConfig(load_use_interlock=False))
        model.issue_cycles(decode(encoder.ld_imm(9, 8, 0)))
        cost = model.issue_cycles(decode(encoder.arith_imm(Op3.ADD, 10, 9, 1)))
        assert cost == 1

    def test_g0_load_never_interlocks(self):
        model = PipelineModel()
        model.issue_cycles(decode(encoder.ld_imm(0, 8, 0)))  # ld -> %g0
        cost = model.issue_cycles(decode(encoder.arith_reg(Op3.ADD, 1, 0, 0)))
        assert cost == 1


class TestEndToEndCycleCounts:
    def test_straightline_alu_sequence(self):
        # 4 ALU ops at 1 cycle each.
        assert cycles_for("""
    mov 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
""") == 4

    def test_annulled_slot_costs_one_cycle(self):
        taken = cycles_for("""
    ba,a over
    nop
over:
    nop
""")
        # ba(1) + annulled slot(1) + nop(1)
        assert taken == 3

    def test_loop_cycle_count_deterministic(self):
        first = cycles_for("""
    mov 10, %o1
loop:
    deccc %o1
    bne loop
    nop
""")
        second = cycles_for("""
    mov 10, %o1
loop:
    deccc %o1
    bne loop
    nop
""")
        assert first == second
        # mov + 10 * (deccc + bne + nop)
        assert first == 1 + 10 * 3

    def test_cycles_accumulate_on_iu(self):
        source = """
    .text
    .global _start
_start:
    mov 1, %o0
done:
    ba done
    nop
"""
        image = build(source)
        iu, _ = make_iu(source)
        consumed = iu.run(max_instructions=100,
                          until_pc=image.symbols["done"])
        assert iu.cycles == consumed
        assert iu.instret == 1


# -- issue plans vs. an unmemoized reference -----------------------------

_REF_LOADS = {0x00, 0x01, 0x02, 0x09, 0x0A, 0x10, 0x11, 0x12, 0x19, 0x1A}
_REF_LOADS_D = {0x03, 0x13}
_REF_STORES = {0x04, 0x05, 0x06, 0x14, 0x15, 0x16}
_REF_STORES_D = {0x07, 0x17}


def reference_base_cycles(timing: TimingConfig, inst) -> int:
    """LEON2 issue cost straight from the instruction-timing table."""
    if inst.op == 1:
        return timing.call_cycles
    if inst.op == 0:
        return timing.branch_cycles if inst.op2 == 2 else timing.alu_cycles
    op3 = inst.op3
    if inst.op == 3:
        if op3 in _REF_LOADS:
            return timing.load_cycles
        if op3 in _REF_LOADS_D:
            return timing.load_double_cycles
        if op3 in _REF_STORES:
            return timing.store_cycles
        if op3 in _REF_STORES_D:
            return timing.store_double_cycles
        if op3 in (0x0D, 0x1D):
            return timing.atomic_cycles
        if op3 in (0x0F, 0x1F):
            return timing.swap_cycles
        return timing.alu_cycles
    return {
        0x38: timing.jmpl_cycles, 0x39: timing.rett_cycles,
        0x0A: timing.mul_cycles, 0x1A: timing.mul_cycles,
        0x0B: timing.mul_cycles, 0x1B: timing.mul_cycles,
        0x0E: timing.div_cycles, 0x1E: timing.div_cycles,
        0x0F: timing.div_cycles, 0x1F: timing.div_cycles,
        0x31: timing.wrpsr_cycles, 0x32: timing.wrpsr_cycles,
        0x33: timing.wrpsr_cycles,
        0x36: timing.custom_op_cycles, 0x37: timing.custom_op_cycles,
    }.get(op3, timing.alu_cycles)


def reference_reads(inst, reg: int) -> bool:
    if inst.op in (0, 1) or reg == 0:
        return False
    if inst.rs1 == reg or (not inst.imm and inst.rs2 == reg):
        return True
    return (inst.op == 3 and inst.op3 in _REF_STORES | _REF_STORES_D
            and inst.rd == reg)


def reference_costs(timing: TimingConfig, insts) -> tuple[list[int], int]:
    """Per-instruction issue cycles and total interlock stalls, derived
    afresh for every instruction (no table, no memo)."""
    costs, stalls, last_load_rd = [], 0, None
    for inst in insts:
        cycles = reference_base_cycles(timing, inst)
        if (timing.load_use_interlock and last_load_rd is not None
                and reference_reads(inst, last_load_rd)):
            cycles += 1
            stalls += 1
        last_load_rd = None
        if inst.op == 3 and inst.op3 in _REF_LOADS:
            last_load_rd = inst.rd
        elif inst.op == 3 and inst.op3 in _REF_LOADS_D:
            last_load_rd = inst.rd + 1
        costs.append(cycles)
    return costs, stalls


def _image_words() -> list[int]:
    from repro.workloads import all_workloads

    words = set()
    for workload in all_workloads(include_long=True):
        for data in workload.image().segments.values():
            words.update(int.from_bytes(data[i:i + 4], "big")
                         for i in range(0, len(data) - 3, 4))
    return sorted(words)


def _timings() -> dict[str, TimingConfig]:
    from repro.core.config import ArchitectureConfig

    return {
        "stock": TimingConfig(),
        "16x16": ArchitectureConfig(multiplier="16x16").timing(),
        "iterative": ArchitectureConfig(multiplier="iterative").timing(),
        "no-interlock": TimingConfig(load_use_interlock=False),
    }


def _sequences(words: list[int]) -> list[list]:
    """Image order, plus seeded sequences of random contiguous runs (so
    loads still meet the consumers the compiler placed after them)."""
    import random

    decoded = [decode(word) for word in words]
    sequences = [decoded]
    for seed in range(3):
        rng = random.Random(seed)
        sequence = []
        while len(sequence) < 5000:
            start = rng.randrange(len(decoded))
            sequence.extend(decoded[start:start + rng.randint(1, 12)])
            sequence.append(rng.choice(decoded))
        sequences.append(sequence)
    return sequences


class TestIssuePlans:
    @pytest.fixture(scope="class")
    def sequences(self):
        return _sequences(_image_words())

    @pytest.mark.parametrize("name", sorted(_timings()))
    def test_matches_unmemoized_reference(self, sequences, name):
        timing = _timings()[name]
        total_stalls = 0
        for sequence in sequences:
            model = PipelineModel(timing)
            got = [model.issue_cycles(inst) for inst in sequence]
            expected, stalls = reference_costs(timing, sequence)
            assert got == expected
            assert model.interlock_stalls == stalls
            total_stalls += stalls
        # The sequences do exercise the interlock.
        assert (total_stalls > 0) == timing.load_use_interlock

    def test_models_with_different_timings_never_share_plans(
            self, sequences):
        timings = _timings()
        models = {name: PipelineModel(t) for name, t in timings.items()}
        sequence = sequences[1]
        got = {name: [] for name in models}
        for inst in sequence:  # interleaved: every word warms every model
            for name, model in models.items():
                got[name].append(model.issue_cycles(inst))
        for name, timing in timings.items():
            assert got[name] == reference_costs(timing, sequence)[0]
        assert got["16x16"] != got["iterative"]
        assert got["stock"] != got["no-interlock"]

    def test_clearing_at_capacity_changes_nothing(self, sequences,
                                                  monkeypatch):
        monkeypatch.setattr(PipelineModel, "PLAN_CAPACITY", 16)
        timing = TimingConfig()
        sequence = sequences[2]
        model = PipelineModel(timing)
        got = []
        for inst in sequence:
            got.append(model.issue_cycles(inst))
            assert len(model._plans) <= 16
        expected, stalls = reference_costs(timing, sequence)
        assert got == expected
        assert model.interlock_stalls == stalls
