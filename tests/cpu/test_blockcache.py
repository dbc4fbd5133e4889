"""Unit tests for the basic-block translation cache.

Oracle: the plain :class:`FunctionalUnit` interpreter (and, for
architectural registers, the :class:`IntegerUnit`).  Every program runs
on a fresh interpreter and a fresh :class:`TranslatedUnit` over
identical memory; registers, control state, step counters and the full
RAM image must match exactly — the step-count contract is what makes
``fast_forward(N)`` engine-independent.
"""

from __future__ import annotations

import pytest

from repro.cpu import IntegerUnit, blockcache
from repro.cpu.blockcache import (MAX_BLOCK, STEP_RETIRED, STEP_TAKEN,
                                  RecordingUnit, Trace, TranslatedUnit,
                                  _Codegen)
from repro.cpu.fastpath import FastMemory, FunctionalUnit
from repro.cpu.traps import ErrorMode, WatchdogExpired
from repro.mem.interface import FlatMemory
from tests.conftest import RAM_BASE, RAM_SIZE, STACK_TOP, build
from tests.cpu.test_fastpath import SMALL_PROGRAM, _RecordingPort


def _make(source: str, cls, mmio_port=None, ram_size: int = RAM_SIZE):
    """A fresh engine of *cls* loaded with *source*; returns (unit, ram,
    image)."""
    image = build(source)
    buf = bytearray(ram_size)
    for base, blob in image.segments.items():
        buf[base - RAM_BASE:base - RAM_BASE + len(blob)] = blob
    mem = FastMemory()
    mem.add_region(RAM_BASE, buf, name="ram")
    if mmio_port is not None:
        mem.add_mmio(0x8000_0000, 0x100, mmio_port, name="apb")
    unit = cls(mem, reset_pc=image.entry)
    unit.regs.write(14, STACK_TOP)
    return unit, buf, image


def _assert_same_state(tu: TranslatedUnit, fu: FunctionalUnit,
                       tu_ram: bytearray, fu_ram: bytearray) -> None:
    for reg in range(32):
        assert tu.regs.read(reg) == fu.regs.read(reg), f"reg {reg}"
    assert tu.ctrl.psr == fu.ctrl.psr
    assert tu.ctrl.wim == fu.ctrl.wim
    assert tu.ctrl.tbr == fu.ctrl.tbr
    assert tu.ctrl.y == fu.ctrl.y
    assert (tu.pc, tu.npc, tu.annul) == (fu.pc, fu.npc, fu.annul)
    assert (tu.halted, tu.error_tt) == (fu.halted, fu.error_tt)
    assert tu.instret == fu.instret
    assert tu.cycles == fu.cycles
    assert tu.annulled_slots == fu.annulled_slots
    assert tu.trap_count == fu.trap_count
    assert tu_ram == fu_ram


def _run_pair(source: str, max_instructions: int = 10_000,
              until: str | None = "done"):
    """Run *source* on interpreter and translator; compare final state;
    return the translated unit (for counter assertions)."""
    fu, fu_ram, image = _make(source, FunctionalUnit)
    tu, tu_ram, _ = _make(source, TranslatedUnit)
    stop = image.symbols[until] if until else None
    fu.run(max_instructions=max_instructions, until_pc=stop)
    tu.run(max_instructions=max_instructions, until_pc=stop)
    _assert_same_state(tu, fu, tu_ram, fu_ram)
    return tu


class TestBlockParity:
    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_small_program(self):
        tu = _run_pair(SMALL_PROGRAM)
        assert tu.blocks_translated > 0

    def test_alu_and_condition_codes(self):
        _run_pair("""
    .text
    .global _start
_start:
    set 0x7FFFFFFF, %o0
    addcc %o0, 1, %o1       ! signed overflow sets V
    addxcc %o1, %o1, %o2    ! carry-in path
    set -5, %o3
    subcc %g0, %o3, %o4     ! borrow
    subxcc %o4, 1, %o5
    orncc %o5, %g0, %l0     ! inverted-operand logic needs masking
    xnorcc %l0, %o0, %l1
    sra %o0, 4, %l2
    srl %o3, 28, %l3
    sll %o3, 3, %l4
    sra %o3, %l3, %l5       ! register shift count
done:
    nop
""")

    def test_branch_arms_and_annul(self):
        _run_pair("""
    .text
    .global _start
_start:
    set 3, %l0
loop:
    deccc %l0
    bne,a loop              ! taken: slot executes; untaken: annulled
    add %g2, 1, %g2
    ba,a skipped            ! BA,a always annuls its slot
    add %g3, 100, %g3
skipped:
    be here                 ! Z set -> taken, plain slot
    add %g4, 1, %g4
here:
    bneg done               ! N clear -> falls through
    add %g5, 1, %g5
done:
    nop
""")

    def test_call_and_jmpl_chains(self):
        _run_pair("""
    .text
    .global _start
_start:
    call leaf
    mov 7, %o0
    call leaf
    mov 9, %o0
    add %g2, %g3, %g4
done:
    nop
leaf:
    retl
    add %o0, 1, %g2
""")

    @pytest.mark.usefixtures("translate_on_first_entry")
    @pytest.mark.parametrize("op", ["umul", "smul", "umulcc", "smulcc"])
    def test_inline_multiply(self, op):
        """The multiplies run inline, not through the shared handler,
        with the product's high word in Y and, for the cc forms, N/Z
        from the low word and V/C cleared (set beforehand)."""
        tu = _run_pair(f"""
    .text
    .global _start
_start:
    set -7, %o0
    set 0x9E3779B9, %o1
    set 0x7FFFFFFF, %l5
    addcc %l5, %l5, %g0     ! sets N and V
    {op} %o0, %o1, %o2      ! negative x large
    rd %y, %o3
    addcc %o0, %o0, %g0     ! sets N and C
    {op} %o1, -3, %o4       ! negative immediate
    rd %y, %o5
    {op} %o0, %g0, %l0      ! zero product: Z
    rd %y, %l1
    {op} %o1, %o1, %l2
    rd %y, %l3
    ba done
    nop
done:
    nop
""")
        (block,) = tu._blocks.values()
        assert block.source.count("ctrl.y = vt >> 32") == 4

    def test_save_restore_window_rotation(self):
        """SAVE/RESTORE run as generic handlers mid-block; the generated
        code must re-derive its window base afterwards.  (Deep recursion
        with real overflow/underflow traps is covered by the difftest
        window-trap parity suite, which runs all three engines.)"""
        _run_pair("""
    .text
    .global _start
_start:
    set 6, %o0
    call fib
    nop
    mov %o0, %g7
done:
    nop
fib:
    save %sp, -96, %sp
    subcc %i0, 2, %g0
    bl base
    mov %i0, %i5
    sub %i0, 1, %o0
    call fib
    nop
    mov %o0, %l1
    sub %i5, 2, %o0
    call fib
    nop
    add %o0, %l1, %i0
    ret
    restore
base:
    mov 1, %i0
    ret
    restore
""", max_instructions=100_000)

    def test_trap_mid_block_misaligned_load(self):
        """A misaligned load in the middle of a block must enter the
        trap with exact pc/npc and retire counts (ET=0: ErrorMode)."""
        src = """
    .text
    .global _start
_start:
    set 0x40002001, %o0
    add %g0, 1, %g1
    add %g0, 2, %g2
    ld [%o0], %o1           ! misaligned -> trap, ET=0 -> error mode
    add %g0, 3, %g3
done:
    nop
"""
        fu, fu_ram, image = _make(src, FunctionalUnit)
        tu, tu_ram, _ = _make(src, TranslatedUnit)
        from repro.cpu.traps import ErrorMode
        for unit in (fu, tu):
            with pytest.raises(ErrorMode):
                unit.run(max_instructions=100,
                         until_pc=image.symbols["done"])
        _assert_same_state(tu, fu, tu_ram, fu_ram)

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_ram_of_any_size(self):
        """Over a RAM region whose size is not a power of two, the inline
        paths test its bounds instead of one mask: accesses of each size
        up to its last bytes stay inline, and a word that runs past its
        end faults as on the interpreter."""
        size = RAM_SIZE + 12
        src = f"""
    .text
    .global _start
_start:
    set {RAM_BASE + size - 4:#x}, %o0
    set 0x80c1e2f3, %o1
    st %o1, [%o0]
    ld [%o0], %o2
    sth %o1, [%o0 + 2]
    ldsh [%o0 + 2], %o3
    lduh [%o0], %o4
    stb %o1, [%o0 + 3]
    ldsb [%o0 + 3], %o5
    ldub [%o0 + 1], %l0
    ld [%o0 + 4], %l1       ! past the end: data access trap
done:
    nop
"""
        fu, fu_ram, image = _make(src, FunctionalUnit, ram_size=size)
        tu, tu_ram, _ = _make(src, TranslatedUnit, ram_size=size)
        assert "0 <= of <=" in _Codegen(tu, [], False)._ram_miss(4)
        for unit in (fu, tu):
            with pytest.raises(ErrorMode):
                unit.run(max_instructions=100,
                         until_pc=image.symbols["done"])
        _assert_same_state(tu, fu, tu_ram, fu_ram)
        assert tu.blocks_translated > 0 and tu.regs.read(10) == 0x80c1e2f3

    def test_mmio_load_store_inside_block(self):
        """Device accesses inside a translated block take the slow path
        and reach the port exactly once each."""
        src = """
    .text
    .global _start
_start:
    set 0x80000010, %o0
    ld [%o0], %o1
    st %o1, [%o0 + 4]
    ldub [%o0], %o2
    stb %o2, [%o0 + 8]
done:
    nop
"""
        fu_port, tu_port = _RecordingPort(), _RecordingPort()
        fu, fu_ram, image = _make(src, FunctionalUnit, mmio_port=fu_port)
        tu, tu_ram, _ = _make(src, TranslatedUnit, mmio_port=tu_port)
        done = image.symbols["done"]
        fu.run(max_instructions=100, until_pc=done)
        tu.run(max_instructions=100, until_pc=done)
        _assert_same_state(tu, fu, tu_ram, fu_ram)
        assert tu_port.reads == fu_port.reads
        assert tu_port.writes == fu_port.writes


class TestCoherence:
    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_store_into_translated_block(self):
        """The SMC patch loop from the fastpath suite, now with block
        invalidation in the mix."""
        tu = _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    set target, %o1
    ld [%o0], %o2
    st %o2, [%o1]           ! overwrite 'add 1' with 'add 2'
    set 3, %l1
loop:
    deccc %l1
target:
    add %g3, 1, %g3
    bg loop
    nop
done:
    nop
patch:
    add %g3, 2, %g3
""")
        assert tu.blocks_invalidated > 0

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_store_into_active_block_bails_out(self):
        """A block that patches its *own* later instructions must
        observe the new code the first time through."""
        tu = _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    add %g0, 5, %g4
    st %o1, [%o2]           ! patch an instruction *ahead* in this block
    add %g1, 1, %g1
target:
    add %g3, 1, %g3         ! becomes 'add %g3, 2, %g3'
    add %g2, 1, %g2
done:
    nop
patch:
    add %g3, 2, %g3
""")
        assert tu.blocks_invalidated > 0

    def test_store_into_delay_slot(self):
        """Patching the delay slot of an already-translated branch."""
        _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set slot, %o2
    set 2, %l1
loop:
    deccc %l1
    bg loop
slot:
    add %g5, 1, %g5         ! patched after first translation
    st %o1, [%o2]
    set 2, %l1
loop2:
    deccc %l1
    bg loop2
    add %g0, 0, %g0
    b loop_done
    nop
loop_done:
    add %g6, %g5, %g6
done:
    nop
patch:
    add %g5, 3, %g5
""")

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_store_in_a_delay_slot_into_its_own_block(self):
        """A delay-slot store that patches the running block does not
        bail: the branch still goes to its target, and the next pass
        runs the patched code."""
        tu = _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set loop, %o2
    set 3, %l1
loop:
    add %g5, 1, %g5         ! patched by the slot's store
    deccc %l1
    bg loop
    st %o1, [%o2]
done:
    nop
patch:
    add %g5, 3, %g5
""")
        assert tu.regs.read(5) == 1 + 3 + 3

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_flush_clears_block_cache(self):
        src = """
    .text
    .global _start
_start:
    add %g1, 1, %g1
    flush [%g0]
    add %g2, 1, %g2
done:
    nop
"""
        tu = _run_pair(src)
        # the flush dropped everything translated before it; only code
        # translated *after* the flush may remain cached
        assert tu.blocks_invalidated >= 1
        assert all(b.entry > build(src).symbols["_start"]
                   for b in tu._blocks.values())

    def test_data_write_invalidates_spanning_pages(self):
        """A block straddling a page boundary dies when either page is
        written."""
        mem = FastMemory()
        buf = bytearray(0x1000)
        mem.add_region(RAM_BASE, buf, name="ram")
        # fill with NOPs then a branch-to-self at the end
        nop = (0x01000000).to_bytes(4, "big")
        for i in range(0, 0x200, 4):
            buf[i:i + 4] = nop
        tu = TranslatedUnit(mem, reset_pc=RAM_BASE + 0xF0)
        block = tu._translate(RAM_BASE + 0xF0)  # spans pages 0 and 1
        assert block is not None and len(block.pages) == 2
        tu.data_write(RAM_BASE + 0x104, 4, 0)  # second page only
        assert (RAM_BASE + 0xF0) not in tu._blocks
        assert tu.blocks_invalidated == 1


class TestStepContract:
    def test_fast_forward_exact_budget(self):
        """fast_forward(N) executes exactly N steps even when N lands
        mid-block — byte-identical to N interpreter steps."""
        src = SMALL_PROGRAM
        probe, _, image = _make(src, FunctionalUnit)
        total = probe.fast_forward(10_000,
                                   stop_pc=image.symbols["done"])
        assert total > 4  # several budgets land mid-block below
        for budget in range(1, total + 1):
            fu, fu_ram, _ = _make(src, FunctionalUnit)
            tu, tu_ram, _ = _make(src, TranslatedUnit)
            assert fu.fast_forward(budget) == tu.fast_forward(budget)
            _assert_same_state(tu, fu, tu_ram, fu_ram)

    def test_fast_forward_stop_pc_inside_block(self):
        """A stop PC in the middle of a translated block must still
        stop exactly there."""
        src = """
    .text
    .global _start
_start:
    add %g1, 1, %g1
    add %g2, 1, %g2
mid:
    add %g3, 1, %g3
    add %g4, 1, %g4
done:
    nop
"""
        fu, fu_ram, image = _make(src, FunctionalUnit)
        tu, tu_ram, _ = _make(src, TranslatedUnit)
        mid = image.symbols["mid"]
        # translate the whole block first, then ask to stop inside it
        tu2, _, _ = _make(src, TranslatedUnit)
        tu2.fast_forward(100, stop_pc=image.symbols["done"])
        fu.fast_forward(100, stop_pc=mid)
        tu.fast_forward(100, stop_pc=mid)
        assert tu.pc == mid == fu.pc
        _assert_same_state(tu, fu, tu_ram, fu_ram)

    def test_run_contract_matches_functional(self):
        """Same run() contract as the interpreter: silent return without
        until_pc, WatchdogExpired with one."""
        src = """
    .text
    .global _start
_start:
    b _start
    add %g1, 1, %g1
done:
    nop
"""
        fu, _, image = _make(src, FunctionalUnit)
        tu, _, _ = _make(src, TranslatedUnit)
        assert fu.run(max_instructions=50) >= 0   # silent return
        assert tu.run(max_instructions=50) >= 0
        assert tu.instret == fu.instret
        with pytest.raises(WatchdogExpired):
            tu.run(max_instructions=50, until_pc=image.symbols["done"])

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_max_block_bound(self):
        """A long straight-line run is split into MAX_BLOCK-bounded
        blocks and still matches the interpreter."""
        body = "\n".join(f"    add %g1, {i % 7 + 1}, %g1"
                         for i in range(3 * MAX_BLOCK))
        tu = _run_pair(f"""
    .text
    .global _start
_start:
{body}
done:
    nop
""")
        assert tu.blocks_translated >= 3
        assert all(b.length <= MAX_BLOCK
                   for b in tu._blocks.values())


LOOP_PROGRAM = """
    .text
    .global _start
_start:
    set 10, %l0
loop:
    deccc %l0
    bne loop
    add %g2, 1, %g2
done:
    nop
"""


class TestSecondEntryTranslation:
    """A PC's first entry is interpreted; its block is compiled on the
    second (HOT_ENTRY), so code that runs once is never compiled."""

    def test_run_once_program_translates_nothing(self):
        body = "\n".join(f"    add %g1, {i % 7 + 1}, %g1"
                         for i in range(2 * MAX_BLOCK))
        tu = _run_pair(f"""
    .text
    .global _start
_start:
{body}
    call leaf
    nop
    ba done
    nop
leaf:
    retl
    add %g2, 1, %g2
done:
    nop
""")
        assert tu.blocks_translated == 0
        assert tu.blocks_executed == 0

    def test_loop_runs_from_its_block_after_the_first_iteration(self):
        tu = _run_pair(LOOP_PROGRAM)
        assert tu.blocks_translated == 1
        assert tu.blocks_executed == 10 - 1

    def test_boot_and_dispatch_compile_nothing(self):
        """Boot walks the PROM to the polling loop, a stop PC inside the
        PROM's first block: translating on first entry compiled a block
        at every step of that walk, none of which ran."""
        from repro.core.sim import Simulator

        image = build(SMALL_PROGRAM)
        sim = Simulator(obs=False)
        unit = sim.translated_unit()
        sim._dispatch_on(unit, image)
        assert unit.pc == image.entry and unit.instret > 0
        assert unit.blocks_translated == 0

    @pytest.mark.parametrize("invalidate, blocks_per_iteration", [
        # Drops every block: the FLUSH bails out of the loop block, and
        # the rest of the body runs as a second block.
        ("flush [%o0]", 2),
        # Drops the blocks on the stored page, the running one included.
        ("st %g0, [%o0]", 1),
    ])
    def test_invalidation_keeps_a_pc_hot(self, invalidate,
                                         blocks_per_iteration):
        """A loop whose body invalidates its own translation is
        retranslated on its next entry, not interpreted again."""
        tu = _run_pair(f"""
    .text
    .global _start
_start:
    set scratch, %o0
    set 10, %l0
loop:
    {invalidate}
    deccc %l0
    bne loop
    add %g2, 1, %g2
done:
    nop
scratch:
    nop
""")
        assert tu.blocks_invalidated > 0
        assert tu.blocks_executed == blocks_per_iteration * (10 - 1)
        assert tu.blocks_translated == tu.blocks_executed

    def test_a_loop_becomes_a_trace_on_the_hot_trace_th_return(
            self, monkeypatch):
        monkeypatch.setattr(blockcache, "HOT_TRACE", 4)
        traces = []
        for iterations in (5, 6):
            tu = _run_pair(LOOP_PROGRAM.replace("set 10,",
                                                f"set {iterations},"))
            traces.append(tu.traces_translated)
            # Iteration 1 is interpreted; from iteration 2 on the block
            # returns to itself, and the fourth return compiles it.
            assert tu.blocks_executed == iterations - 1
        assert traces == [0, 1]

    def test_entry_counts_clear_with_the_block_cache(self, monkeypatch):
        tu, _, image = _make(LOOP_PROGRAM, TranslatedUnit)
        tu.run(max_instructions=1_000, until_pc=image.symbols["done"])
        assert len(tu._blocks) == 1 and tu._entries
        monkeypatch.setattr(blockcache, "MAX_BLOCKS", 1)
        tu._translate(image.symbols["_start"])
        assert list(tu._blocks) == [image.symbols["_start"]]
        assert tu._entries == {}


#: A loop whose body is three blocks — A (the exit test), B (load,
#: store) and C (the back edge) — like the streaming kernels' inner
#: loops; its data sits on a page of its own.
TRACE_LOOP = """
    .text
    .global _start
_start:
    set 8, %l0
    set buf, %o0
loop:
    deccc %l0               ! A
    be done
    add %g1, 1, %g1
    ld [%o0], %g2           ! B
inside:
    add %g2, %g1, %g2
    ba third
    st %g2, [%o0]
    nop
third:
    umul %g2, 3, %g3        ! C
    add %g4, %g3, %g4
    ba loop
    nop
done:
    nop
    .data
    .skip 256
buf:
    .word 5
"""


def _smc_loop(target: str, source: str) -> str:
    """TRACE_LOOP's shape, with B storing a word every iteration: to a
    scratch word, except once (the fourth iteration) to *target*, with
    the word at *source*."""
    targets = ", ".join(target if i == 4 else "scratch" for i in range(8))
    sources = ", ".join(source if i == 4 else "scratch" for i in range(8))
    return f"""
    .text
    .global _start
_start:
    set 7, %l0
    set targets, %o5
    set sources, %l1
loop:
    deccc %l0               ! A
    be done
    sll %l0, 2, %o4
    ld [%o5 + %o4], %o3     ! B
    ld [%l1 + %o4], %o2
    ld [%o2], %o2
    st %o2, [%o3]
    ba third
slot:
    add %g1, 1, %g1
third:
    add %g4, 1, %g4         ! C
    ba loop
    nop
done:
    nop
patch:
    add %g4, 100, %g4
    .data
    .skip 256
targets:
    .word {targets}
sources:
    .word {sources}
scratch:
    .word 0
"""


def _run_recorded(source: str, chunk: int | None = None):
    """Run *source* to ``done`` on a RecordingUnit, in *chunk*-step
    budgets if given; returns the unit."""
    unit, _, image = _make(source, RecordingUnit)
    done = image.symbols["done"]
    if chunk is None:
        unit.run(max_instructions=10_000, until_pc=done)
    else:
        while unit.pc != done:
            unit.fast_forward(chunk, stop_pc=done)
    return unit


def _recorded_stream(unit) -> dict:
    rec = unit.recording
    columns = {name: getattr(rec, name).tolist() for name in (
        "events", "refs", "step_pcs", "step_words", "iflushes",
        "code_lo", "code_hi", "code_at")}
    columns["blocks"] = [(b.entry, [i.word for i in b.insts])
                         for b in rec.blocks]
    columns["counts"] = (unit.blocks_translated, unit.blocks_executed,
                         unit.blocks_invalidated)
    return columns


def _assert_traces_record_like_blocks(source: str, monkeypatch,
                                      chunk: int | None = None) -> None:
    """With traces, the recording (every column) and the block counters
    equal those of a run whose blocks never chain."""
    traced = _run_recorded(source, chunk)
    assert traced.traces_translated > 0
    with monkeypatch.context() as patch:
        patch.setattr(blockcache, "HOT_TRACE", 1 << 62)
        plain = _run_recorded(source, chunk)
    assert plain.traces_translated == 0
    assert _recorded_stream(traced) == _recorded_stream(plain)


@pytest.mark.usefixtures("chain_on_first_return")
class TestTraces:
    """A hot cycle of blocks runs as one generated function that loops;
    everything observable stays what the blocks one by one would do."""

    def test_three_block_loop_becomes_one_trace(self):
        tu = _run_pair(TRACE_LOOP)
        image = build(TRACE_LOOP)
        trace = tu._blocks[image.symbols["loop"]]
        assert isinstance(trace, Trace)
        assert [b.entry for b in trace.members] == [
            image.symbols["loop"], image.symbols["loop"] + 12,
            image.symbols["third"]]
        assert tu.traces_translated == 1
        # Member bodies still count: iterations 2-8 through A, 2-7
        # through B and C (the first iteration is interpreted).
        assert tu.blocks_executed == 7 + 6 + 6

    def test_fast_forward_every_budget_across_the_trace(self):
        """fast_forward(N) lands on the interpreter's state for every N
        through the traced iterations, and so does running the loop in
        N-step pieces."""
        probe, _, image = _make(TRACE_LOOP, FunctionalUnit)
        done = image.symbols["done"]
        total = probe.fast_forward(10_000, stop_pc=done)
        for budget in range(1, total + 1):
            fu, fu_ram, _ = _make(TRACE_LOOP, FunctionalUnit)
            tu, tu_ram, _ = _make(TRACE_LOOP, TranslatedUnit)
            assert fu.fast_forward(budget) == tu.fast_forward(budget)
            _assert_same_state(tu, fu, tu_ram, fu_ram)
        assert tu.traces_translated == 1
        for chunk in (3, 10, 11, 12, 23):
            fu, fu_ram, _ = _make(TRACE_LOOP, FunctionalUnit)
            tu, tu_ram, _ = _make(TRACE_LOOP, TranslatedUnit)
            while fu.pc != done:
                assert (fu.fast_forward(chunk, stop_pc=done)
                        == tu.fast_forward(chunk, stop_pc=done))
                _assert_same_state(tu, fu, tu_ram, fu_ram)

    @pytest.mark.parametrize("chunk", [None, 10, 23, 37])
    def test_recording_is_the_blocks_recording(self, chunk, monkeypatch):
        _assert_traces_record_like_blocks(TRACE_LOOP, monkeypatch, chunk)

    @pytest.mark.parametrize("label", ["third", "inside"])
    def test_stop_pc_inside_a_member_keeps_the_trace_out(self, label):
        fu, fu_ram, image = _make(TRACE_LOOP, FunctionalUnit)
        tu, tu_ram, _ = _make(TRACE_LOOP, TranslatedUnit)
        fu.fast_forward(40)
        tu.fast_forward(40)
        trace = tu._traces[image.symbols["loop"]]
        entered = []
        code = trace.code
        trace.code = lambda unit, left: entered.append(left) or code(unit,
                                                                     left)
        stop = image.symbols[label]
        fu.fast_forward(1_000, stop_pc=stop)
        tu.fast_forward(1_000, stop_pc=stop)
        assert tu.pc == stop and not entered
        _assert_same_state(tu, fu, tu_ram, fu_ram)
        done = image.symbols["done"]
        fu.fast_forward(1_000, stop_pc=done)
        tu.fast_forward(1_000, stop_pc=done)
        assert entered
        _assert_same_state(tu, fu, tu_ram, fu_ram)

    @pytest.mark.parametrize("target, source", [
        ("third", "patch"),   # a later member: C runs its new code
        ("slot", "slot"),     # the running member: B bails
        ("loop", "loop"),     # the head
    ])
    def test_store_into_a_member(self, target, source, monkeypatch):
        program = _smc_loop(target, source)
        tu = _run_pair(program)
        assert tu.blocks_invalidated > 0
        if target == "third":
            # C ran twice before the patch (l0 = 6, 5), then four
            # times patched, from the iteration that stored it on.
            assert tu.regs.read(4) == 2 + 4 * 100
        _assert_traces_record_like_blocks(program, monkeypatch)

    @pytest.mark.parametrize("annul", ["", ",a"])
    def test_branch_whose_arms_both_reach_the_next_member(
            self, annul, monkeypatch):
        """A conditional branch to the word after its own delay slot
        (the conditional-move idiom) leads to the next member by either
        arm; each arm runs, counts and records its delay slot once."""
        source = f"""
    .text
    .global _start
_start:
    set 9, %l0
loop:
    andcc %l0, 1, %g0       ! A: taken on odd counts
    bne{annul} next
    add %g1, 1, %g1
next:
    add %g2, %g1, %g2       ! B
    deccc %l0
    bg loop
    nop
done:
    nop
"""
        tu = _run_pair(source)
        assert isinstance(tu._blocks[build(source).symbols["loop"]], Trace)
        translated, interpreted, _ = _mix_pair(source)
        assert translated == interpreted
        _assert_traces_record_like_blocks(source, monkeypatch)

    def test_trap_in_a_middle_member_reports_its_prefix(self):
        """A misaligned load in B (sixth iteration) enters error mode
        from inside the trace: B's cut body is recorded as an exit that
        retired the two instructions before the load."""
        source = """
    .text
    .global _start
_start:
    set 7, %l0
    set offsets, %o5
    set buf, %o0
loop:
    deccc %l0               ! A
    be done
    sll %l0, 2, %o4
    ld [%o5 + %o4], %o3     ! B
    add %g1, 1, %g1
    ld [%o0 + %o3], %g2     ! misaligned when the offset is 1
    ba third
    nop
third:
    add %g4, %g2, %g4       ! C
    ba loop
    nop
done:
    nop
    .data
    .skip 256
offsets:
    .word 0, 1, 0, 0, 0, 0, 0, 0
buf:
    .word 5
"""
        translated, interpreted, unit = _mix_pair(
            source, max_instructions=1_000, raises=ErrorMode)
        assert translated == interpreted
        assert unit.traces_translated > 0
        block, retired = _block_exits(unit)[-1]
        assert block.entry == build(source).symbols["loop"] + 12
        assert retired == 2

    def test_a_dropped_trace_forms_again_on_the_next_return(
            self, monkeypatch):
        """The return counts survive the trace: after a member is
        dropped, the next return to the head compiles the cycle again,
        not the HOT_TRACE-th one after it."""
        monkeypatch.setattr(blockcache, "HOT_TRACE", 3)
        fu, fu_ram, image = _make(TRACE_LOOP, FunctionalUnit)
        tu, tu_ram, _ = _make(TRACE_LOOP, TranslatedUnit)
        loop, third = image.symbols["loop"], image.symbols["third"]
        fu.fast_forward(60)
        tu.fast_forward(60)
        trace = tu._traces[loop]
        tu._invalidate(third)
        assert tu._traces == {} and trace.alive == [False]
        assert tu._blocks[loop] is trace.fallback
        done = image.symbols["done"]
        fu.fast_forward(1_000, stop_pc=done)
        tu.fast_forward(1_000, stop_pc=done)
        _assert_same_state(tu, fu, tu_ram, fu_ram)
        assert tu.traces_translated == 2

    def test_max_blocks_clear_drops_traces(self, monkeypatch):
        fu, fu_ram, image = _make(TRACE_LOOP, FunctionalUnit)
        tu, tu_ram, _ = _make(TRACE_LOOP, TranslatedUnit)
        fu.fast_forward(40)
        tu.fast_forward(40)
        trace = tu._traces[image.symbols["loop"]]
        monkeypatch.setattr(blockcache, "MAX_BLOCKS", 1)
        third = image.symbols["third"]
        tu._translate(third)
        assert list(tu._blocks) == [third]
        assert tu._traces == {} and trace.alive == [False]
        done = image.symbols["done"]
        fu.fast_forward(1_000, stop_pc=done)
        tu.fast_forward(1_000, stop_pc=done)
        _assert_same_state(tu, fu, tu_ram, fu_ram)


    @pytest.mark.parametrize("branch", ["ba", "bg"])
    def test_trap_in_a_taken_branchs_delay_slot(self, branch, monkeypatch):
        """A load in the delay slot of B's taken branch to C misses its
        alignment on odd counts; the handler resumes at C.  The trap
        exit records the taken branch (``tk``) in a trace as in a
        block."""
        source = _handled_trap_loop(f"""
    {branch} third
    ld [%o2], %g2           ! misaligned on odd counts
""")
        self._assert_handled_traps(source, monkeypatch, taken=True)

    @pytest.mark.parametrize("store", ["st", "sth"])
    def test_misaligned_store_inside_a_member(self, store, monkeypatch):
        """A store in the middle of B misses its alignment on odd
        counts; the handler resumes after it."""
        source = _handled_trap_loop(f"""
    {store} %l0, [%o2]      ! misaligned on odd counts
    add %g3, 1, %g3
    ba third
    nop
""")
        self._assert_handled_traps(source, monkeypatch, taken=False)

    @staticmethod
    def _assert_handled_traps(source, monkeypatch, taken: bool) -> None:
        tu = _run_pair(source)
        assert tu.trap_count == tu.regs.read(5) == 4
        assert tu.traces_translated > 0
        translated, interpreted, _ = _mix_pair(source)
        assert translated == interpreted
        _assert_traces_record_like_blocks(source, monkeypatch)
        # The recording holds block exits cut by a trap (steps one more
        # than retired, no annulled slot), with the taken bit when the
        # slot trapped.
        trapped = [event for event in _run_recorded(source).recording.events
                   if event >= 0 and not event & 1
                   and (event >> 9 & 0x7F) == (event >> 2 & 0x7F) + 1]
        assert len(trapped) == 4
        assert all(bool(event & 2) == taken for event in trapped)


def _handled_trap_loop(b_tail: str) -> str:
    """TRACE_LOOP's shape with traps enabled: B points %o2 one byte past
    an aligned word on odd counts, then runs *b_tail*, which must take a
    misaligned-address trap there and end by branching to C.  The
    handler counts traps in %g5 and resumes at the trapped npc.  A's
    annulled slot makes a trap's count depend on the iterations the
    trace completed."""
    return f"""
    .text
    .global _start
_start:
    set table, %g1
    wr %g1, 0, %tbr
    wr %g0, 0xe0, %psr      ! S, PS, ET
    nop
    nop
    nop
    set 9, %l0
    set buf, %o0
loop:
    deccc %l0               ! A
    be,a done               ! annuls its slot on every pass through
    nop
    and %l0, 1, %o1         ! B
    add %o0, %o1, %o2
{b_tail}
    add %g6, 1, %g6         ! never runs: B branches past it
third:
    add %g4, %g2, %g4       ! C
    ba loop
    nop
done:
    nop
    .align 4096
table:
    .skip 0x70
    add %g5, 1, %g5         ! tt 0x07: mem_address_not_aligned
    jmpl %l2, %g0
    rett %l2 + 4
    .data
    .skip 256
buf:
    .word 5, 7
"""


class TestSimulatorIntegration:
    def test_translated_unit_shares_architectural_state(self):
        from repro.core.sim import Simulator

        sim = Simulator(obs=False)
        tu = sim.translated_unit()
        assert tu.regs is sim.cpu.regs
        assert tu.ctrl is sim.cpu.ctrl
        tu.regs.write(9, 0x4321)
        assert sim.cpu.regs.read(9) == 0x4321

    def test_iu_registers_match_after_translated_run(self):
        """Cross-check against the cycle-accurate engine, not just the
        functional interpreter."""
        image = build(SMALL_PROGRAM)
        iu_mem = FlatMemory(size=RAM_SIZE, base=RAM_BASE)
        for base, blob in image.segments.items():
            iu_mem.load(base, blob)
        iu = IntegerUnit(iu_mem, iu_mem, reset_pc=image.entry)
        iu.regs.write(14, STACK_TOP)
        tu, _, _ = _make(SMALL_PROGRAM, TranslatedUnit)
        done = image.symbols["done"]
        iu.run(max_instructions=10_000, until_pc=done)
        tu.run(max_instructions=10_000, until_pc=done)
        for reg in range(32):
            assert tu.regs.read(reg) == iu.regs.read(reg), f"reg {reg}"
        assert tu.ctrl.psr == iu.ctrl.psr
        assert tu.instret == iu.instret


def _mix_pair(source: str, max_instructions: int = 10_000,
              raises: type[Exception] | None = None):
    """Run *source* on the interpreter under a :class:`MixRecorder` and
    on a :class:`RecordingUnit`; return (the mix folded from the
    recording, the interpreter's mix, the recording unit)."""
    from repro.core.replay import _mix
    from repro.core.sim import MixRecorder

    interpreter, _, image = _make(source, FunctionalUnit)
    recording_unit, _, _ = _make(source, RecordingUnit)
    done = image.symbols["done"]
    with MixRecorder(interpreter) as recorder:
        for unit in (interpreter, recording_unit):
            if raises is None:
                unit.run(max_instructions=max_instructions, until_pc=done)
            else:
                with pytest.raises(raises):
                    unit.run(max_instructions=max_instructions,
                             until_pc=done)
    recording = recording_unit.recording
    translated = _mix(recording, (0, 0, 0), recording.mark())
    assert sum(recorder.mix().values()) == interpreter.instret
    assert sum(translated.values()) == recording_unit.instret
    return translated, recorder.mix(), recording_unit


def _block_exits(unit: RecordingUnit) -> list:
    """A recording's block exits, as (block, instructions retired)."""
    recording = unit.recording
    return [(recording.blocks[event >> 16], event >> 2 & 0x7F)
            for event in recording.events if event >= 0]


class TestRetirementHooks:
    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_block_exits_and_retired_steps_sum_to_instret(self):
        unit = _run_recorded(SMALL_PROGRAM)
        events = unit.recording.events
        stepped = sum(event in (STEP_RETIRED, STEP_TAKEN)
                      for event in events)
        exits = [retired for _, retired in _block_exits(unit)]
        assert exits and stepped + sum(exits) == unit.instret

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_trap_cut_block_counts_retired_prefix(self):
        """A misaligned load mid-block enters error mode: only the three
        instructions before it (set = sethi + or, add, add) retired."""
        translated, interpreted, unit = _mix_pair("""
    .text
    .global _start
_start:
    set 0x40002001, %o0
    add %g0, 1, %g1
    add %g0, 2, %g2
    ld [%o0], %o1           ! misaligned -> trap, ET=0 -> error mode
    add %g0, 3, %g3
    b done
    nop
done:
    nop
""", max_instructions=100, raises=ErrorMode)
        assert translated == interpreted == {"alu": 3, "sethi": 1}
        assert [(len(block.insts) > retired, retired)
                for block, retired in _block_exits(unit)] == [(True, 4)]

    @pytest.mark.usefixtures("translate_on_first_entry")
    def test_smc_bail_counts_retired_prefix(self):
        """A block that patches its own later instructions bails after
        the store; the patched instruction counts under its new class."""
        translated, interpreted, unit = _mix_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    st %o1, [%o2]           ! patch an instruction *ahead* in this block
    add %g1, 1, %g1
target:
    add %g3, 1, %g3         ! becomes a nop (class sethi)
    add %g2, 1, %g2
    b done
    nop
done:
    nop
patch:
    nop
""")
        assert translated == interpreted
        # up to and including the store
        assert _block_exits(unit)[0][1] == 6
        # target retired as the patched nop, never as its old add.
        assert interpreted["alu"] == 4 and interpreted["store"] == 1

    def test_retranslated_block_counts_new_instructions(self):
        """The loop block is patched after its first pass and translated
        again at the same entry PC; each translation is counted under
        its own instructions."""
        source = """
    .text
    .global _start
_start:
    set patch, %o0
    set target, %o1
    ld [%o0], %o2
    mov 2, %l2
outer:
    set 3, %l1
loop:
    deccc %l1
target:
    add %g3, 1, %g3         ! patched to a nop after the first pass
    bg loop
    nop
    st %o2, [%o1]
    flush [%o1]
    deccc %l2
    bg outer
    nop
done:
    nop
patch:
    nop
"""
        translated, interpreted, unit = _mix_pair(source)
        assert translated == interpreted
        loop = build(source).symbols["loop"]
        loop_blocks = {id(block): block for block, _ in _block_exits(unit)
                       if block.entry == loop}
        assert len(loop_blocks) == 2
        first, second = (block.insts[1].word
                         for block in loop_blocks.values())
        assert first != second


class TestGeneratedSource:
    #: Characters of generated source per translated instruction over
    #: the registry kernels' recordings and a ``fir_stream`` translated
    #: run: 265.6 while every load and store carried its own trap guards
    #: and slow path, 136.2 with the rare paths out of line.  The ceiling
    #: is the latter plus 10%.
    CEILING = 149.8

    def test_source_per_instruction_stays_under_its_ceiling(
            self, monkeypatch):
        from repro.core import ArchitectureConfig
        from repro.core.replay import record
        from repro.core.sim import Simulator
        from repro.workloads import all_workloads, get

        compiled = []
        real = blockcache._compile

        def counting(unit, members, loop):
            compiled.append((unit, sum(len(insts) for _, insts, _ in members)))
            return real(unit, members, loop)

        monkeypatch.setattr(blockcache, "_compile", counting)
        for kernel in all_workloads():
            record(ArchitectureConfig(), kernel.image(), 50_000_000)
        recorded = {id(unit): unit for unit, _ in compiled}
        report = Simulator().run_translated(get("fir_stream").image())
        (fir,) = {id(unit): unit for unit, _ in compiled
                  if id(unit) not in recorded}.values()
        assert report.fastpath["source_chars"] == fir.source_chars > 0
        chars = sum(unit.source_chars for unit in recorded.values())
        chars += fir.source_chars
        instructions = sum(count for _, count in compiled)
        assert chars / instructions < self.CEILING
