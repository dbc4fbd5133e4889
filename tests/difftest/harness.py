"""Differential harness: run one program on every execution engine and
compare everything the architecture defines.

A program passes when the cycle-accurate :class:`IntegerUnit`, the
functional :class:`FunctionalUnit` and the block-translating
:class:`TranslatedUnit` all finish with equal
:class:`~repro.cpu.archstate.ArchState` (registers in every window,
control registers, the full memory image, peripheral state, retired
instruction and trap counts) *and* the same UART byte stream, result
word and retired-instruction count, and the functional engine the same
per-class instruction mix.  Any divergence is an engine bug by
construction — the engines share decode and execute, so only the parts
that differ (fetch/memory path, timing shims, block translation,
retirement hooks) can be at fault.

The fourth column is *timing*: for each named configuration in
:data:`TIMING_CONFIGS` the program is also evaluated the way a
full-detail sweep evaluates it — recorded once per architecture and
replayed (:mod:`repro.core.replay`) — and the replayed record's whole
canonical JSON (cycles, instruction mix, cache statistics, the ``obs``
snapshot) must equal the accurate engine's record for the same
configuration.  ``run_translated`` reports no instruction mix, so the
translated engine's mix is checked here, through the recording's, on
every program.  A program that ends in error mode has no replayed
record (``tests/difftest/test_trap_parity.py`` compares ArchStates and
the watchdog only), so no engine's mix is compared for it here; the
recording's mix of a block cut by an error-mode trap is checked in
``tests/cpu/test_blockcache.py``.

The sampled column (:func:`compare_sampled`) does the same for sampled
runs: windows replayed from one recording must give the run the
accurate oracle gives (an ArchState at every ramp start, then
single-step ramps and windows), byte for byte.

The translated engine compiles a PC's block on its second entry
(:data:`~repro.cpu.blockcache.HOT_ENTRY`), and generated programs are
mostly straight-line code that runs once, so :func:`compare_generated`
runs them with translation on first entry: their translated and timing
columns then execute generated code, where the default would mostly
interpret.  A hot loop becomes a trace only after about a thousand
iterations (:data:`~repro.cpu.blockcache.HOT_TRACE`), so generated
programs, and the registry kernels through :func:`compare_traced`,
chain a trace on the first return to a loop's head.  Everything else
runs at the default, so the block, trace and interpreted paths all stay
checked against the accurate engine.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.cache.cache import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.replay import ReplayUnsupported
from repro.core.rewriter import POPCOUNT_RECIPE
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import MixRecorder, SimReport, Simulator
from repro.core.sweep import (
    REPLAYED,
    _evaluate_group,
    _evaluate_task,
    _report_record,
)
from repro.core.synthesis import SynthesisModel
from repro.cpu import blockcache
from repro.cpu.archstate import ArchState
from repro.cpu.fastpath import FunctionalUnit
from repro.obs.collect import cache_record, simulator_snapshot
from repro.toolchain.driver import SourceFile, build_image

#: Generated programs are short; this bounds runaway loops/recursion.
MAX_INSTRUCTIONS = 2_000_000

STOCK = ArchitectureConfig()

#: Timing configurations of the fourth column: small 2-way lrr and
#: 4-way random caches (with the 16x16 multiplier), 2-way lru caches
#: with no load-use interlock, the deep pipeline (nonzero taken-CTI
#: penalty) and a popc extension (another architecture, so another
#: recording).
TIMING_CONFIGS = {
    "stock": STOCK,
    "lrr2": replace(
        STOCK, multiplier="16x16",
        icache=CacheGeometry(size=512, line_size=16, ways=2,
                             replacement="lrr"),
        dcache=CacheGeometry(size=1024, line_size=16, ways=2,
                             replacement="lrr")),
    "random4": replace(
        STOCK, multiplier="16x16",
        icache=CacheGeometry(size=512, line_size=32, ways=4,
                             replacement="random"),
        dcache=CacheGeometry(size=1024, line_size=32, ways=4,
                             replacement="random")),
    "noilock-lru2": replace(
        STOCK, load_use_interlock=False,
        icache=CacheGeometry(size=512, line_size=32, ways=2,
                             replacement="lru"),
        dcache=CacheGeometry(size=1024, line_size=32, ways=2,
                             replacement="lru")),
    "depth7": STOCK.with_pipeline_depth(7),
    "popc": POPCOUNT_RECIPE.apply_to_config(STOCK),
}
ALL_TIMING = tuple(TIMING_CONFIGS)
#: Non-stock configurations, for rotating one per generated seed.
EXTRA_TIMING = ALL_TIMING[1:]

#: The sampled column's plan: generated programs run a few hundred
#: steps, so short windows and ramps still place several of each.
SAMPLED_PLAN = SamplingPlan(n_windows=3, window_length=24, ramp_length=16,
                            seed=7)


def build(asm_text: str):
    return build_image([SourceFile(asm_text, "asm", "difftest.s")],
                       with_crt0=False, entry_symbol="_start")


@dataclass
class DiffResult:
    """One differential run: mismatch list plus every engine's report.

    ``traps`` logs every (tt, pc) the cycle-accurate engine took — the
    fast engines' trap *counts* are already proven equal through the
    ArchState comparison, so one engine's log describes all of them.
    """

    problems: list[str]
    accurate: SimReport
    functional: SimReport
    translated: SimReport | None = None
    traps: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def trap_types(self) -> set[int]:
        return {tt for tt, _pc in self.traps}


def compare_image(image, max_instructions: int = MAX_INSTRUCTIONS,
                  timing: tuple[str, ...] = ("stock",)) -> DiffResult:
    """Run a built image on every engine; compare each fast engine's
    result against the one cycle-accurate baseline run, and the
    replayed record against the accurate record under each *timing*
    configuration (names in :data:`TIMING_CONFIGS`)."""
    accurate = Simulator()
    traps: list[tuple[int, int]] = []
    accurate.cpu.on_trap = lambda tt, pc: traps.append((tt, pc))
    report_a = accurate.run(image, max_instructions=max_instructions)
    state_a = ArchState.capture(accurate)

    problems = []
    functional, report_f = run_functional(image, max_instructions)
    problems += _compare(state_a, report_a, functional, report_f,
                         "functional")
    if report_a.instruction_mix != report_f.instruction_mix:
        problems.append(
            f"instruction_mix: accurate={report_a.instruction_mix} "
            f"functional={report_f.instruction_mix}")
    translated = Simulator(obs=False)
    report_t = translated.run_translated(image,
                                         max_instructions=max_instructions)
    problems += _compare(state_a, report_a, translated, report_t,
                         "translated")
    problems += compare_timing(image, max_instructions, timing, report_a)
    return DiffResult(problems, report_a, report_f, report_t, traps)


def run_functional(image, max_instructions: int = MAX_INSTRUCTIONS
                   ) -> tuple[Simulator, SimReport]:
    """Run *image* to completion on a :class:`FunctionalUnit` over a
    fresh simulator's machine, the way ``Simulator.run_translated``
    drives its engine: the reference interpreter's column.  Returns the
    simulator (with the run folded back in) and its report."""
    sim = Simulator(obs=False)
    fast = sim._fast_unit(FunctionalUnit)
    sim._dispatch_on(fast, image)
    start_steps, start_instret = fast.cycles, fast.instret
    with MixRecorder(fast) as mix_recorder:
        fast.run(max_instructions=max_instructions,
                 until_pc=sim.rom_info.poll_address)
    sim._sync_from_functional(fast)
    sim.sram.host_write_word(sim.memmap.mailbox_start, 0)
    counts = simulator_snapshot(sim)
    return sim, SimReport(
        cycles=fast.cycles - start_steps,
        instructions=fast.instret - start_instret,
        instruction_mix=mix_recorder.mix(),
        dcache=cache_record(counts, "dcache", sim.config.dcache),
        icache=cache_record(counts, "icache", sim.config.icache),
        result_word=sim.sram.host_read_word(sim.memmap.result_addr),
        uart_output=sim.uart.transmitted())


def compare_engines(asm_text: str,
                    timing: tuple[str, ...] = ("stock",)) -> list[str]:
    """Run on every engine; return mismatch descriptions (empty = pass)."""
    return compare_image(build(asm_text), timing=timing).problems


def compare_generated(asm_text: str,
                      timing: tuple[str, ...] = ("stock",)) -> DiffResult:
    """:func:`compare_image` for a generated program, translating each
    block on its first entry and chaining a trace on the first return
    to its head (see the module docstring)."""
    with _eager(entry=1, trace=1):
        return compare_image(build(asm_text), timing=timing)


def compare_traced(image, max_instructions: int = MAX_INSTRUCTIONS,
                   timing: tuple[str, ...] = ("stock",)) -> DiffResult:
    """:func:`compare_image` chaining a trace on the first return to its
    head, so that every hot loop, however short, runs traced."""
    with _eager(trace=1):
        return compare_image(image, max_instructions, timing)


@contextmanager
def _eager(entry: int | None = None, trace: int | None = None):
    """Lower the translator's ``HOT_ENTRY``/``HOT_TRACE`` for a run."""
    saved = blockcache.HOT_ENTRY, blockcache.HOT_TRACE
    if entry is not None:
        blockcache.HOT_ENTRY = entry
    if trace is not None:
        blockcache.HOT_TRACE = trace
    try:
        yield
    finally:
        blockcache.HOT_ENTRY, blockcache.HOT_TRACE = saved


def compare_timing(image, max_instructions: int, timing: tuple[str, ...],
                   stock_report: SimReport | None = None) -> list[str]:
    """The timing column: the replayed record of each named
    configuration must be the accurate engine's record, byte for byte.
    *stock_report* (an accurate ``Simulator().run`` report of *image*)
    saves re-running the stock configuration."""
    groups: dict[str, list] = {}
    for name in timing:
        config = TIMING_CONFIGS[name]
        groups.setdefault(config.arch_key(), []).append(name)
    problems = []
    for names in groups.values():
        tasks = [(TIMING_CONFIGS[name], image, max_instructions, None)
                 for name in names]
        for name, task, (replayed, _, path) in zip(
                names, tasks, _evaluate_group(tasks)):
            if path != REPLAYED:
                problems.append(f"timing[{name}]: not replayed ({path})")
                continue
            if name == "stock" and stock_report is not None:
                accurate = _report_record(STOCK, stock_report,
                                          SynthesisModel().estimate(STOCK))
            else:
                accurate, _ = _evaluate_task(task)
            problems += _describe_record_diff(accurate, replayed, name)
    return problems


class OracleRunner(SampledRunner):
    """A sampled runner that measures every window on the accurate
    oracle: the checkpoint pass and ``measure_window``, the path a
    replay fallback takes."""

    def _recording_pass(self, *args):
        raise ReplayUnsupported("oracle")


def compare_sampled(image, max_instructions: int, timing: tuple[str, ...],
                    plan: SamplingPlan = SAMPLED_PLAN
                    ) -> tuple[list[str], dict[str, str]]:
    """The sampled column: under each named configuration, the sampled
    run (windows replayed from one recording per architecture where
    replay is exact) must equal the accurate oracle's run of the same
    plan, byte for byte.  Returns the problems and each configuration's
    path (``REPLAYED`` or its fallback cause)."""
    problems, paths = [], {}
    runners: dict[str, tuple[SampledRunner, SampledRunner]] = {}
    for name in timing:
        config = TIMING_CONFIGS[name]
        family = config.arch_key()
        if family not in runners:
            runners[family] = (SampledRunner(config), OracleRunner(config))
        runner, oracle_runner = runners[family]
        sampled = runner.run(image, plan, max_instructions, config=config)
        paths[name] = runner.path
        oracle = oracle_runner.run(image, plan, max_instructions,
                                   config=config)
        problems += _describe_record_diff(
            oracle.to_record(), sampled.to_record(), f"sampled {name}")
    return problems, paths


def _describe_record_diff(accurate: dict, replayed: dict,
                          name: str) -> list[str]:
    if _canonical(accurate) == _canonical(replayed):
        return []
    diffs = []
    for key in sorted(set(accurate) | set(replayed)):
        if _canonical(accurate.get(key)) != _canonical(replayed.get(key)):
            diffs.append(f"timing[{name}] {key}: "
                         f"accurate={_canonical(accurate.get(key))[:200]} "
                         f"replayed={_canonical(replayed.get(key))[:200]}")
    return diffs


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _compare(state_a: ArchState, report_a: SimReport, sim: Simulator,
             report: SimReport, label: str) -> list[str]:
    problems = []
    state = ArchState.capture(sim)
    if state_a != state:
        problems.extend(_describe_state_diff(state_a, state, label))
    if report_a.uart_output != report.uart_output:
        problems.append(
            f"uart: accurate={report_a.uart_output.hex()} "
            f"{label}={report.uart_output.hex()}")
    if report_a.result_word != report.result_word:
        problems.append(
            f"result_word: accurate={report_a.result_word} "
            f"{label}={report.result_word}")
    if report_a.instructions != report.instructions:
        problems.append(
            f"instructions: accurate={report_a.instructions} "
            f"{label}={report.instructions}")
    return problems


def _describe_state_diff(a: ArchState, b: ArchState,
                         label: str = "functional") -> list[str]:
    diffs = []
    for name in ("pc", "npc", "annul", "halted", "error_tt", "psr", "wim",
                 "tbr", "y", "cwp", "retired", "traps_taken"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            diffs.append(f"{name}: accurate={va} {label}={vb}")
    if a.globals_ != b.globals_:
        for i, (va, vb) in enumerate(zip(a.globals_, b.globals_)):
            if va != vb:
                diffs.append(f"%g{i}: accurate={va:#x} {label}={vb:#x}")
    if a.window_regs != b.window_regs:
        for i, (va, vb) in enumerate(zip(a.window_regs, b.window_regs)):
            if va != vb:
                diffs.append(
                    f"window slot {i}: accurate={va:#x} {label}={vb:#x}")
    if a.asr != b.asr:
        diffs.append(f"asr: accurate={a.asr} {label}={b.asr}")
    for name in set(a.memory) | set(b.memory):
        blob_a, blob_b = a.memory.get(name), b.memory.get(name)
        if blob_a != blob_b:
            where = next(i for i, (x, y)
                         in enumerate(zip(blob_a, blob_b)) if x != y)
            diffs.append(f"memory '{name}' first differs at +{where:#x}")
    for name in set(a.peripherals) | set(b.peripherals):
        if a.peripherals.get(name) != b.peripherals.get(name):
            diffs.append(
                f"peripheral '{name}': accurate={a.peripherals.get(name)} "
                f"{label}={b.peripherals.get(name)}")
    return diffs or [f"ArchState differs (unattributed field, {label})"]
