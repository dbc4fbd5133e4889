"""Two-speed execution engine: throughput checks.

The claim of record for the fast path: warming the Figure 8 workload on
the :class:`~repro.cpu.fastpath.FunctionalUnit` sustains at least 5x the
instruction throughput of the cycle-accurate engine, and the block
translator at least 5x the functional engine.  Wall-clock rates go into
``benchmark.extra_info`` so ``pytest benchmarks/bench_fastpath.py
--benchmark-only -s`` prints the comparison.
"""

from __future__ import annotations

import time

from repro.core.sim import Simulator
from repro.cpu.archstate import ArchState
from repro.cpu.blockcache import TranslatedUnit
from repro.cpu.fastpath import FunctionalUnit
from repro.workloads import get

from .conftest import figure7_image, print_table

#: Acceptance floor: functional steps/s over accurate instructions/s.
SPEEDUP_FLOOR = 5.0
#: Acceptance floors for the block translator: translated steps/s over
#: functional steps/s, and over accurate instructions/s.
TRANSLATED_FLOOR = 5.0
TRANSLATED_ACCURATE_FLOOR = 25.0
#: Ceiling on what the public run_translated may add to the bare
#: engine: its wall time over quiet fast_forward wall time for the same
#: whole program.
MIX_OVERHEAD_CEILING = 2.0
WARMUP_BUDGET = 60_000
ROUNDS = 3


def _accurate_rate(image) -> tuple[float, int]:
    best, instructions = 0.0, 0
    for _ in range(ROUNDS):
        sim = Simulator()
        start = time.perf_counter()
        report = sim.run(image)
        elapsed = time.perf_counter() - start
        best = max(best, report.instructions / elapsed)
        instructions = report.instructions
    return best, instructions


def _functional_rate(image) -> tuple[float, int]:
    best, steps = 0.0, 0
    for _ in range(ROUNDS):
        sim = Simulator()
        start = time.perf_counter()
        # A checkpoint warmed on the single-instruction functional path
        # (SampledRunner's checkpoint pass uses the translated engine).
        fast = sim._fast_unit(FunctionalUnit)
        sim._dispatch_on(fast, image)
        fast.fast_forward(WARMUP_BUDGET, stop_pc=sim.rom_info.poll_address)
        sim._sync_from_functional(fast)
        ArchState.capture(sim)
        elapsed = time.perf_counter() - start
        steps = fast.cycles
        best = max(best, steps / elapsed)
    return best, steps


def _steady_rate(image, engine: str) -> float:
    """Steady-state fast_forward throughput (steps/s): boot, let the
    engine warm its caches (decode memo, block cache), then time a fixed
    step budget.  The same methodology for both fast engines, so the
    ratio is free of boot/checkpoint overhead."""
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator()
        eng = sim._fast_unit(
            FunctionalUnit if engine == "fast" else TranslatedUnit)
        sim._dispatch_on(eng, image)
        poll = sim.rom_info.poll_address
        eng.fast_forward(2_000, stop_pc=poll)
        start = time.perf_counter()
        steps = eng.fast_forward(WARMUP_BUDGET, stop_pc=poll)
        elapsed = time.perf_counter() - start
        best = max(best, steps / elapsed)
    return best


def test_translated_throughput_floor(benchmark):
    """Block translator vs single-instruction dispatch vs accurate: the
    translated engine must sustain at least 5x the functional engine's
    steady-state step rate (and 25x the accurate engine) on the fig8
    kernel."""
    image = figure7_image()
    accurate_rate, _ = _accurate_rate(image)
    functional_rate = _steady_rate(image, "fast")

    result = {}

    def measure():
        result["rate"] = _steady_rate(image, "translated")
        return result["rate"]

    translated_rate = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = translated_rate / functional_rate
    vs_accurate = translated_rate / accurate_rate
    benchmark.extra_info["functional_steps_per_s"] = round(functional_rate)
    benchmark.extra_info["translated_steps_per_s"] = round(translated_rate)
    benchmark.extra_info["speedup_vs_functional"] = round(speedup, 2)
    benchmark.extra_info["speedup_vs_accurate"] = round(vs_accurate, 2)
    print_table(
        "Block translation throughput (fig8 kernel)",
        ["engine", "rate (steps/s)", "speedup"],
        [["cycle-accurate", f"{accurate_rate:,.0f}", "1x"],
         ["functional", f"{functional_rate:,.0f}",
          f"{functional_rate / accurate_rate:.1f}x"],
         ["translated", f"{translated_rate:,.0f}",
          f"{speedup:.2f}x functional / {vs_accurate:.1f}x accurate"]])
    assert speedup >= TRANSLATED_FLOOR, (
        f"block translation is only {speedup:.2f}x the functional engine "
        f"(floor {TRANSLATED_FLOOR}x)")
    assert vs_accurate >= TRANSLATED_ACCURATE_FLOOR, (
        f"block translation is only {vs_accurate:.1f}x the accurate "
        f"engine (floor {TRANSLATED_ACCURATE_FLOOR}x)")


def _whole_program_seconds(image) -> tuple[float, float]:
    """Best-of-ROUNDS wall times of boot + dispatch + the whole program
    on the translated engine, as (bare ``fast_forward``, public
    ``run_translated``).  The two paths
    alternate round by round so host-speed drift hits both alike."""
    quiet = hooked = float("inf")
    for _ in range(ROUNDS):
        sim = Simulator()
        start = time.perf_counter()
        engine = sim.translated_unit()
        sim._dispatch_on(engine, image)
        engine.fast_forward(50_000_000, stop_pc=sim.rom_info.poll_address)
        quiet = min(quiet, time.perf_counter() - start)
        sim = Simulator()
        start = time.perf_counter()
        sim.run_translated(image)
        hooked = min(hooked, time.perf_counter() - start)
    return quiet, hooked


def test_run_translated_mix_overhead_ceiling(benchmark):
    """The public run_translated path stays within 2x of the quiet
    engine on the same image in the same process.  It reports no
    instruction mix (a translated mix is folded from a recording after
    the run), so the gate keeps per-block bookkeeping from coming back
    into it: a per-retired-instruction hook cost ~5.7x on this kernel,
    a per-block one ~1.1x."""
    image = get("fir_stream").image()
    quiet, hooked = benchmark.pedantic(_whole_program_seconds,
                                       args=(image,), rounds=1,
                                       iterations=1)
    ratio = hooked / quiet
    benchmark.extra_info["quiet_s"] = round(quiet, 3)
    benchmark.extra_info["hooked_s"] = round(hooked, 3)
    benchmark.extra_info["overhead"] = round(ratio, 2)
    print_table(
        "run_translated mix bookkeeping (fir_stream, whole program)",
        ["path", "seconds", "ratio"],
        [["fast_forward, no hooks", f"{quiet:.3f}", "1x"],
         ["run_translated", f"{hooked:.3f}", f"{ratio:.2f}x"]])
    assert ratio <= MIX_OVERHEAD_CEILING, (
        f"run_translated is {ratio:.2f}x the quiet engine "
        f"(ceiling {MIX_OVERHEAD_CEILING}x)")


def test_fastpath_throughput_floor(benchmark):
    """Functional warmup vs cycle-accurate execution on the fig8 kernel."""
    image = figure7_image()
    accurate_rate, instructions = _accurate_rate(image)

    result = {}

    def measure():
        result["rate"], result["steps"] = _functional_rate(image)
        return result["rate"]

    functional_rate = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = functional_rate / accurate_rate
    benchmark.extra_info["accurate_instr_per_s"] = round(accurate_rate)
    benchmark.extra_info["functional_steps_per_s"] = round(functional_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print_table(
        "Two-speed engine throughput (fig8 kernel)",
        ["engine", "rate (instr/s)", "work"],
        [["cycle-accurate", f"{accurate_rate:,.0f}", instructions],
         ["functional", f"{functional_rate:,.0f}", result["steps"]],
         ["speedup", f"{speedup:.2f}x", f">= {SPEEDUP_FLOOR}x required"]])
    assert speedup >= SPEEDUP_FLOOR, (
        f"functional fast path is only {speedup:.2f}x the accurate engine "
        f"(floor {SPEEDUP_FLOOR}x)")

