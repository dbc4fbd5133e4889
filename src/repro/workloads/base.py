"""Workload registry: self-checking kernels for the measurement loop.

The paper's claim is that reconfiguring the architecture *per
application* pays off — which is only measurable with more than one
application.  A :class:`Workload` packages one kernel written in the
in-repo C dialect together with everything a harness needs to use it
unattended:

* a seeded **input generator** (deterministic, embedded into the C
  source as initialized globals — no runtime input loading),
* a pure-Python **reference model** computing the expected RESULT word,
* a **self-check predicate** over the RESULT word, so any consumer
  (difftest, sweeps, CI) can verify a run without golden files,
* declared metadata: workload class, memory footprint, and the
  configuration axis the kernel is expected to be sensitive to.

Workloads register themselves into :data:`REGISTRY` at import time (the
kernel modules are imported by ``repro.workloads.__init__``).  Every
registry program doubles as a correctness oracle for both execution
engines: ``tests/difftest`` adopts them as real-program seeds, and
:meth:`~repro.core.sweep.SweepRunner.sweep_matrix` self-checks every
sweep point against the predicate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.utils import u32

#: The workload classes the registry spans (the paper's "diverse
#: application classes"); registration validates against this set.
CLASSES = ("crypto", "dsp", "packet", "sort", "search")

#: Default seed used wherever one workload instantiation stands for the
#: kernel (difftest seeds, matrix sweeps, examples).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One self-checking kernel in the registry."""

    name: str
    wclass: str
    description: str
    #: ConfigurationSpace dimension this kernel is expected to be most
    #: sensitive to — the declared hypothesis a matrix sweep tests.
    sweep_axis: str
    #: seed -> named input values (plain ints/lists, JSON-able).
    generate: Callable[[int], dict]
    #: input -> mini-C translation unit with the input data embedded.
    render: Callable[[dict], str]
    #: input -> expected RESULT word as an unsigned 32-bit value.
    reference: Callable[[dict], int]
    #: Static data the kernel touches (bytes), for footprint metadata.
    footprint: Callable[[dict], int]
    #: Whether the kernel recurses deep enough to take register-window
    #: overflow/underflow traps (difftest's trap-parity spot check).
    takes_window_traps: bool = False
    #: Instruction budget that comfortably covers one run.
    max_instructions: int = 2_000_000
    #: Long-running variant (~1M+ steps) meant for sampled simulation
    #: and throughput benchmarks.  Excluded from :func:`all_workloads`
    #: by default so difftest/matrix consumers keep their fast set.
    long_running: bool = False

    # ------------------------------------------------------------------

    def input_for(self, seed: int = DEFAULT_SEED) -> dict:
        return self.generate(seed)

    def c_source(self, seed: int = DEFAULT_SEED) -> str:
        return self.render(self.input_for(seed))

    def image(self, seed: int = DEFAULT_SEED):
        """Compile to a loadable image (memoised per (name, seed))."""
        return _compile_cached(self.name, seed)

    def expected(self, seed: int = DEFAULT_SEED) -> int:
        """The RESULT word the kernel must produce, as u32."""
        return u32(self.reference(self.input_for(seed)))

    def check(self, result_word: int | None,
              seed: int = DEFAULT_SEED) -> bool:
        """The self-check predicate: does a run's RESULT word match the
        reference model?"""
        if result_word is None:
            return False
        return u32(result_word) == self.expected(seed)

    def footprint_bytes(self, seed: int = DEFAULT_SEED) -> int:
        return self.footprint(self.input_for(seed))

    def analyze(self, seed: int = DEFAULT_SEED):
        """Run the machine-code verifier over the compiled image.

        Returns the :class:`~repro.analysis.diagnostics.DiagnosticReport`
        with the workload's name as its subject.  Registry kernels are
        expected to analyze error-free — CI's lint job enforces it.
        """
        from repro.analysis.verify import analyze_image

        return analyze_image(self.image(seed), subject=self.name).report

    def self_check(self, engine: str = "accurate",
                   seed: int = DEFAULT_SEED) -> "SelfCheckResult":
        """Compile, run on one engine, verify the RESULT word.

        ``engine`` is ``'accurate'`` (cycle-accurate IntegerUnit) or
        ``'translated'`` (block-translating fast path).
        """
        from repro.core.sim import Simulator

        if engine not in ("accurate", "translated"):
            raise ValueError(f"unknown engine '{engine}'")
        sim = Simulator(obs=False)
        runner = sim.run if engine == "accurate" else sim.run_translated
        report = runner(self.image(seed),
                        max_instructions=self.max_instructions)
        return SelfCheckResult(
            workload=self.name, engine=engine, seed=seed,
            ok=self.check(report.result_word, seed),
            result_word=(None if report.result_word is None
                         else u32(report.result_word)),
            expected=self.expected(seed),
            instructions=report.instructions, cycles=report.cycles)


@dataclass(frozen=True)
class SelfCheckResult:
    """Outcome of one self-checked run."""

    workload: str
    engine: str
    seed: int
    ok: bool
    result_word: int | None
    expected: int
    instructions: int
    cycles: int

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        got = ("none" if self.result_word is None
               else f"{self.result_word:#010x}")
        return (f"{self.workload:<12} [{self.engine}] seed={self.seed} "
                f"{status}: result={got} expected={self.expected:#010x} "
                f"({self.instructions} instructions)")


@lru_cache(maxsize=128)
def _compile_cached(name: str, seed: int):
    from repro.toolchain.driver import compile_c_program

    workload = REGISTRY[name]
    return compile_c_program(workload.c_source(seed))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add *workload* to the registry (kernel modules call this at
    import time).  Validates the declared class and sweep axis."""
    from repro.core.space import DIMENSION_SETTERS

    if workload.wclass not in CLASSES:
        raise ValueError(f"unknown workload class '{workload.wclass}' "
                         f"(have {CLASSES})")
    if workload.sweep_axis not in DIMENSION_SETTERS:
        raise ValueError(f"unknown sweep axis '{workload.sweep_axis}' "
                         f"(have {sorted(DIMENSION_SETTERS)})")
    if workload.name in REGISTRY:
        raise ValueError(f"duplicate workload '{workload.name}'")
    REGISTRY[workload.name] = workload
    return workload


def get(name: str) -> Workload:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload '{name}' "
                       f"(have {sorted(REGISTRY)})") from None


def all_workloads(include_long: bool = False) -> list[Workload]:
    """Every registered workload, in registration order.

    Long-running kernels (``long_running=True``) are excluded unless
    *include_long* is set — they exist for sampled simulation and
    benchmarks, not for the fast difftest/matrix set.
    """
    return [w for w in REGISTRY.values()
            if include_long or not w.long_running]


def by_class(include_long: bool = False) -> dict[str, list[Workload]]:
    """Registered workloads grouped by class, registration order kept."""
    grouped: dict[str, list[Workload]] = {}
    for workload in all_workloads(include_long=include_long):
        grouped.setdefault(workload.wclass, []).append(workload)
    return grouped


# ---------------------------------------------------------------------------
# Shared generator / rendering helpers for the kernel modules
# ---------------------------------------------------------------------------


def rng_for(name: str, seed: int) -> random.Random:
    """A deterministic RNG stream, independent per (workload, seed)."""
    return random.Random(f"{name}:{seed}")


def c_array(ctype: str, name: str, values: list[int],
            per_line: int = 10) -> str:
    """Render ``ctype name[N] = {...};`` with sane line lengths."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append("    " + ", ".join(str(v) for v in chunk))
    body = ",\n".join(lines)
    return f"{ctype} {name}[{len(values)}] = {{\n{body}\n}};"


def rol32(value: int, amount: int) -> int:
    value = u32(value)
    amount &= 31
    return u32((value << amount) | (value >> (32 - amount)))


def mix_digest(digest: int, word: int) -> int:
    """The digest step the kernels share: rotate-xor-add, in u32."""
    digest = rol32(digest, 5)
    return u32(digest ^ u32(word))
