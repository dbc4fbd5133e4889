"""The benchmark's four workloads.

Each workload compiles its images and builds its configuration space in
:meth:`~BenchWorkload.setup`, then runs one closed-loop *pass* per call
to :meth:`~BenchWorkload.run_pass`: serial, one point in flight,
``SweepRunner(workers=0)``.  A pass checks every simulated answer and
returns a :class:`PassResult` carrying its operation counts, the
simulated instructions its answers cover, a sha256 over its canonical
records and the exact ``count.*`` statistics read from those records.

An *operation* is one configuration point or one whole-program run.  It
fails on an exception, a watchdog, a wrong RESULT word or a failed
workload-level check; failures are counted, never raised.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import ArchitectureConfig, ConfigurationSpace, ResultCache, SweepRunner
from repro.core.sampling import SamplingPlan
from repro.toolchain import driver
from repro.workloads import all_workloads, get

#: The paper's Figure 7 kernel: a 32-byte-strided sweep over a 4 KB
#: array, ~3 100 iterations.  The array's initial contents come from the
#: benchmark seed; the loop never depends on them, so every seed runs
#: the same instruction and address stream.
FIGURE7_SOURCE = r"""
unsigned count[1024] = {
%s
};

int main(void) {
    unsigned i;
    unsigned address;
    volatile unsigned x;
    for (i = 0; i < %d; i = i + 32) {
        address = i %% 1024;
        x = count[address];
    }
    return 0;
}
"""

FIGURE7_ITERATIONS = 100_000

#: The ``bench_workload_matrix`` instruction budget per point.
MATRIX_MAX_INSTRUCTIONS = 2_000_000


def figure7_source(seed: int, iterations: int = FIGURE7_ITERATIONS) -> str:
    rng = random.Random(f"fig8:{seed}")
    values = [rng.randrange(1 << 32) for _ in range(1024)]
    rows = ",\n".join("    " + ", ".join(str(v) for v in values[i:i + 16])
                      for i in range(0, len(values), 16))
    return FIGURE7_SOURCE % (rows, iterations)


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


#: The ``count.*`` statistics a pass reads from its records (zero where
#: a workload's records do not carry them).
COUNTS = (
    "count.instret", "count.cycles", "count.dcache.read_misses",
    "count.dcache.read_hits", "count.icache.read_misses",
    "count.ahb.wait_states", "count.sram.reads",
    "count.sampling.accurate_steps", "count.sampling.ff_steps",
    "count.sampling.checkpoints", "count.resultcache.stores",
    "count.resultcache.disk_hits",
)


def point_counts(points) -> Counter:
    """The exact ``count.*`` statistics a list of sweep points carries
    in its records (cycles, cache and bus counters, sampling steps)."""
    counts: Counter = Counter()
    for point in points:
        counters = point.obs.get("counters", {})
        counts["count.instret"] += point.instructions
        counts["count.cycles"] += point.cycles
        counts["count.dcache.read_misses"] += point.dcache["read_misses"]
        counts["count.dcache.read_hits"] += point.dcache["read_hits"]
        counts["count.icache.read_misses"] += point.icache["read_misses"]
        counts["count.ahb.wait_states"] += counters.get(
            "bus.ahb.wait_states", 0)
        counts["count.sram.reads"] += counters.get("mem.sram.reads", 0)
        counts["count.sampling.accurate_steps"] += (
            counters.get("sampling.ramp_steps", 0)
            + counters.get("sampling.measured_steps", 0))
        counts["count.sampling.ff_steps"] += counters.get(
            "sampling.ff_steps", 0)
        counts["count.sampling.checkpoints"] += counters.get(
            "sampling.checkpoints", 0)
    return counts


@dataclass
class PassResult:
    """What one pass did and whether its answers were right."""

    attempted: int
    failed: int = 0
    #: Simulated instructions the pass's answers cover.
    instructions: int = 0
    #: sha256 over the pass's canonical simulated records.
    fingerprint: str = ""
    counts: Counter = field(default_factory=Counter)
    #: ``stream_sampled`` only: mean of ``cycles_ci_half / estimate``.
    ci_rel: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail_all(self, reason: str) -> None:
        self.failed = self.attempted
        self.errors.append(reason)


class BenchWorkload:
    """One named workload: ``setup()`` once, then ``run_pass()`` per pass.

    *phase* in :meth:`run_pass` is a context-manager factory the traced
    run uses to mark benchmark-level phases; timed passes get a no-op.
    """

    name = ""
    #: Operations one pass attempts (used when a pass raises).
    operations = 1

    def __init__(self, seed: int, checkout: Path):
        self.seed = seed
        self.checkout = checkout

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, phase=None) -> PassResult:
        phase = phase or (lambda name: nullcontext())
        try:
            return self._run(phase)
        except Exception as exc:  # counted as failed operations
            result = PassResult(attempted=self.operations)
            result.fail_all(f"{type(exc).__name__}: {exc}")
            return result

    def _run(self, phase) -> PassResult:
        raise NotImplementedError


class Fig8Exact(BenchWorkload):
    """The Figure-7 kernel over the paper's five D-cache sizes, full
    detail, through a fresh in-memory ResultCache."""

    name = "fig8_exact"

    def __init__(self, seed: int, checkout: Path,
                 iterations: int = FIGURE7_ITERATIONS):
        super().__init__(seed, checkout)
        self.iterations = iterations

    def setup(self) -> None:
        self.image = driver.compile_c_program(
            figure7_source(self.seed, self.iterations))
        self.space = ConfigurationSpace.paper_cache_sweep()
        self.operations = self.space.size

    def _run(self, phase) -> PassResult:
        outcome = SweepRunner(workers=0, cache=ResultCache()).sweep(
            self.space, self.image)
        points = outcome.points
        result = PassResult(attempted=len(points))
        for point in points:
            if point.result_word != 0:
                result.failed += 1
                result.errors.append(
                    f"{point.config.key()}: RESULT {point.result_word}")
        if outcome.stats.simulated != len(points):
            result.fail_all("cold sweep served points from a cache")
        cycles = {p.config.dcache.size: p.cycles for p in points}
        if not (cycles[1024] == cycles[2048] > cycles[4096]
                == cycles[8192] == cycles[16384]):
            result.fail_all(f"Figure-8 shape lost: {cycles}")
        result.instructions = sum(p.instructions for p in points)
        result.fingerprint = sha256_lines(p.canonical_json() for p in points)
        result.counts = point_counts(points)
        return result


def matrix_space() -> ConfigurationSpace:
    """The ``bench_workload_matrix`` space: D-cache 1K/8K x multiplier
    iterative/16x16."""
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 8192])
    space.add_dimension("multiplier", ["iterative", "16x16"])
    return space


class MatrixExact(BenchWorkload):
    """The short registry kernels x the 2x2 matrix space, full detail,
    through a disk ResultCache in a fresh directory, then a rerun
    through a new ResultCache over the same directory."""

    name = "matrix_exact"

    def __init__(self, seed: int, checkout: Path,
                 kernels: tuple[str, ...] | None = None):
        super().__init__(seed, checkout)
        self.kernel_names = kernels

    def setup(self) -> None:
        self.kernels = (all_workloads() if self.kernel_names is None
                        else [get(name) for name in self.kernel_names])
        for kernel in self.kernels:
            kernel.image(self.seed)
        self.space = matrix_space()
        self.operations = 2 * len(self.kernels) * self.space.size

    def _run(self, phase) -> PassResult:
        cache_dir = Path(tempfile.mkdtemp(prefix=".perfbench-matrix-",
                                          dir=self.checkout))
        try:
            return self._sweep_twice(cache_dir, phase)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _sweep_twice(self, cache_dir: Path, phase) -> PassResult:
        cold_cache = ResultCache(cache_dir)
        cold = SweepRunner(workers=0, cache=cold_cache).sweep_matrix(
            self.kernels, self.space, seed=self.seed,
            max_instructions=MATRIX_MAX_INSTRUCTIONS)
        with phase("resultcache.rerun"):
            rerun_cache = ResultCache(cache_dir)
            rerun = SweepRunner(workers=0, cache=rerun_cache).sweep_matrix(
                self.kernels, self.space, seed=self.seed,
                max_instructions=MATRIX_MAX_INSTRUCTIONS)
        cells = cold.cells
        result = PassResult(attempted=len(cells) + len(rerun.cells))
        for cell in cold.failed_checks() + rerun.failed_checks():
            result.failed += 1
            result.errors.append(
                f"{cell.workload} {cell.point.config.key()}: wrong RESULT")
        if cold.stats.simulated != cold.stats.points:
            result.fail_all("cold matrix served points from a cache")
        if rerun.stats.disk_hits != rerun.stats.points:
            result.fail_all("rerun was not all disk hits")
        canonical = cold.canonical_json()
        if rerun.canonical_json() != canonical:
            result.fail_all("rerun canonical_json differs")
        result.instructions = sum(c.point.instructions for c in cells)
        result.fingerprint = sha256_lines([canonical])
        result.counts = point_counts(c.point for c in cells)
        result.counts["count.resultcache.stores"] = cold_cache.stats.stores
        result.counts["count.resultcache.disk_hits"] = (
            rerun_cache.stats.disk_hits)
        return result


class StreamSampled(BenchWorkload):
    """A long kernel sampled over a four-point D-cache family with the
    ``bench_sampling`` plan; one shared SampledRunner per family."""

    name = "stream_sampled"

    def __init__(self, seed: int, checkout: Path,
                 kernel: str = "xtea_stream",
                 plan: SamplingPlan = SamplingPlan(
                     n_windows=24, window_length=1000, ramp_length=2048,
                     seed=0),
                 sizes: tuple[int, ...] = (1024, 2048, 4096, 8192)):
        super().__init__(seed, checkout)
        self.kernel = get(kernel)
        self.plan = plan
        self.sizes = sizes

    def setup(self) -> None:
        self.image = self.kernel.image(self.seed)
        self.space = ConfigurationSpace(ArchitectureConfig())
        self.space.add_dimension("dcache_size", list(self.sizes))
        self.operations = self.space.size

    def _run(self, phase) -> PassResult:
        outcome = SweepRunner(workers=0).sweep(
            self.space, self.image,
            max_instructions=self.kernel.max_instructions,
            sampling=self.plan)
        points = outcome.points
        result = PassResult(attempted=len(points))
        for point in points:
            if not self.kernel.check(point.result_word, self.seed):
                result.failed += 1
                result.errors.append(f"{point.config.key()}: wrong RESULT")
        if outcome.stats.simulated != len(points):
            result.fail_all("sampled sweep served points from a cache")
        totals = {p.sampled["total_instructions"] for p in points}
        if len(totals) != 1:
            result.fail_all(f"points disagree on total_instructions {totals}")
        result.ci_rel = sum(
            p.sampled["cycles_ci_half"] / p.sampled["estimated_cycles"]
            for p in points) / len(points)
        result.instructions = sum(p.instructions for p in points)
        result.fingerprint = sha256_lines(p.canonical_json() for p in points)
        result.counts = point_counts(points)
        return result


class StreamArch(BenchWorkload):
    """``self_check(engine="translated")`` of a long kernel: the public
    whole-program architectural run."""

    name = "stream_arch"

    def __init__(self, seed: int, checkout: Path,
                 kernel: str = "fir_stream"):
        super().__init__(seed, checkout)
        self.kernel = get(kernel)

    def setup(self) -> None:
        self.kernel.image(self.seed)

    def _run(self, phase) -> PassResult:
        check = self.kernel.self_check(engine="translated", seed=self.seed)
        result = PassResult(attempted=1)
        if not check.ok:
            result.fail_all(check.describe())
        result.instructions = check.instructions
        result.fingerprint = sha256_lines([json.dumps(
            dataclasses.asdict(check), sort_keys=True)])
        result.counts["count.instret"] = check.instructions
        result.counts["count.cycles"] = check.cycles
        return result


WORKLOADS = {cls.name: cls
             for cls in (Fig8Exact, MatrixExact, StreamSampled, StreamArch)}
