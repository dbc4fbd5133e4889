"""Regenerate the golden record digests in ``records.json``.

The golden file pins whole-program timing: sha256 digests over the
``canonical_json()`` records of two fixed sweeps, compared by
``test_golden.py`` on every tier-1 run.  A change that moves cycles or
cache statistics on purpose regenerates the file with::

    PYTHONPATH=src python -m tests.golden.regen

and says why in its change log, so the drift shows up as a reviewed
diff instead of passing unseen.

The five sweeps:

* ``fig8`` — ``ConfigurationSpace.paper_cache_sweep()`` (D-cache 1K to
  16K) over the paper's Figure-7 kernel with array seed 0, one digest
  per point, keyed by the point's config key;
* ``matrix`` — ``sweep_matrix`` over the short registry kernels x
  D-cache 1K/8K x multiplier iterative/16x16, one digest over the
  matrix's ``canonical_json()``;
* ``sampled`` — a sampled sweep (:data:`SAMPLING_PLAN`) of ``crc32``,
  ``ipcheck`` and :data:`CONFLICT_SOURCE` over :func:`sampled_configs`:
  D-cache 1K and 4K direct-mapped, 1K 2-way D-cache and 512-byte 2-way
  I-cache under each replacement policy, and the iterative multiplier;
  one digest per kernel and config label.  ``crc32`` never evicts a
  D-cache line, so the conflict kernel is what makes the three
  policies disagree inside a D-cache window, and ``ipcheck`` inside an
  I-cache window;
* ``icache`` — a full-detail sweep of ``qsort_rec``, ``des_round`` and
  ``ipcheck`` over :func:`icache_configs`: direct-mapped I-caches from
  512 bytes to 16 KB, a 1 KB I-cache with 16-byte lines, and a 1 KB
  2-way I-cache under each replacement policy; one digest per kernel
  and config label.  Their I-cache misses move with size
  (``qsort_rec`` reads 491 at 512 bytes and 250 at 16 KB);
* ``difftest`` — the replayed records of the difftest's default seeded
  programs, each under stock timing and the extra configuration whose
  turn it is (``harness.timing_for``), one digest over all of them.
  The difftest proves each equal to the accurate engine's; this pins
  them, so both engines drifting together shows too.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from dataclasses import replace

from repro.cache.cache import CacheGeometry
from repro.core import ArchitectureConfig, ConfigurationSpace, SweepRunner
from repro.core.sampling import SamplingPlan
from repro.toolchain import driver
from repro.workloads import all_workloads, get
from tests.difftest import gen, harness

GOLDEN = Path(__file__).with_name("records.json")

#: The paper's Figure-7 kernel: a 32-byte-strided sweep over a 4 KB
#: array.  The array's contents come from the seed; the loop never
#: depends on them.
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
FIGURE7_SEED = 0
FIGURE7_ITERATIONS = 100_000


def figure7_image():
    rng = random.Random(f"fig8:{FIGURE7_SEED}")
    values = [rng.randrange(1 << 32) for _ in range(1024)]
    rows = ",\n".join("    " + ", ".join(str(v) for v in values[i:i + 16])
                      for i in range(0, len(values), 16))
    return driver.compile_c_program(
        FIGURE7_SOURCE % (rows, FIGURE7_ITERATIONS))


def matrix_space() -> ConfigurationSpace:
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 8192])
    space.add_dimension("multiplier", ["iterative", "16x16"])
    return space


#: Three lines that share one set of a 1K 2-way D-cache, read around a
#: hot line in the same set: LRU keeps the hot line, LRR and random
#: evict it now and then.
CONFLICT_SOURCE = r"""
unsigned lines[1024];

int main(void) {
    unsigned i;
    unsigned j = 0;
    unsigned sum = 0;
    for (i = 0; i < 600; i = i + 1) {
        sum = sum + lines[0];
        sum = sum + lines[128 + j];
        j = j + 128;
        if (j == 384) {
            j = 0;
        }
    }
    return sum;
}
"""

SAMPLING_PLAN = SamplingPlan(n_windows=3, window_length=400,
                             ramp_length=256, seed=5)


def sampled_configs() -> dict[str, ArchitectureConfig]:
    """The sampled sweep's configs by label (``config.key()`` does not
    tell ``lru`` from ``lrr``)."""
    base = ArchitectureConfig()
    configs = {"dc1k": base.with_dcache_size(1024),
               "dc4k": base.with_dcache_size(4096)}
    for policy in ("lru", "lrr", "random"):
        configs[f"dc1k-2w-{policy}"] = replace(base, dcache=CacheGeometry(
            size=1024, line_size=32, ways=2, replacement=policy))
        configs[f"ic512-2w-{policy}"] = replace(base, icache=CacheGeometry(
            size=512, line_size=32, ways=2, replacement=policy))
    configs["mul-iterative"] = replace(base, multiplier="iterative")
    return configs


#: Kernels whose I-cache misses move with the I-cache size.
ICACHE_KERNELS = ("qsort_rec", "des_round", "ipcheck")


def icache_configs() -> dict[str, ArchitectureConfig]:
    """The I-cache sweep's configs by label."""
    base = ArchitectureConfig()
    configs = {}
    for size in (512, 1024, 2048, 4096, 8192, 16384):
        label = f"ic{size}" if size < 1024 else f"ic{size // 1024}k"
        configs[label] = replace(base, icache=CacheGeometry(size=size))
    configs["ic1k-16b"] = replace(base, icache=CacheGeometry(
        size=1024, line_size=16))
    for policy in ("lru", "lrr", "random"):
        configs[f"ic1k-2w-{policy}"] = replace(base, icache=CacheGeometry(
            size=1024, line_size=32, ways=2, replacement=policy))
    return configs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(runner: SweepRunner | None = None) -> dict:
    """The golden digests, computed by *runner* (a fresh serial runner
    by default)."""
    runner = runner or SweepRunner(workers=0)
    fig8 = runner.sweep(ConfigurationSpace.paper_cache_sweep(),
                        figure7_image())
    matrix = runner.sweep_matrix(all_workloads(), matrix_space())
    configs = sampled_configs()
    sampled = {}
    for kernel, image in (("crc32", get("crc32").image(0)),
                          ("ipcheck", get("ipcheck").image(0)),
                          ("conflict",
                           driver.compile_c_program(CONFLICT_SOURCE))):
        outcome = runner.sweep(list(configs.values()), image,
                               sampling=SAMPLING_PLAN)
        for label, point in zip(configs, outcome.points):
            sampled[f"{kernel}/{label}"] = sha256(point.canonical_json())
    configs = icache_configs()
    icache = {}
    for kernel in ICACHE_KERNELS:
        outcome = runner.sweep(list(configs.values()), get(kernel).image(0))
        for label, point in zip(configs, outcome.points):
            icache[f"{kernel}/{label}"] = sha256(point.canonical_json())
    difftest = []
    for seed in range(harness.DEFAULT_PROGRAMS):
        configs = [harness.TIMING_CONFIGS[name]
                   for name in harness.timing_for(seed)]
        outcome = runner.sweep(configs, harness.build(gen.generate(seed)),
                               harness.MAX_INSTRUCTIONS)
        difftest += [point.canonical_json() for point in outcome.points]
    return {
        "fig8": {point.config.key(): sha256(point.canonical_json())
                 for point in fig8.points},
        "matrix": sha256(matrix.canonical_json()),
        "sampled": sampled,
        "icache": icache,
        "difftest": sha256("\n".join(difftest)),
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
