"""Regenerate the golden record digests in ``records.json``.

The golden file pins whole-program timing: sha256 digests over the
``canonical_json()`` records of two fixed sweeps, compared by
``test_golden.py`` on every tier-1 run.  A change that moves cycles or
cache statistics on purpose regenerates the file with::

    PYTHONPATH=src python -m tests.golden.regen

and says why in its change log, so the drift shows up as a reviewed
diff instead of passing unseen.

The two sweeps:

* ``fig8`` — ``ConfigurationSpace.paper_cache_sweep()`` (D-cache 1K to
  16K) over the paper's Figure-7 kernel with array seed 0, one digest
  per point, keyed by the point's config key;
* ``matrix`` — ``sweep_matrix`` over the short registry kernels x
  D-cache 1K/8K x multiplier iterative/16x16, one digest over the
  matrix's ``canonical_json()``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core import ArchitectureConfig, ConfigurationSpace, SweepRunner
from repro.toolchain import driver
from repro.workloads import all_workloads

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(runner: SweepRunner | None = None) -> dict:
    """The golden digests, computed by *runner* (a fresh serial runner
    by default)."""
    runner = runner or SweepRunner(workers=0)
    fig8 = runner.sweep(ConfigurationSpace.paper_cache_sweep(),
                        figure7_image())
    matrix = runner.sweep_matrix(all_workloads(), matrix_space())
    return {
        "fig8": {point.config.key(): sha256(point.canonical_json())
                 for point in fig8.points},
        "matrix": sha256(matrix.canonical_json()),
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
