"""Statistical validation of sampled simulation against ground truth.

Every registry kernel gets one cycle-accurate full run (the ground
truth) and ten sampled runs with a per-kernel plan at seeds 0..9.  The
95% confidence interval must contain the truth at roughly its nominal
rate: per-kernel floors are frozen from measured coverage (minus one
run of slack), and the aggregate across all kernels must sit within a
3-sigma binomial tolerance of the nominal 95%.

Everything here is deterministic — fixed seeds, integer simulation —
so the coverage counts are exact, not flaky.  The floors still leave
slack so a legitimate estimator change (better placement, longer
ramps) doesn't need this file edited in lockstep; a *collapse* in
coverage fails loudly.

The per-kernel plans are not arbitrary: window lengths and ramp
lengths were grid-searched per kernel.  Two effects dominate the
tuning:

* windows restored from an architectural checkpoint carry a small
  positive memory-stall bias (cache placement/LRU history is not part
  of an ArchState), so the interval must be wide enough — via honest
  between-window CPI variance — to cover it;
* kernels whose tail barely exceeds ``n_windows x window_length``
  degenerate to contiguous tiling, where ramps have no room and the
  estimate is nearly exact.

Unit-level behavior lives in ``test_sampling.py``; this module is the
slow, statistics-bearing half.
"""

from __future__ import annotations

import functools
import math

import pytest

from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import Simulator
from repro.workloads import get

pytestmark = [pytest.mark.slow, pytest.mark.sampling]

SEEDS = range(10)
CONFIDENCE = 0.95

#: kernel -> ((n_windows, window_length, ramp_length), coverage floor
#: out of ``len(SEEDS)``).  Floors are measured coverage at these
#: exact seeds minus one run of slack.
PLANS: dict[str, tuple[tuple[int, int, int], int]] = {
    "xtea": ((6, 800, 512), 8),
    "des_round": ((4, 1200, 2048), 9),
    "fir": ((8, 400, 1024), 9),
    "crc32": ((8, 400, 256), 9),
    "ipcheck": ((3, 800, 512), 7),
    "qsort_rec": ((8, 400, 256), 7),
    "strsearch": ((8, 400, 256), 8),
}


@functools.lru_cache(maxsize=None)
def _truth(name: str):
    """One cycle-accurate full run: (image, true cycle count)."""
    workload = get(name)
    image = workload.image()
    report = Simulator().run(
        image, max_instructions=workload.max_instructions)
    assert workload.check(report.result_word)
    return image, report.cycles


@functools.lru_cache(maxsize=None)
def _coverage(name: str):
    """Ten sampled runs at seeds 0..9: (covered count, runs)."""
    (n, length, ramp), _ = PLANS[name]
    workload = get(name)
    image, truth = _truth(name)
    covered, runs = 0, []
    for seed in SEEDS:
        plan = SamplingPlan(n_windows=n, window_length=length,
                            ramp_length=ramp, seed=seed,
                            confidence=CONFIDENCE)
        run = SampledRunner().run(
            image, plan, max_instructions=workload.max_instructions)
        assert workload.check(run.result_word)
        covered += bool(run.covers(truth))
        runs.append(run)
    return covered, runs


@pytest.mark.parametrize("name", sorted(PLANS))
def test_per_kernel_coverage_holds_its_floor(name):
    (_, _, _), floor = PLANS[name]
    covered, runs = _coverage(name)
    assert covered >= floor, (
        f"{name}: 95% CI covered truth in {covered}/{len(runs)} runs, "
        f"floor is {floor}")


#: Mean absolute relative error ceiling; recursive quicksort's phase
#: behavior is genuinely high-variance (its CI is honest about it —
#: ~11% half-width), so it gets a wider bound.
ERROR_CEILING = {"qsort_rec": 0.10}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_per_kernel_point_estimates_are_close(name):
    """Coverage aside, the point estimate itself must be close: mean
    absolute relative error across seeds under the kernel's ceiling."""
    _, truth = _truth(name)
    _, runs = _coverage(name)
    errors = [abs(run.estimated_cycles - truth) / truth for run in runs]
    assert sum(errors) / len(errors) < ERROR_CEILING.get(name, 0.05)


def test_aggregate_coverage_within_binomial_tolerance():
    """Across every (kernel, seed) pair the CI must cover truth at the
    nominal rate up to 3-sigma binomial slack: with n trials at
    confidence p, covered >= n*p - 3*sqrt(n*p*(1-p))."""
    trials, covered = 0, 0
    for name in PLANS:
        got, runs = _coverage(name)
        covered += got
        trials += len(runs)
    floor = trials * CONFIDENCE - 3 * math.sqrt(
        trials * CONFIDENCE * (1 - CONFIDENCE))
    assert covered >= floor, (
        f"aggregate coverage {covered}/{trials} below binomial floor "
        f"{floor:.1f}")


class TestDegeneratePlans:
    """Plans that make no statistical claim must stay exact/honest
    rather than fabricating intervals."""

    def test_window_covering_the_whole_program_is_exact(self):
        image, truth = _truth("ipcheck")
        plan = SamplingPlan(n_windows=4, window_length=10_000_000,
                            ramp_length=0)
        run = SampledRunner().run(image, plan)
        # The measured head swallows the entire program: nothing left
        # to estimate, the reconstruction is the truth itself.
        assert not run.windows
        assert run.tail_instructions == 0
        assert run.estimated_cycles == truth
        assert run.covers(truth)

    def test_single_window_claims_no_interval(self):
        image, truth = _truth("crc32")
        plan = SamplingPlan(n_windows=1, window_length=400,
                            ramp_length=256)
        run = SampledRunner().run(image, plan)
        assert len(run.windows) == 1
        assert run.cycles_ci_half is None
        # Vacuous coverage: with no interval there is no claim to
        # falsify, whatever the truth.
        assert run.covers(truth)
        assert run.covers(truth * 100)

    def test_tiny_tail_degenerates_to_contiguous_tiling(self):
        """When n*window_length exceeds the tail, windows tile it
        back-to-back and the estimate is near-exact by construction."""
        image, truth = _truth("ipcheck")
        plan = SamplingPlan(n_windows=8, window_length=6000,
                            ramp_length=512)
        run = SampledRunner().run(image, plan)
        measured = run.head["steps"] + sum(
            w["steps"] for w in run.windows)
        assert measured == run.total_steps
        assert abs(run.estimated_cycles - truth) / truth < 1e-6
