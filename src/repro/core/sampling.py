"""Sampled cycle-accurate simulation (SMARTS-style).

Whole-program cycle-accurate runs are the bottleneck of long-workload
sweeps.  This module trades a full-detail run for *interleaved phases*
(the sampling scheme of SMARTS, Wunderlich et al., ISCA 2003):

* **fast-forward** — the bulk of the program, executed but not timed,
* **ramp** — a short timed leg that re-warms the caches and pipeline
  after the handoff (the micro-architecture is not part of an
  :class:`~repro.cpu.archstate.ArchState`, so every window starts from
  the canonical flushed state and climbs back to steady state),
* **window** — a small timed measured window contributing one CPI /
  stall / miss observation.

The program's first ``window_length`` steps — the cold start, whose
compulsory misses are *systematically* unlike steady state — are always
measured exactly as a **head** phase rather than estimated, so they
contribute bias-free cycles instead of skewing the window population.

A :class:`SamplingPlan` places ``n_windows`` windows over the remaining
tail in equal strides, each at an independent seeded random offset
(stratified systematic sampling).  :class:`SampledRunner` executes the
plan with one recording pass per placement and architectural family:
the translated engine records the program's step stream
(:func:`~repro.core.replay.record`), stopping at every window boundary,
and each ramp and window is then *replayed* from that stream for the
point's configuration (:meth:`~repro.core.replay.Replayer.window`),
giving exactly the observation the accurate engine's
:func:`measure_window` gives from a restored checkpoint.  Where replay
cannot be exact (a prefetching D-cache, self-modifying code without
FLUSH, a faulting access) the run falls back to that oracle path: a
checkpoint pass capturing an ArchState at every ramp start, and
single-step accurate execution from each.  Either way the run is a pure
function of ``(image, config, plan)`` — byte-identical serially, in
parallel worker processes, and across
:class:`~repro.core.sweep.ResultCache` reruns.  Per-window
observations are combined with CLT confidence intervals (mean ±
z·s/√n per metric) into a whole-program cycle estimate whose claimed
coverage is validated against ground-truth full-detail runs by
``tests/core/test_sampling_stats.py``.

The ``sampling.checkpoints`` counter counts window start positions
(distinct ramp starts), whichever path measured them; the replayed
path captures no ArchState.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace

from repro.core.config import ArchitectureConfig
from repro.core.replay import (
    REPLAYED,
    Replayer,
    ReplayUnsupported,
    record,
    replayable,
)
from repro.core.sim import MixRecorder, Simulator
from repro.cpu.archstate import ArchState
from repro.obs.collect import (
    SAMPLING_SERIES,
    cache_counts,
    simulator_snapshot,
    window_counts,
)
from repro.toolchain.objfile import Image

__all__ = [
    "METRICS",
    "RECORD_SCHEMA",
    "Z_SCORES",
    "Estimate",
    "SampledRun",
    "SampledRunner",
    "SamplingPlan",
    "WindowSpec",
    "estimate_windows",
    "measure_window",
    "place_windows",
    "replay_window",
]

#: Layout version of :meth:`SampledRun.to_record` payloads.
RECORD_SCHEMA = 1

#: Two-sided normal z-scores for the supported confidence levels.
#: Hardcoded (no scipy in the image); values are ``norm.ppf((1+c)/2)``.
Z_SCORES = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
}

#: Per-window ratio metrics the estimator reports, each per retired
#: instruction: cycles (CPI), stall cycles, data-cache misses,
#: instruction-cache misses.
METRICS = ("cpi", "stall_per_instruction", "dmiss_per_instruction",
           "imiss_per_instruction")

#: Default instruction budget for the survey pass.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


def z_score(confidence: float) -> float:
    try:
        return Z_SCORES[confidence]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence!r} "
            f"(have {sorted(Z_SCORES)})") from None


# ---------------------------------------------------------------------------
# Plans and window placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample one program: stratified systematic placement —
    equal strides, one independent seeded offset per stride — which
    dodges periodic-program aliasing without giving up determinism."""

    n_windows: int = 16
    window_length: int = 1_000
    ramp_length: int = 512
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.ramp_length < 0:
            raise ValueError("ramp_length must be >= 0")
        z_score(self.confidence)

    def fingerprint_token(self) -> str:
        """Stable token appended to config fingerprints so sampled
        records never collide with full-detail ones in the cache."""
        return (f"smp{self.n_windows}w{self.window_length}"
                f"r{self.ramp_length}s{self.seed}"
                f"c{round(self.confidence * 100)}")

    def as_dict(self) -> dict:
        return {"n_windows": self.n_windows,
                "window_length": self.window_length,
                "ramp_length": self.ramp_length,
                "seed": self.seed,
                "confidence": self.confidence}


@dataclass(frozen=True)
class WindowSpec:
    """One placed window, in program-step coordinates: the accurate ramp
    covers ``[ramp_start, start)``, the measured window ``[start, end)``."""

    index: int
    ramp_start: int
    start: int
    end: int


#: The head spec's index in window observations (never a statistical
#: window).
HEAD_INDEX = -1


def head_spec(total_steps: int, plan: SamplingPlan) -> WindowSpec:
    """The measured head: ``[0, window_length)`` (clipped to the
    program), always executed cycle-accurately.  The program's cold
    start — compulsory misses, first-touch fills — is *systematically*
    different from steady state, so instead of letting it bias the
    window population it is measured exactly and added to the estimate
    as its own phase."""
    return WindowSpec(HEAD_INDEX, 0, 0, min(plan.window_length, total_steps))


def place_windows(total_steps: int, plan: SamplingPlan,
                  start: int = 0) -> tuple[int, list[WindowSpec]]:
    """Place *plan*'s windows over ``[start, total_steps)``.

    Returns ``(offset, specs)`` where *offset* is the first stride's
    draw.  Stratified systematic placement: the region is divided into
    ``n`` equal strides and every window sits at an *independent* seeded
    random offset inside its stride.  A single shared offset (classic
    systematic sampling) aliases against programs whose phase period
    divides the stride — every window lands at the same phase position,
    the between-window variance collapses, and the CI silently stops
    covering.  Independent per-stride offsets keep placement
    deterministic in ``plan.seed`` while giving each window a fresh
    phase position, so within-run variance honestly reflects program
    heterogeneity.  Windows never overlap and never extend past the
    program; a window at least as long as the region degenerates to one
    whole-region window.
    """
    region = total_steps - start
    if region <= 0:
        return 0, []
    length = plan.window_length
    if length >= region:
        return 0, [WindowSpec(0, start, start, total_steps)]
    n = min(plan.n_windows, max(1, region // length))
    spacing = region / n
    slack = max(int(spacing) - length, 0)
    rng = random.Random(f"sampling:{plan.seed}")
    first_offset = 0
    specs: list[WindowSpec] = []
    prev_end = start
    for i in range(n):
        offset = rng.randrange(slack + 1) if slack else 0
        if i == 0:
            first_offset = offset
        begin = max(start + int(i * spacing) + offset, prev_end)
        end = min(begin + length, total_steps)
        if end <= begin:
            continue
        ramp_start = max(begin - plan.ramp_length, prev_end)
        specs.append(WindowSpec(len(specs), ramp_start, begin, end))
        prev_end = end
    return first_offset, specs


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """One per-instruction metric's CLT estimate over the windows.

    ``std``/``ci_half`` are ``None`` when only one window contributed —
    a single observation has no sample variance, so the estimate is a
    point with no claimed interval (and :meth:`covers` is vacuously
    true, which is the honest reading of "no claim")."""

    metric: str
    mean: float
    std: float | None
    ci_half: float | None
    n: int
    confidence: float

    @property
    def relative(self) -> float:
        """Half-interval relative to the mean (``inf`` with no interval
        or a zero mean)."""
        if self.ci_half is None or self.mean == 0.0:
            return math.inf
        return self.ci_half / abs(self.mean)

    def covers(self, true_value: float) -> bool:
        if self.ci_half is None:
            return True
        return abs(true_value - self.mean) <= self.ci_half

    def to_dict(self) -> dict:
        return {"metric": self.metric, "mean": self.mean, "std": self.std,
                "ci_half": self.ci_half, "n": self.n,
                "confidence": self.confidence}


def _metric_value(window: dict, metric: str) -> float:
    instructions = window["instructions"]
    if metric == "cpi":
        return window["cycles"] / instructions
    if metric == "stall_per_instruction":
        return ((window["fetch_stall_cycles"] + window["mem_stall_cycles"])
                / instructions)
    if metric == "dmiss_per_instruction":
        dcache = window["dcache"]
        return ((dcache["read_misses"] + dcache["write_misses"])
                / instructions)
    if metric == "imiss_per_instruction":
        return window["icache"]["read_misses"] / instructions
    raise ValueError(f"unknown metric '{metric}'")


def estimate_windows(windows: list[dict],
                     confidence: float = 0.95) -> dict[str, Estimate]:
    """CLT estimates over per-window observations, one per metric.

    Pure function of the observation dicts (see :func:`measure_window`
    for their shape), so degenerate inputs — one window, zero variance —
    are testable without a simulator.  Windows that retired zero
    instructions are excluded (their ratios are undefined)."""
    z = z_score(confidence)
    usable = [w for w in windows if w["instructions"] > 0]
    estimates: dict[str, Estimate] = {}
    for metric in METRICS:
        values = [_metric_value(w, metric) for w in usable]
        n = len(values)
        if n == 0:
            continue
        mean = math.fsum(values) / n
        if n > 1:
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
            ci_half = z * std / math.sqrt(n)
        else:
            std = None
            ci_half = None
        estimates[metric] = Estimate(metric=metric, mean=mean, std=std,
                                     ci_half=ci_half, n=n,
                                     confidence=confidence)
    return estimates


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class SampledRun:
    """One sampled execution: the survey totals, every per-window
    observation, the phase ledger partitioning the program, and the CLT
    estimates.  Everything here is simulation-derived and deterministic;
    :meth:`canonical_json` equality is the determinism contract."""

    plan: SamplingPlan
    total_steps: int
    total_instructions: int
    offset: int
    #: The exactly-measured head observation (cold start included).
    head: dict
    windows: list[dict]
    phases: list[dict]
    estimates: dict[str, Estimate]
    result_word: int | None
    uart_hex: str
    #: Auto-mode convergence log (``run_auto``): one entry per round.
    auto: list[dict] | None = None

    @property
    def cpi(self) -> float:
        est = self.estimates.get("cpi")
        return est.mean if est is not None else 0.0

    @property
    def tail_instructions(self) -> int:
        """Retired instructions outside the exactly-measured head — the
        part of the program the windows estimate."""
        return self.total_instructions - self.head["instructions"]

    @property
    def estimated_cycles(self) -> float:
        """Whole-program reconstruction: the head's exact cycles plus
        mean CPI x the tail's exact retired count (retired counts are
        architectural — the survey pass measured them exactly; only the
        tail's cycles are estimated)."""
        return self.head["cycles"] + self.cpi * self.tail_instructions

    @property
    def cycles_ci_half(self) -> float | None:
        est = self.estimates.get("cpi")
        if est is None or est.ci_half is None:
            return None
        return est.ci_half * self.tail_instructions

    def covers(self, true_cycles: float) -> bool:
        """Does the reported interval cover the ground-truth cycle
        count?  Vacuously true when no interval is claimed (n=1)."""
        half = self.cycles_ci_half
        if half is None:
            return True
        return abs(true_cycles - self.estimated_cycles) <= half

    def measured_steps(self) -> int:
        return self.head["steps"] + sum(w["steps"] for w in self.windows)

    def ramp_steps(self) -> int:
        return sum(w["ramp_steps"] for w in self.windows)

    def fast_forward_steps(self) -> int:
        return sum(p["steps"] for p in self.phases
                   if p["kind"] == "fast_forward")

    def instruction_mix(self) -> dict[str, int]:
        mix: Counter[str] = Counter()
        for window in (self.head, *self.windows):
            mix.update(window["instruction_mix"])
        return dict(mix)

    def cache_totals(self, which: str) -> dict[str, int]:
        """Integer cache counters summed over the measured legs."""
        totals: Counter[str] = Counter()
        for window in (self.head, *self.windows):
            for key, value in window[which].items():
                totals[key] += value
        return dict(totals)

    def to_record(self) -> dict:
        """JSON-able, deterministic payload (no host timing) persisted
        as the ``sampled`` section of schema-v5 sweep records."""
        record = {
            "schema": RECORD_SCHEMA,
            "plan": self.plan.as_dict(),
            "total_steps": self.total_steps,
            "total_instructions": self.total_instructions,
            "offset": self.offset,
            "estimated_cycles": self.estimated_cycles,
            "cycles_ci_half": self.cycles_ci_half,
            "estimates": {name: est.to_dict()
                          for name, est in sorted(self.estimates.items())},
            "head": self.head,
            "windows": self.windows,
            "phases": self.phases,
            "result_word": self.result_word,
            "uart_hex": self.uart_hex,
        }
        if self.auto is not None:
            record["auto"] = self.auto
        return record

    def canonical_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":"))

    def summary_lines(self) -> list[str]:
        est = self.estimates.get("cpi")
        half = self.cycles_ci_half
        lines = [
            f"sampled run  : {len(self.windows)} windows + "
            f"{self.head['steps']}-step head over "
            f"{self.total_steps} steps (offset {self.offset})",
            f"measured     : {self.measured_steps()} steps accurate, "
            f"{self.ramp_steps()} ramp, "
            f"{self.fast_forward_steps()} fast-forwarded",
            f"est. cycles  : {self.estimated_cycles:.0f}"
            + (f" +/- {half:.0f} ({self.plan.confidence:.0%} CI)"
               if half is not None else " (no interval claimed)"),
        ]
        if est is not None:
            lines.append(f"CPI          : {est.mean:.4f}"
                         + (f" +/- {est.ci_half:.4f}"
                            if est.ci_half is not None else ""))
        return lines


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def measure_window(sim: Simulator, spec: WindowSpec, poll: int) -> dict:
    """Run *spec*'s ramp + measured window on *sim*'s cycle-accurate
    engine and return the window observation dict.

    The machine must already be positioned at ``spec.ramp_start`` in the
    canonical window-start state
    (:meth:`Simulator._normalize_window_start`).  The checkpoint path
    of :class:`SampledRunner` (a replay fallback) measures every window
    with it; ``tests/core/test_sampling.py`` also runs it on a machine
    stepped straight through on the accurate engine and holds the two
    equal.
    """
    cpu = sim.cpu
    ramp_budget = spec.start - spec.ramp_start
    ramp_base = cpu.instret
    ramp_steps = 0
    while ramp_steps < ramp_budget and cpu.pc != poll:
        cpu.step()
        ramp_steps += 1
    ramp_instructions = cpu.instret - ramp_base
    # Keep the warmed cache *contents*, zero the accounting: the window
    # observation must cover exactly [start, end).
    sim.icache.reset_stats()
    sim.dcache.reset_stats()

    before = simulator_snapshot(sim)
    budget = spec.end - spec.start
    steps = 0
    with MixRecorder(cpu) as mix_recorder:
        while steps < budget and cpu.pc != poll:
            cpu.step()
            steps += 1
    counts = window_counts(simulator_snapshot(sim), before)
    return {
        "index": spec.index,
        "ramp_start": spec.ramp_start,
        "start": spec.start,
        "end": spec.end,
        "planned_steps": budget,
        "steps": steps,
        "instructions": counts["pipeline.instructions"],
        "cycles": counts["pipeline.cycles"],
        "fetch_stall_cycles": counts["pipeline.fetch_stall_cycles"],
        "mem_stall_cycles": counts["pipeline.mem_stall_cycles"],
        "traps": counts["pipeline.traps"],
        "ramp_steps": ramp_steps,
        "ramp_instructions": ramp_instructions,
        "instruction_mix": mix_recorder.mix(),
        "dcache": cache_counts(counts, "dcache"),
        "icache": cache_counts(counts, "icache"),
    }


def replay_window(replayer: Replayer, spec: WindowSpec,
                  config: ArchitectureConfig) -> dict:
    """:func:`measure_window`'s observation of *spec* on *config*,
    replayed from a recording that stopped at the spec's boundaries
    (:meth:`~repro.core.replay.Replayer.window`).  Raises
    :class:`~repro.core.replay.ReplayUnsupported` where it could not
    be exact."""
    return {
        "index": spec.index,
        "ramp_start": spec.ramp_start,
        "start": spec.start,
        "end": spec.end,
        "planned_steps": spec.end - spec.start,
        **replayer.window(config, spec.ramp_start, spec.start, spec.end),
    }


def _placement(specs: list[WindowSpec], total_steps: int) -> tuple:
    return (total_steps,
            tuple((s.ramp_start, s.start, s.end) for s in specs))


def _boundaries(specs: list[WindowSpec], total_steps: int) -> list[int]:
    """Every phase boundary of a placement, in program order."""
    return sorted({0, total_steps} | {b for spec in specs
                                      for b in (spec.ramp_start, spec.start,
                                                spec.end)})


class SampledRunner:
    """Execute sampling plans: survey, record, replay, estimate.

    The survey pass runs the program on the translated engine for its
    exact step and retirement totals and its outputs.  The recording
    pass runs it again on the recording engine, stopping at every
    window boundary the placement needs, and every ramp and window is
    replayed from that one recording for the point's configuration.
    Both passes run in a *fresh* :class:`Simulator` and have no timing
    model: their outputs are purely architectural, identical for every
    configuration of one architectural family (``arch_key()``).  Both
    are therefore memoised on the runner, and :meth:`run` accepts a
    per-call ``config`` for the measure phase — a serial sweep reuses
    one runner per (image, family) and records once, not per point.

    A configuration replay cannot time exactly (see
    :data:`~repro.core.replay.FALLBACK_CAUSES`) falls back to the
    accurate oracle: a checkpoint pass (built on first need, memoised
    the same way) captures an ArchState at every ramp start, and each
    ramp and window runs single-step on a fresh accurate
    :class:`Simulator` restored from it (:func:`measure_window`).
    :attr:`path` says which way the last run went.  Both ways give the
    same observations, which is what makes a sampled run a pure
    function of ``(image, config, plan)`` and lets sweep workers
    rebuild it bit-for-bit in parallel.

    *configs* names the configurations the runner will be asked to
    measure (a sweep group's points), as :class:`Replayer` takes them:
    each window's first replay walks every cache geometry among them,
    so a D-cache size sweep walks each window's data stream once.
    """

    def __init__(self, config: ArchitectureConfig | None = None,
                 configs: tuple[ArchitectureConfig, ...] = ()):
        self.config = config or ArchitectureConfig()
        self.configs = configs
        #: Cumulative accounting, keyed by the ``sampling.*`` series.
        self.counters = dict.fromkeys(SAMPLING_SERIES, 0)
        #: How the last :meth:`run` measured its windows:
        #: :data:`~repro.core.replay.REPLAYED`, or the fallback cause.
        self.path: str | None = None
        self._survey_memo: tuple[Image, int, dict] | None = None
        #: The latest placement's (image, placement, replayer) and
        #: (image, placement, states, boundary_retired): hit by sweep
        #: points sharing one plan across a config family.  Only one
        #: placement is kept, as each checkpoint holds a copy of SRAM.
        self._recording_memo: tuple | None = None
        self._checkpoint_memo: tuple | None = None

    # -- passes --------------------------------------------------------

    def _survey(self, image: Image, max_instructions: int) -> dict:
        """Translated full run: exact step/retired totals + the
        program's architectural outputs (memoised per image, so auto
        mode pays for it once)."""
        memo = self._survey_memo
        if (memo is not None and memo[0] is image
                and memo[1] == max_instructions):
            return memo[2]
        report = Simulator(self.config).run_translated(
            image, max_instructions)
        survey = {
            "steps": report.cycles,
            "instructions": report.instructions,
            "result_word": report.result_word,
            "uart_hex": report.uart_output.hex(),
        }
        self._survey_memo = (image, max_instructions, survey)
        self._recording_memo = self._checkpoint_memo = None
        return survey

    def _recording_pass(self, image: Image, specs: list[WindowSpec],
                        total_steps: int, max_instructions: int) -> Replayer:
        """One recording pass over the program, stopping at every phase
        boundary (no block straddles one), for replaying the windows.
        Memoised for the latest placement like the checkpoint pass."""
        key = _placement(specs, total_steps)
        memo = self._recording_memo
        if memo is not None and memo[0] is image and memo[1] == key:
            return memo[2]
        self._recording_memo = None
        replayer = Replayer(record(self.config, image, max_instructions,
                                   _boundaries(specs, total_steps)),
                            configs=self.configs)
        self._recording_memo = (image, key, replayer)
        return replayer

    def _checkpoint_pass(self, image: Image, specs: list[WindowSpec],
                         total_steps: int):
        """One translated pass over the program, capturing an ArchState
        at every window's ramp start and the retired-instruction count
        at every phase boundary.  Memoised for the latest placement: the
        captured states are architectural, so a sweep's config family,
        which shares one plan, reuses them instead of re-traversing."""
        key = _placement(specs, total_steps)
        memo = self._checkpoint_memo
        if memo is not None and memo[0] is image and memo[1] == key:
            return memo[2], memo[3]
        # Free the old placement's SRAM copies before taking new ones.
        self._checkpoint_memo = None
        sim = Simulator(self.config)
        poll = sim.rom_info.poll_address
        fast = sim.translated_unit()
        sim._dispatch_on(fast, image)
        base = fast.instret
        ramp_starts = {spec.ramp_start for spec in specs}
        marks = _boundaries(specs, total_steps)
        states: dict[int, object] = {}
        boundary_retired: dict[int, int] = {}
        position = 0
        for mark in marks:
            if mark > position:
                executed = fast.advance(mark - position, stop_pc=poll)
                position += executed
                if position < mark:
                    raise RuntimeError(
                        f"program finished at step {position}, before the "
                        f"planned boundary {mark}")
            boundary_retired[mark] = fast.instret - base
            if mark in ramp_starts:
                states[mark] = ArchState.capture(sim, engine=fast)
        self._checkpoint_memo = (image, key, states, boundary_retired)
        return states, boundary_retired

    def _measure(self, specs: list[WindowSpec], states: dict,
                 config: ArchitectureConfig) -> list[dict]:
        windows = []
        for spec in specs:
            sim = Simulator(config)
            states[spec.ramp_start].restore(sim)
            sim._normalize_window_start()
            windows.append(measure_window(sim, spec,
                                          sim.rom_info.poll_address))
        return windows

    @staticmethod
    def _phases(head: dict, specs: list[WindowSpec], windows: list[dict],
                boundary_retired: dict[int, int],
                total_steps: int) -> list[dict]:
        """The phase ledger: a partition of ``[0, total_steps)`` into
        head / fast-forward / ramp / window legs, each with its exact
        retired-instruction count.  Fast-forward counts come from the
        recording (or checkpoint) pass, head/ramp/window counts from the
        measured windows — their sum equaling the survey total is the
        step-exactness property the hypothesis suite asserts."""
        phases: list[dict] = []

        def add(kind: str, start: int, end: int, instructions: int,
                window: int | None = None) -> None:
            if end > start:
                phases.append({"kind": kind, "start": start, "end": end,
                               "steps": end - start,
                               "instructions": instructions,
                               "window": window})

        add("head", 0, head["end"], head["instructions"])
        position = head["end"]
        for spec, window in zip(specs, windows):
            add("fast_forward", position, spec.ramp_start,
                boundary_retired[spec.ramp_start]
                - boundary_retired[position])
            add("ramp", spec.ramp_start, spec.start,
                window["ramp_instructions"], spec.index)
            add("window", spec.start, spec.end, window["instructions"],
                spec.index)
            position = spec.end
        add("fast_forward", position, total_steps,
            boundary_retired[total_steps] - boundary_retired[position])
        return phases

    # -- entry points --------------------------------------------------

    def run(self, image: Image, plan: SamplingPlan,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            config: ArchitectureConfig | None = None) -> SampledRun:
        """Execute *plan* over *image*; returns the :class:`SampledRun`.

        *config*, when given, replaces the runner's config for the
        measure phase only.  It must belong to the same architectural
        family (``arch_key()``) as the runner's config — the memoised
        survey, recording and checkpoints are architectural, so they
        are valid for, and shared across, the whole family.
        """
        if config is not None and config.arch_key() != self.config.arch_key():
            raise ValueError(
                "config must share the runner's architectural family "
                f"({config.arch_key()!r} != {self.config.arch_key()!r})")
        survey = self._survey(image, max_instructions)
        total_steps = survey["steps"]
        head = head_spec(total_steps, plan)
        offset, specs = place_windows(total_steps, plan, start=head.end)
        config = config or self.config
        measured_specs = [head, *specs]
        try:
            if not replayable(config):
                # Replay refuses it anyway: skip the recording.
                raise ReplayUnsupported("prefetch")
            replayer = self._recording_pass(image, measured_specs,
                                            total_steps, max_instructions)
            measured = [replay_window(replayer, spec, config)
                        for spec in measured_specs]
            boundary_retired = {step: mark[3] for step, mark
                                in replayer.recorded.marks.items()}
            self.path = REPLAYED
        except ReplayUnsupported as exc:
            states, boundary_retired = self._checkpoint_pass(
                image, measured_specs, total_steps)
            measured = self._measure(measured_specs, states, config)
            self.path = exc.cause
        head_obs, windows = measured[0], measured[1:]
        phases = self._phases(head_obs, specs, windows, boundary_retired,
                              total_steps)
        run = SampledRun(
            plan=plan,
            total_steps=total_steps,
            total_instructions=survey["instructions"],
            offset=offset,
            head=head_obs,
            windows=windows,
            phases=phases,
            estimates=estimate_windows(windows, plan.confidence),
            result_word=survey["result_word"],
            uart_hex=survey["uart_hex"],
        )
        counters = self.counters
        counters["sampling.runs"] += 1
        counters["sampling.windows"] += len(windows)
        counters["sampling.checkpoints"] += len(
            {spec.ramp_start for spec in measured_specs})
        counters["sampling.survey_steps"] += total_steps
        counters["sampling.ff_steps"] += run.fast_forward_steps()
        counters["sampling.ramp_steps"] += run.ramp_steps()
        counters["sampling.measured_steps"] += run.measured_steps()
        return run

    def run_auto(self, image: Image, plan: SamplingPlan,
                 target_relative_error: float = 0.05,
                 max_windows: int = 256,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                 ) -> SampledRun:
        """Auto mode: double ``n_windows`` until the CPI estimate's
        relative half-interval reaches *target_relative_error* (or the
        program can't supply more windows).  The convergence log lands
        on :attr:`SampledRun.auto`."""
        if target_relative_error <= 0:
            raise ValueError("target_relative_error must be > 0")
        log: list[dict] = []
        n = plan.n_windows
        while True:
            current = replace(plan, n_windows=n)
            run = self.run(image, current, max_instructions)
            est = run.estimates.get("cpi")
            relative = (est.relative if est is not None else math.inf)
            log.append({"n_windows": n, "windows": len(run.windows),
                        "relative_error": (None if math.isinf(relative)
                                           else relative)})
            if relative <= target_relative_error:
                break
            # The sampled tail only has so many distinct windows; past
            # that, growing n buys nothing.
            tail = run.total_steps - run.head["end"]
            limit = min(max_windows, max(1, tail // plan.window_length))
            if n >= limit:
                break
            n = min(n * 2, limit)
        run.auto = log
        return run

    def publish_obs(self, registry, counters: dict | None = None) -> None:
        """Publish the runner's accounting as the ``sampling.*`` series
        (:data:`~repro.obs.collect.SAMPLING_SERIES`).  *counters* overrides
        the runner's cumulative dict — sweep points publish per-run
        deltas so shared runners report exactly what a fresh one
        would."""
        counters = counters if counters is not None else self.counters
        for name in SAMPLING_SERIES:
            registry.counter(name).inc(counters[name])
