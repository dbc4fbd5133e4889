"""Parallel sweep engine with a persistent result cache.

The paper's workflow evaluates an application across a pre-computed
configuration space: bitfiles are synthesized once per point, captured
in the reconfiguration cache, and re-used at runtime (Figure 1's
right-hand loop, the Figure 8 cache sweep).  This module is the software
analogue for the *evaluation* side of that loop:

* :class:`SweepRunner` evaluates every point of a
  :class:`~repro.core.space.ConfigurationSpace` against one or more
  images, either serially or across worker processes.  Both executors
  produce byte-identical results in the deterministic order of the
  space, so parallelism is purely a wall-clock optimisation.
* full-detail points sharing an image and an architecture are
  evaluated together: one recording run on the translated engine, then
  each point's record replayed from it (:mod:`repro.core.replay`),
  byte-identical to the accurate engine, with counted fallbacks;
  sampled points (``sweep(sampling=...)``) replay their windows from
  one recording per image and architecture the same way;
* :class:`ResultCache` memoises finished points under
  ``(image digest, config fingerprint)`` with an in-memory layer and an
  optional on-disk JSON layer, so re-running a sweep skips
  already-simulated points the way the paper skips re-synthesis; a disk
  record is also keyed by the :func:`model_digest` of the simulator
  (and the NumPy) that wrote it, so no edit to the model is served a
  stale record.
* :func:`best_point` and :func:`pareto_front` are the selection helpers
  the architecture-exploration loop ends with: fastest point, and the
  cycles-vs-area frontier from the :class:`~repro.core.synthesis`
  model.

Per-point wall timing, cache hit/miss counters and a progress callback
make long sweeps observable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy

from repro.core.config import ArchitectureConfig
from repro.core.replay import (
    FALLBACK_CAUSES,
    REPLAYED,
    Replayer,
    ReplayUnsupported,
    replayable,
)
from repro.core.replay import record as record_program
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import SimReport, Simulator
from repro.cpu import traps
from repro.core.synthesis import SynthesisModel
from repro.obs.metrics import MetricsRegistry
from repro.toolchain.objfile import Image

#: Bumped whenever the cached record layout changes; stale on-disk
#: records are treated as misses rather than mis-parsed.
#: v2: records carry the per-point ``obs`` metrics snapshot.
#: v3: fingerprints gain a ``-ff<N>`` suffix for fast-forwarded sweeps,
#: so windowed and whole-program measurements never collide.
#: v4: checkpoint-building warmups run on the block-translating engine
#: (architecturally identical, but conservatively invalidate anything
#: produced before the translator existed).
#: v5: sampled sweeps (``sweep(sampling=...)``): records may carry a
#: ``sampled`` section (point estimate + CI + per-window observations),
#: and every point snapshot gains the ``sampling.*`` counter series.
#: v6: a full-detail record's ``dcache``/``icache`` cover the program
#: window, as its ``obs`` does (boot and dispatch no longer counted),
#: and its ``obs`` drops the ``fastpath.*`` and ``sampling.*`` series
#: it only ever declared at 0.
SCHEMA_VERSION = 6

#: Fields of a cached record that :meth:`SweepRunner._point` reads; a
#: disk record missing any of them is a miss, not a crash.
_RECORD_FIELDS = ("cycles", "instructions", "instruction_mix", "dcache",
                  "icache", "result_word", "uart_hex", "frequency_mhz",
                  "slices", "block_rams")

#: Key of the integrity digest stored beside each on-disk record: a
#: truncated or bit-flipped file fails it and is a miss.
_DIGEST_KEY = "sha256"

#: Default instruction budget per simulated point.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

ProgressCallback = Callable[[int, int, "SweepPoint"], None]


def image_digest(image: Image) -> str:
    """Stable identity of a linked image (entry + every placed byte)."""
    h = hashlib.sha256()
    h.update(image.entry.to_bytes(4, "big"))
    for base in sorted(image.segments):
        data = image.segments[base]
        h.update(base.to_bytes(4, "big"))
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated (image, configuration) pair.

    As in :class:`~repro.core.sim.SimReport`, every measured field of
    a full-detail point covers the program window.
    """

    index: int
    config: ArchitectureConfig
    image_digest: str
    fingerprint: str
    cycles: int
    instructions: int
    instruction_mix: dict
    dcache: dict
    icache: dict
    result_word: int | None
    uart_hex: str
    frequency_mhz: float
    slices: int
    block_rams: int
    #: Program-window metrics snapshot (repro.obs schema).  Built purely
    #: from simulation-derived counters, so it is part of the
    #: determinism contract and persists with the cached record.
    obs: dict
    #: Sampled-simulation section (``SampledRun.to_record()``) for
    #: points evaluated under a :class:`SamplingPlan`: point estimate,
    #: confidence intervals and per-window observations.  ``None`` for
    #: full-detail points.
    sampled: dict | None
    #: 'simulated' | 'memory' | 'disk' — where this point came from.
    source: str
    #: Host seconds spent producing the point (≈0 for cache hits).
    wall_seconds: float

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def seconds(self) -> float:
        """Model time at the synthesis model's clock for this config."""
        return self.cycles / (self.frequency_mhz * 1e6)

    def report_fields(self) -> dict:
        """Everything the simulation measured — the identity-relevant
        fields, excluding provenance (``source``) and host timing."""
        fields = {
            "image_digest": self.image_digest,
            "fingerprint": self.fingerprint,
            "config_key": self.config.key(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi": self.cpi,
            "instruction_mix": dict(self.instruction_mix),
            "dcache": self.dcache,
            "icache": self.icache,
            "result_word": self.result_word,
            "uart_hex": self.uart_hex,
            "frequency_mhz": self.frequency_mhz,
            "slices": self.slices,
            "block_rams": self.block_rams,
            "obs": self.obs,
        }
        if self.sampled is not None:
            fields["sampled"] = self.sampled
        return fields

    def canonical_json(self) -> str:
        """Byte-stable serialization of :meth:`report_fields` — equality
        of these strings is the sweep determinism contract."""
        return json.dumps(self.report_fields(), sort_keys=True,
                          separators=(",", ":"))


def best_point(points: Sequence[SweepPoint],
               metric: str = "seconds") -> SweepPoint:
    """The winning point by *metric* ('seconds', 'cycles', 'cpi', ...);
    ties break toward the earlier point in sweep order."""
    if not points:
        raise ValueError("no points to choose from")
    return min(points, key=lambda p: (getattr(p, metric), p.index))


def pareto_front(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    """Points not dominated on (cycles, slices) — the speed/area
    frontier, smallest-cycles first."""
    front: list[SweepPoint] = []
    best_slices = None
    for point in sorted(points, key=lambda p: (p.cycles, p.slices, p.index)):
        if best_slices is None or point.slices < best_slices:
            front.append(point)
            best_slices = point.slices
    return front


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {"memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores}


class ResultCache:
    """Two-layer memo of finished sweep points.

    Layer 1 is a process-local dict; layer 2 (optional) is JSON files
    under ``cache_dir/<image_digest>/<fingerprint>-<model digest>.json``
    so results persist across runs — the same economics as the paper's
    reconfiguration cache, where everything already synthesized is free
    — and a record written by other simulator sources is a miss.  A
    store removes the point's records from other sources, so a directory
    holds one record per point; two source trees sharing one directory
    therefore evict each other's records.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: dict[tuple[str, str], dict] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, digest: str, fingerprint: str) -> Path:
        assert self.cache_dir is not None
        return (self.cache_dir / digest
                / f"{fingerprint}-{model_digest()}.json")

    def get(self, digest: str, fingerprint: str) -> tuple[dict, str] | None:
        """Return ``(record, layer)`` on a hit, ``None`` on a miss."""
        record = self._memory.get((digest, fingerprint))
        if record is not None:
            self.stats.memory_hits += 1
            return record, "memory"
        if self.cache_dir is not None:
            record = _load_record(self._path(digest, fingerprint))
            if record is not None:
                self._memory[(digest, fingerprint)] = record
                self.stats.disk_hits += 1
                return record, "disk"
        self.stats.misses += 1
        return None

    def put(self, digest: str, fingerprint: str, record: dict) -> None:
        self._memory[(digest, fingerprint)] = record
        self.stats.stores += 1
        if self.cache_dir is None:
            return
        path = self._path(digest, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        for stale in path.parent.glob(f"{fingerprint}-*.json"):
            if stale != path and stale.stem.rsplit("-", 1)[0] == fingerprint:
                stale.unlink(missing_ok=True)
        blob = json.dumps({**record, _DIGEST_KEY: _record_digest(record)},
                          sort_keys=True, indent=1)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(blob)
        os.replace(tmp, path)  # atomic: concurrent sweeps never see halves


@functools.cache
def model_digest() -> str:
    """Identity of the simulator: a sha256 over the NumPy version and
    every ``.py`` file of the ``repro`` package (this module's parent's
    tree), by sorted relative path and bytes.  Any edit counts, a
    docstring's too: a needless miss costs one simulation, a stale hit a
    wrong result.  NumPy counts because ``random`` replacement draws
    from its generator, whose stream NumPy does not promise across
    versions (NEP 19).  Computed on the first disk access, not at
    import."""
    root = Path(__file__).resolve().parents[1]
    version = numpy.__version__.encode()
    h = hashlib.sha256()
    h.update(len(version).to_bytes(8, "big"))
    h.update(version)
    for path in sorted(root.rglob("*.py")):
        for part in (path.relative_to(root).as_posix().encode(),
                     path.read_bytes()):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()[:16]


def _record_digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


def _load_record(path: Path) -> dict | None:
    """The record stored at *path*, or ``None`` unless it is intact:
    valid JSON, the sha256 ``put`` stored beside it, the current schema
    and every field :meth:`SweepRunner._point` reads."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(record, dict):
        return None
    stored = record.pop(_DIGEST_KEY, None)
    if (stored != _record_digest(record)
            or record.get("schema") != SCHEMA_VERSION
            or not all(name in record for name in _RECORD_FIELDS)):
        return None
    return record


# ---------------------------------------------------------------------------
# Evaluation (runs in worker processes — must stay module-level picklable)
# ---------------------------------------------------------------------------


def _sampled_record(config: ArchitectureConfig, run, runner,
                    counters: dict, utilization) -> dict:
    """The cacheable record of one sampled point: its estimate as a
    full-detail record, plus the ``sampled`` section.  *counters* is the
    per-run delta of the group's shared runner's accounting: the
    counters are derived from the run, not from memo hits, so it equals
    what a fresh runner would publish."""
    registry = MetricsRegistry()
    runner.publish_obs(registry, counters=counters)
    report = SimReport(
        cycles=int(round(run.estimated_cycles)),
        instructions=run.total_instructions,
        instruction_mix=run.instruction_mix(),
        dcache=run.cache_totals("dcache"), icache=run.cache_totals("icache"),
        result_word=run.result_word, uart_output=bytes.fromhex(run.uart_hex),
        obs=registry.snapshot())
    return {**_report_record(config, report, utilization),
            "sampled": run.to_record()}


def _evaluate_sampled(tasks) -> list[tuple[dict, float, str]]:
    """Evaluate the sampled points of one ``(image, arch_key)`` group on
    one :class:`SampledRunner`, so every point shares the memoised
    survey and recording passes and pays only for replaying its own
    windows; the first point's replay of a window walks the caches of
    every point.  Returns ``(record, wall seconds, path)`` per task, in
    order, *path* being :data:`~repro.core.replay.REPLAYED` or the
    cause of the point's fallback to the accurate engine.  Obs counters
    are published as per-run deltas, so a point's record does not
    depend on which other points shared its runner."""
    runner = SampledRunner(tasks[0][0],
                           configs=tuple(task[0] for task in tasks))
    results = []
    for config, image, max_instructions, sampling in tasks:
        start = time.perf_counter()
        utilization = SynthesisModel().estimate(config)
        before = dict(runner.counters)
        run = runner.run(image, sampling,
                         max_instructions=max_instructions, config=config)
        delta = {name: runner.counters[name] - before[name]
                 for name in before}
        record = _sampled_record(config, run, runner, delta, utilization)
        results.append((record, time.perf_counter() - start, runner.path))
    return results


def _evaluate_task(task: tuple[ArchitectureConfig, Image, int,
                               SamplingPlan | None]
                   ) -> tuple[dict, float]:
    """Simulate one full-detail point on the accurate engine; returns
    (cacheable record, wall seconds).  Sampled points go through
    :func:`_evaluate_sampled` instead."""
    config, image, max_instructions, _ = task
    start = time.perf_counter()
    utilization = SynthesisModel().estimate(config)
    report = Simulator(config).run(
        image, max_instructions=max_instructions)
    return (_report_record(config, report, utilization),
            time.perf_counter() - start)


def _report_record(config: ArchitectureConfig, report: SimReport,
                   utilization) -> dict:
    """The cacheable record of one full-detail point."""
    return {
        "schema": SCHEMA_VERSION,
        "config_key": config.key(),
        "cycles": report.cycles,
        "instructions": report.instructions,
        "instruction_mix": dict(report.instruction_mix),
        "dcache": report.dcache,
        "icache": report.icache,
        "result_word": report.result_word,
        "uart_hex": report.uart_output.hex(),
        "frequency_mhz": utilization.frequency_mhz,
        "slices": utilization.slices,
        "block_rams": utilization.block_rams,
        "obs": report.obs,
    }


def _evaluate_group(tasks) -> list[tuple[dict, float, str]]:
    """Evaluate the full-detail points of one ``(image, arch_key)``
    group: run the program once on the recording engine, then replay
    each point from that recording (:mod:`repro.core.replay`) — the
    same record ``_evaluate_task`` would produce, byte for byte.  A
    point falls back to :func:`_evaluate_task` only where replay cannot
    be exact.  Returns ``(record, wall seconds, path)`` per task, in
    order, *path* being :data:`REPLAYED` or the fallback cause.  Serial
    and parallel sweeps both evaluate whole groups through here."""
    started = time.perf_counter()
    replayer, cause = None, "prefetch"  # the cause if nothing records
    recordable = [task for task in tasks if replayable(task[0])]
    if recordable:
        config, image, max_instructions, _ = recordable[0]
        try:
            replayer = Replayer(
                record_program(config, image, max_instructions),
                configs=tuple(task[0] for task in tasks))
        except (traps.WatchdogExpired, traps.ErrorMode):
            # The accurate engine raises it again, from the same step.
            cause = "error"
    shared = (time.perf_counter() - started) / len(tasks)
    results = []
    for task in tasks:
        start = time.perf_counter()
        config = task[0]
        try:
            if replayer is None:
                raise ReplayUnsupported(cause)
            report = replayer.report(config)
        except ReplayUnsupported as exc:
            fallback, wall = _evaluate_task(task)
            results.append((fallback, wall + shared, exc.cause))
            continue
        point = _report_record(config, report,
                               SynthesisModel().estimate(config))
        results.append((point, time.perf_counter() - start + shared,
                        REPLAYED))
    return results


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class SweepStats:
    points: int = 0
    simulated: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "points": self.points, "simulated": self.simulated,
            "memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
            "wall_seconds": round(self.wall_seconds, 6),
            "sim_seconds": round(self.sim_seconds, 6),
        }


@dataclass
class SweepOutcome:
    """Ordered points plus the counters that prove what was reused."""

    points: list[SweepPoint]
    stats: SweepStats

    def best_point(self, metric: str = "seconds") -> SweepPoint:
        return best_point(self.points, metric)

    def pareto_front(self) -> list[SweepPoint]:
        return pareto_front(self.points)


# ---------------------------------------------------------------------------
# Workload x configuration matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixCell:
    """One (workload, config) evaluation of a matrix sweep."""

    workload: str
    wclass: str
    point: SweepPoint
    #: The workload's self-check verdict over the point's RESULT word —
    #: a sweep that makes a kernel compute the wrong answer is reported,
    #: not silently ranked.
    check_ok: bool


@dataclass
class MatrixOutcome:
    """A full workload x configuration sweep, with per-class winners.

    The registry's promise is that every cell is self-checked; the
    ranking helpers answer the paper's actual question — *which
    architectural family wins for which workload class*.
    """

    cells: list[MatrixCell]
    stats: SweepStats
    #: workload name -> static-analysis DiagnosticReport, populated when
    #: the matrix ran with ``analyze=True`` (else empty).
    analysis: dict = field(default_factory=dict)

    def failed_checks(self) -> list[MatrixCell]:
        return [cell for cell in self.cells if not cell.check_ok]

    def workloads(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.workload)
        return list(seen)

    def config_keys(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.point.config.key())
        return list(seen)

    def cells_for(self, workload: str) -> list[MatrixCell]:
        return [cell for cell in self.cells if cell.workload == workload]

    def winner_by_workload(self, metric: str = "seconds"
                           ) -> dict[str, SweepPoint]:
        """Per workload: the winning point by *metric* (sweep-order
        tie-break, same rule as :func:`best_point`)."""
        return {name: best_point([c.point for c in self.cells_for(name)],
                                 metric)
                for name in self.workloads()}

    def winner_by_class(self, metric: str = "seconds") -> dict[str, str]:
        """Per workload class: the config key minimizing the *summed*
        metric across the class's workloads.  Ties break toward the
        earlier config in sweep order."""
        totals: dict[str, dict[str, list]] = {}
        for cell in self.cells:
            key = cell.point.config.key()
            entry = totals.setdefault(cell.wclass, {}).setdefault(
                key, [0.0, cell.point.index])
            entry[0] += getattr(cell.point, metric)
        return {wclass: min(per_config.items(),
                            key=lambda kv: (kv[1][0], kv[1][1]))[0]
                for wclass, per_config in totals.items()}

    def report(self, metric: str = "seconds") -> dict:
        """Everything deterministic about the matrix: every cell's
        measured fields plus the winner tables (and, when the matrix
        ran with ``analyze=True``, per-workload verifier summaries)."""
        report = {
            "metric": metric,
            "cells": [{
                "workload": cell.workload,
                "wclass": cell.wclass,
                "check_ok": cell.check_ok,
                **cell.point.report_fields(),
            } for cell in self.cells],
            "winner_by_workload": {
                name: point.config.key()
                for name, point in self.winner_by_workload(metric).items()},
            "winner_by_class": self.winner_by_class(metric),
        }
        if self.analysis:
            report["analysis"] = {
                name: {"errors": len(diag.errors),
                       "warnings": len(diag.warnings),
                       "codes": diag.codes()}
                for name, diag in sorted(self.analysis.items())}
        return report

    def canonical_json(self, metric: str = "seconds") -> str:
        """Byte-stable serialization of :meth:`report` — equality of
        these strings is the matrix determinism contract."""
        return json.dumps(self.report(metric), sort_keys=True,
                          separators=(",", ":"))

    def report_text(self, metric: str = "seconds") -> str:
        """The per-class winner table, human-shaped."""
        lines = [f"workload x config matrix ({len(self.workloads())} "
                 f"workloads x {len(self.config_keys())} configs, "
                 f"metric={metric})"]
        by_workload = self.winner_by_workload(metric)
        for name in self.workloads():
            cells = self.cells_for(name)
            winner = by_workload[name]
            checks = "all-ok" if all(c.check_ok for c in cells) else "CHECK-FAILED"
            lines.append(f"  {name:<12} [{cells[0].wclass:<6}] "
                         f"winner={winner.config.key()} "
                         f"cycles={winner.cycles} ({checks})")
        lines.append("  per-class winners:")
        for wclass, key in sorted(self.winner_by_class(metric).items()):
            lines.append(f"    {wclass:<8} -> {key}")
        return "\n".join(lines)


class SweepRunner:
    """Evaluate a configuration space over one or more images.

    ``workers <= 1`` runs serially in-process; ``workers > 1`` fans the
    uncached points out over a :class:`ProcessPoolExecutor`.  Results
    come back in the deterministic order of the space regardless of the
    executor, and both paths produce byte-identical
    :meth:`SweepPoint.canonical_json` strings.
    """

    def __init__(self, workers: int = 0,
                 cache: ResultCache | None = None,
                 progress: ProgressCallback | None = None,
                 obs: MetricsRegistry | None = None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        # Host-side sweep telemetry (wall time, cache reuse, worker
        # utilization).  Never persisted into point records — those hold
        # only simulation-derived series, keeping them deterministic.
        self.obs = obs if obs is not None else MetricsRegistry()

    # ------------------------------------------------------------------

    def sweep(self, space: Iterable[ArchitectureConfig],
              images: Image | Sequence[Image],
              max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
              sampling: SamplingPlan | None = None) -> SweepOutcome:
        """Evaluate every (image, config) pair; image-major order.

        ``sampling=`` (a :class:`~repro.core.sampling.SamplingPlan`)
        switches every point to *sampled* mode: cycle estimates with
        confidence intervals from measurement windows replayed from one
        recording per image and architecture, at a fraction of the
        full-detail cost.  Fingerprints gain the plan's token, so
        sampled records never collide with exact ones.

        Full-detail points (the default) are replayed: each group of
        points sharing an image and an architecture runs once on the
        recording engine and every point's record is computed from that
        recording (:mod:`repro.core.replay`), byte-identical to running
        it on the accurate engine.  ``sweep.replayed_points`` and
        ``sweep.replay_fallbacks{cause=...}`` in :attr:`obs` count what
        was replayed and what fell back to the accurate engine, sampled
        points included.
        """
        started = time.perf_counter()
        configs = list(space)
        if isinstance(images, Image):
            images = [images]
        else:
            images = list(images)
        if not configs or not images:
            raise ValueError("sweep needs at least one config and one image")

        # Deterministic work list: (index, image, digest, config, fp).
        suffix = (f"-{sampling.fingerprint_token()}"
                  if sampling is not None else "")
        entries = []
        for image in images:
            digest = image_digest(image)
            for config in configs:
                entries.append((len(entries), image, digest, config,
                                config.fingerprint() + suffix))

        # Resolve cache hits up front; only misses are dispatched.
        cached: dict[int, tuple[dict, str]] = {}
        if self.cache is not None:
            for index, _, digest, _, fingerprint in entries:
                hit = self.cache.get(digest, fingerprint)
                if hit is not None:
                    cached[index] = hit

        stats = SweepStats(points=len(entries))
        tasks = [(config, image, max_instructions, sampling)
                 for index, image, _, config, _ in entries
                 if index not in cached]

        fresh = self._evaluate(tasks)
        points: list[SweepPoint] = []
        for index, _, digest, config, fingerprint in entries:
            if index in cached:
                record, layer = cached[index]
                wall = 0.0
                if layer == "memory":
                    stats.memory_hits += 1
                else:
                    stats.disk_hits += 1
            else:
                record, wall, path = next(fresh)
                if path == REPLAYED:
                    self.obs.counter("sweep.replayed_points").inc()
                else:
                    self.obs.counter("sweep.replay_fallbacks",
                                     cause=path).inc()
                stats.simulated += 1
                stats.sim_seconds += wall
                layer = "simulated"
                self.obs.histogram("sweep.point_wall_ms").observe(
                    int(wall * 1000))
                if self.cache is not None:
                    self.cache.put(digest, fingerprint, record)
            point = self._point(index, config, digest, fingerprint,
                                record, layer, wall)
            points.append(point)
            if self.progress is not None:
                self.progress(len(points), len(entries), point)

        stats.wall_seconds = time.perf_counter() - started
        self._publish_obs(stats)
        return SweepOutcome(points=points, stats=stats)

    def sweep_matrix(self, workloads: Sequence, space,
                     max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                     seed: int = 0,
                     sampling: SamplingPlan | None = None,
                     analyze: bool = False) -> MatrixOutcome:
        """Evaluate every (workload, config) pair of the matrix.

        *workloads* are :class:`repro.workloads.Workload` objects (any
        object with ``name``/``wclass``/``image(seed)``/
        ``check(result_word, seed)`` works); *space* is a configuration
        iterable, evaluated once per workload image.  Every cell is
        **self-checked** against the workload's reference model, and
        every point persists through the runner's :class:`ResultCache`
        exactly like a plain sweep — a re-run of the same matrix is all
        cache hits and a byte-identical
        :meth:`MatrixOutcome.canonical_json`.  ``sampling=`` evaluates
        every cell in sampled mode (cycle estimates with confidence
        intervals); each cell still self-checks — the RESULT word comes
        from the survey pass, which runs the whole program exactly.

        ``analyze=True`` additionally runs the machine-code verifier
        once per workload image, stores the reports on
        :attr:`MatrixOutcome.analysis`, and publishes ``analysis.*``
        series into the runner's obs registry.
        """
        configs = list(space)
        workloads = list(workloads)
        if not workloads:
            raise ValueError("sweep_matrix needs at least one workload")
        cells: list[MatrixCell] = []
        analysis: dict = {}
        totals = SweepStats()
        started = time.perf_counter()
        for workload in workloads:
            if analyze:
                from repro.analysis.verify import analyze_image
                from repro.obs.collect import collect_analysis

                diag = analyze_image(workload.image(seed),
                                     subject=workload.name).report
                analysis[workload.name] = diag
                collect_analysis(diag, self.obs)
            outcome = self.sweep(configs, workload.image(seed),
                                 max_instructions=max_instructions,
                                 sampling=sampling)
            for point in outcome.points:
                cells.append(MatrixCell(
                    workload=workload.name, wclass=workload.wclass,
                    point=point,
                    check_ok=workload.check(point.result_word, seed)))
            totals.points += outcome.stats.points
            totals.simulated += outcome.stats.simulated
            totals.memory_hits += outcome.stats.memory_hits
            totals.disk_hits += outcome.stats.disk_hits
            totals.sim_seconds += outcome.stats.sim_seconds
        totals.wall_seconds = time.perf_counter() - started
        return MatrixOutcome(cells=cells, stats=totals, analysis=analysis)

    def _publish_obs(self, stats: SweepStats) -> None:
        obs = self.obs
        obs.counter("sweep.points").inc(stats.points)
        obs.counter("sweep.simulated").inc(stats.simulated)
        obs.counter("sweep.memory_hits").inc(stats.memory_hits)
        obs.counter("sweep.disk_hits").inc(stats.disk_hits)
        obs.counter("sweep.replayed_points")
        for cause in FALLBACK_CAUSES:
            obs.counter("sweep.replay_fallbacks", cause=cause)
        obs.gauge("sweep.workers").set(self.workers)
        if stats.simulated and stats.wall_seconds > 0:
            lanes = max(self.workers, 1)
            obs.gauge("sweep.worker_utilization").set(round(
                stats.sim_seconds / (stats.wall_seconds * lanes), 6))

    # ------------------------------------------------------------------

    def _evaluate(self, tasks):
        """Yield ``(record, wall, path)`` per task, in task order.

        Tasks are evaluated in ``(image, arch_key)`` groups, full-detail
        ones through :func:`_evaluate_group` and sampled ones through
        :func:`_evaluate_sampled`, serially or one group per worker;
        *path* says whether the point was replayed or why it fell back.
        All tasks of one sweep share the same sampling plan."""
        if not tasks:
            return iter(())
        evaluate = (_evaluate_group if tasks[0][3] is None
                    else _evaluate_sampled)
        groups: dict[tuple, list[int]] = {}
        for index, (config, image, max_instructions, _) in enumerate(tasks):
            groups.setdefault((id(image), config.arch_key(),
                               max_instructions), []).append(index)
        members = list(groups.values())
        results = self._map(evaluate,
                            [[tasks[i] for i in group] for group in members])

        def in_task_order():
            done: dict[int, tuple] = {}
            pending = zip(members, results)
            for index in range(len(tasks)):
                while index not in done:
                    group, group_results = next(pending)
                    done.update(zip(group, group_results))
                yield done.pop(index)

        return in_task_order()

    def _map(self, function, items):
        """``map(function, items)`` serially or over a process pool."""
        if self.workers <= 1:
            return map(function, items)
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(items)))

        def results():
            with pool:
                # Executor.map preserves submission order, so consuming
                # it keeps the sweep deterministic while items complete
                # out of order across workers.
                yield from pool.map(function, items, chunksize=1)

        return results()

    @staticmethod
    def _point(index: int, config: ArchitectureConfig, digest: str,
               fingerprint: str, record: dict, source: str,
               wall_seconds: float) -> SweepPoint:
        fields = {name: record[name] for name in _RECORD_FIELDS}
        fields["instruction_mix"] = dict(fields["instruction_mix"])
        return SweepPoint(index=index, config=config, image_digest=digest,
                          fingerprint=fingerprint, obs=record.get("obs", {}),
                          sampled=record.get("sampled"), source=source,
                          wall_seconds=wall_seconds, **fields)
