"""The traced run: host-time spans around layer calls, plus one
deterministic-profiler pass grouped by ``src/repro/<module>.py``.

Spans are recorded from the benchmark's own files: :class:`Tracer`
replaces each layer's public function (see :data:`TARGETS`) with a
timing wrapper for the duration of a ``with tracer.installed():`` block
and puts the original objects back on exit, so timed passes always run
the untouched functions.  Spans live in memory; :func:`span_metrics`
turns them into the per-layer ``*_s`` metrics.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped layer function: ``module[.owner].attribute``.

    *probe* maps the call's positional arguments to an object whose
    integer *counters* are read before and after the call; their deltas
    become the span's work.
    """

    module: str
    owner: str | None
    attribute: str
    span: str
    probe: Callable | None = None
    counters: tuple[str, ...] = ()


def _self(args):
    return args[0]


def _sim_cpu(args):
    return args[0].cpu


TARGETS = (
    Target("repro.toolchain.driver", None, "compile_c_program",
           "toolchain.compile"),
    Target("repro.core.sim", "Simulator", "run", "sim.run"),
    Target("repro.cpu.iu", "IntegerUnit", "run", "cpu.iu.run",
           _self, ("instret",)),
    # Bound by name into repro.core.sim, so wrapped where it is called.
    Target("repro.core.sim", None, "simulator_snapshot", "obs.snapshot"),
    Target("repro.core.sim", None, "point_snapshot", "obs.snapshot"),
    Target("repro.cpu.blockcache", "TranslatedUnit", "run", "translator.run",
           _self, ("cycles", "blocks_translated", "blocks_executed")),
    Target("repro.cpu.blockcache", "TranslatedUnit", "fast_forward",
           "translator.fast_forward",
           _self, ("cycles", "blocks_translated", "blocks_executed")),
    Target("repro.cpu.archstate", "ArchState", "capture",
           "archstate.capture"),
    Target("repro.cpu.archstate", "ArchState", "restore",
           "archstate.restore"),
    Target("repro.core.sampling", "SampledRunner", "run", "sampling.run"),
    Target("repro.core.sampling", None, "measure_window",
           "sampling.measure_window", _sim_cpu, ("instret",)),
    Target("repro.core.sweep", "ResultCache", "get", "resultcache.get"),
    Target("repro.core.sweep", "ResultCache", "put", "resultcache.put"),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: "Span | None" = None
    children_ns: int = 0
    work: Counter = field(default_factory=Counter)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.children_ns

    def family(self) -> str:
        """Spans of one family nest (``run`` calls ``fast_forward``);
        only a family's outermost span counts toward its totals."""
        if self.name.startswith("translator."):
            return "translator"
        return self.name

    def within(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    def outermost(self) -> bool:
        node, family = self.parent, self.family()
        while node is not None:
            if node.family() == family:
                return False
            node = node.parent
        return True


class Tracer:
    """Records nested spans; installs and removes the layer wrappers."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), parent=parent)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = self.clock()
            self._open.pop()
            if parent is not None:
                parent.children_ns += span.duration_ns

    def _wrap(self, func, target: Target):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(target.span) as span:
                if target.probe is None:
                    return func(*args, **kwargs)
                obj = target.probe(args)
                before = [getattr(obj, c) for c in target.counters]
                try:
                    return func(*args, **kwargs)
                finally:
                    for name, old in zip(target.counters, before):
                        span.work[name] += getattr(obj, name) - old

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for target in TARGETS:
                module = importlib.import_module(target.module)
                owner = (module if target.owner is None
                         else getattr(module, target.owner))
                original = vars(owner)[target.attribute]
                if isinstance(original, classmethod):
                    patched = classmethod(
                        self._wrap(original.__func__, target))
                else:
                    patched = self._wrap(original, target)
                self._saved.append((owner, target.attribute, original))
                setattr(owner, target.attribute, patched)
            yield self
        finally:
            while self._saved:
                owner, attribute, original = self._saved.pop()
                setattr(owner, attribute, original)


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer span metrics (seconds, rates, translator counts)."""
    seconds: Counter = Counter()
    work: dict[str, Counter] = {}
    sampled: Counter = Counter()
    for span in spans:
        if not span.outermost():
            continue
        seconds[span.name] += span.duration_ns / 1e9
        work.setdefault(span.family(), Counter()).update(span.work)
        if span.within("sampling.run"):
            sampled[span.name] += span.duration_ns / 1e9
    translator_s = (seconds["translator.run"]
                    + seconds["translator.fast_forward"])
    translator = work.get("translator", Counter())
    accurate_s = seconds["cpu.iu.run"] + seconds["sampling.measure_window"]
    accurate_instructions = (work.get("cpu.iu.run", Counter())["instret"]
                             + work.get("sampling.measure_window",
                                        Counter())["instret"])
    return {
        "toolchain.compile_s": seconds["toolchain.compile"],
        "sim.run_s": seconds["sim.run"],
        "cpu.iu.run_s": seconds["cpu.iu.run"],
        "cpu.accurate_kips": ratio(accurate_instructions,
                                   accurate_s * 1000),
        "obs.snapshot_s": seconds["obs.snapshot"],
        "translator.run_s": translator_s,
        "translator.ksteps_per_s": ratio(translator["cycles"],
                                         translator_s * 1000),
        "archstate.capture_s": seconds["archstate.capture"],
        "archstate.restore_s": seconds["archstate.restore"],
        "sampling.survey_s": sampled["translator.run"],
        "sampling.checkpoint_s": (sampled["translator.fast_forward"]
                                  + sampled["archstate.capture"]),
        "sampling.measure_s": (sampled["sampling.measure_window"]
                               + sampled["archstate.restore"]),
        "resultcache.get_s": seconds["resultcache.get"],
        "resultcache.put_s": seconds["resultcache.put"],
        "resultcache.rerun_s": seconds["resultcache.rerun"],
        "count.translator.blocks_translated": translator["blocks_translated"],
        "count.translator.blocks_executed": translator["blocks_executed"],
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Self-time groups reported as ``self_pct.<group>``.  A module under
#: ``src/repro`` reports under its dotted path if that is a group, else
#: under its top-level package if that is one, else under ``other``.
SELF_GROUPS = (
    "cache.cache", "cache.controller",
    "cpu.iu", "cpu.execute", "cpu.decode", "cpu.pipeline", "cpu.registers",
    "cpu.blockcache", "cpu.fastpath", "cpu.archstate",
    "utils", "bus.ahb", "mem.sram", "mem.memmap",
    "core.sim", "core.sampling", "core.sweep",
    "toolchain", "obs", "translated_code", "other",
)


def module_group(filename: str, package_root: Path) -> str | None:
    """The self-time group of a profiled file; ``None`` for code outside
    the package (builtins, the standard library)."""
    if filename.startswith("<block "):
        return "translated_code"
    try:
        relative = Path(filename).resolve().relative_to(package_root)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    dotted = ".".join(parts)
    if dotted in SELF_GROUPS:
        return dotted
    if parts and parts[0] in SELF_GROUPS:
        return parts[0]
    return "other"


def profile_self_time(profile: cProfile.Profile,
                      package_root: Path) -> dict[str, float]:
    """Self seconds per :data:`SELF_GROUPS` group.

    Code outside the package (``dict.get``, ``Counter.update`` and what
    it calls) has its self time charged to the package code that called
    it, through any chain of outside callers, split by the time each
    caller accounts for."""
    stats = pstats.Stats(profile).stats
    groups_of_file: dict[str, str | None] = {}
    shares_memo: dict[tuple, Counter] = {}

    def shares(func, visiting: frozenset) -> Counter:
        filename = func[0]
        if filename not in groups_of_file:
            groups_of_file[filename] = module_group(filename, package_root)
        group = groups_of_file[filename]
        if group is not None:
            return Counter({group: 1.0})
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if not total or func in visiting:
            return Counter({"other": 1.0})
        result: Counter = Counter()
        for caller, entry in callers.items():
            for name, share in shares(caller, visiting | {func}).items():
                result[name] += share * entry[2] / total
        shares_memo[func] = result
        return result

    groups: Counter = Counter()
    for func, (_, _, self_s, _, _) in stats.items():
        for name, share in shares(func, frozenset()).items():
            groups[name] += self_s * share
    return {name: groups[name] for name in SELF_GROUPS}


def profile_metrics(self_seconds: dict[str, float]) -> dict[str, float]:
    total = sum(self_seconds.values())
    metrics = {f"self_pct.{name}": 100 * ratio(value, total)
               for name, value in self_seconds.items()}
    metrics["translator.dispatch_frac"] = ratio(
        self_seconds["cpu.blockcache"],
        self_seconds["cpu.blockcache"] + self_seconds["translated_code"])
    return metrics
