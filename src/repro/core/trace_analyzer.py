"""Trace Analyzer (Figure 1, left-hand loop).

"Execution traces are analyzed to identify candidate portions of an
application whose performance could be improved through
reconfigurability."  The analyzer consumes a :class:`MemoryTrace`
captured on the FPX (via the D-cache controller's hook) and produces an
:class:`AnalysisReport` with:

* the working-set size and the knee of the offline miss-rate curve →
  the recommended data-cache size (the paper's own example dimension);
* the dominant access stride → a prefetch-unit recommendation ("an
  alternative memory structure (such as a prefetch unit)");
* write-intensity → a note about the SDRAM adapter's RMW write penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.stats import (
    MissCurvePoint,
    observed_miss_rate,
    simulate_miss_curve,
    stride_profile,
    working_set_bytes,
)
from repro.analysis.trace import MemoryTrace
from repro.cache.cache import CacheGeometry
from repro.core.config import ArchitectureConfig

DEFAULT_CANDIDATE_SIZES = [1024, 2048, 4096, 8192, 16384, 32768]


@dataclass(frozen=True)
class Recommendation:
    """One tuning suggestion with its expected effect."""

    dimension: str      # e.g. 'dcache_size', 'prefetch', 'write_path'
    value: object
    reason: str


@dataclass
class AnalysisReport:
    references: int
    working_set: int
    observed_miss_rate: float
    miss_curve: list[MissCurvePoint]
    dominant_strides: list[tuple[int, int]]
    write_fraction: float
    recommendations: list[Recommendation] = field(default_factory=list)

    def recommended_dcache_size(self) -> int | None:
        for rec in self.recommendations:
            if rec.dimension == "dcache_size":
                return int(rec.value)
        return None

    def summary_lines(self) -> list[str]:
        lines = [
            f"references      : {self.references}",
            f"working set     : {self.working_set} bytes",
            f"observed misses : {self.observed_miss_rate:.2%}",
            f"write fraction  : {self.write_fraction:.2%}",
            "miss-rate curve :",
        ]
        for point in self.miss_curve:
            bar = "#" * int(point.miss_rate * 40)
            lines.append(f"  {point.cache_bytes // 1024:>3} KB : "
                         f"{point.miss_rate:7.2%} {bar}")
        for rec in self.recommendations:
            lines.append(f"recommend {rec.dimension} = {rec.value} "
                         f"({rec.reason})")
        return lines


class TraceAnalyzer:
    """Turns traces into configuration advice."""

    def __init__(self, candidate_sizes: list[int] | None = None,
                 miss_rate_target: float = 0.02,
                 stride_threshold: float = 0.5):
        self.candidate_sizes = candidate_sizes or list(DEFAULT_CANDIDATE_SIZES)
        self.miss_rate_target = miss_rate_target
        self.stride_threshold = stride_threshold

    def analyze(self, trace: MemoryTrace,
                geometry: CacheGeometry = CacheGeometry()) -> AnalysisReport:
        """Analyze *trace*; the miss curve varies only the size of
        *geometry*, the D-cache the trace was captured under."""
        curve = simulate_miss_curve(
            trace, [replace(geometry, size=size)
                    for size in self.candidate_sizes])
        # Stride detection over the *miss* stream when one exists: hits
        # (loop counters, stack slots) pollute the full reference stream,
        # but a hardware stride prefetcher trains on misses — and so does
        # the analyzer that decides whether to instantiate one.
        accesses = trace.accesses
        misses = trace.misses
        stride_basis = misses if len(misses) >= 16 else accesses
        strides = stride_profile(stride_basis)
        write_fraction = (float(accesses.is_write.mean()) if len(accesses)
                          else 0.0)
        report = AnalysisReport(
            references=len(accesses),
            working_set=working_set_bytes(trace, geometry.line_size),
            observed_miss_rate=observed_miss_rate(trace),
            miss_curve=curve,
            dominant_strides=strides,
            write_fraction=write_fraction,
        )
        self._recommend(report, trace, stride_references=len(stride_basis))
        return report

    def _recommend(self, report: AnalysisReport, trace: MemoryTrace,
                   stride_references: int | None = None) -> None:
        # Cache size: smallest candidate under the target miss rate;
        # if none qualifies, the largest (diminishing-returns) point.
        chosen = None
        for point in report.miss_curve:
            if point.miss_rate <= self.miss_rate_target:
                chosen = point
                break
        if chosen is not None:
            report.recommendations.append(Recommendation(
                "dcache_size", chosen.cache_bytes,
                f"miss rate {chosen.miss_rate:.2%} <= target "
                f"{self.miss_rate_target:.0%}"))
        elif report.miss_curve:
            best = min(report.miss_curve, key=lambda p: p.miss_rate)
            report.recommendations.append(Recommendation(
                "dcache_size", best.cache_bytes,
                f"no candidate met the target; best is "
                f"{best.miss_rate:.2%}"))
        # Prefetch: a single stride dominating the (miss) stream.
        basis = stride_references if stride_references is not None \
            else report.references
        if report.dominant_strides and basis > 16:
            stride, count = report.dominant_strides[0]
            coverage = count / max(basis - 1, 1)
            if stride != 0 and coverage >= self.stride_threshold:
                report.recommendations.append(Recommendation(
                    "prefetch", stride,
                    f"stride {stride} covers {coverage:.0%} of the "
                    "miss stream"))
        # Write path: heavy write traffic suffers the SDRAM RMW penalty.
        if report.write_fraction > 0.5:
            report.recommendations.append(Recommendation(
                "write_path", "coalescing",
                f"{report.write_fraction:.0%} writes — each costs two "
                "SDRAM handshakes through the 32->64 bit adapter"))

    def pick_config(self, base: ArchitectureConfig,
                    report: AnalysisReport,
                    allow_prefetch: bool = True) -> ArchitectureConfig:
        """Apply the report's recommendations to *base*: cache size, and
        (when a dominant stride was found) the stride prefetch unit."""
        config = base
        size = report.recommended_dcache_size()
        if size is not None:
            config = config.with_dcache_size(size)
        if allow_prefetch and any(rec.dimension == "prefetch"
                                  for rec in report.recommendations):
            config = config.with_prefetch("stride")
        return config
