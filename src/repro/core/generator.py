"""Architecture Generator: exploring the configuration space (Figure 1).

"The applications developer explores reconfigurability options."  Two
strategies are provided:

* :meth:`sweep` — run the application on *every* point of a
  :class:`ConfigurationSpace` via the reconfiguration server, measuring
  real cycle counts (this is how Figures 8/9 are produced);
* :meth:`trace_guided` — run once under an instrumented configuration,
  let the :class:`TraceAnalyzer` shortlist candidates from the offline
  miss curve, then measure only the shortlist.  Far fewer syntheses for
  the same answer — the quantitative version of the paper's "identify
  candidate portions ... whose performance could be improved".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.trace import TraceRecorder
from repro.control.client import LiquidClient
from repro.control.transport import DirectTransport
from repro.core.config import ArchitectureConfig
from repro.core.recon_server import Job, ReconfigurationServer
from repro.core.space import ConfigurationSpace
from repro.core.trace_analyzer import AnalysisReport, TraceAnalyzer
from repro.fpx.platform import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.toolchain.objfile import Image


@dataclass(frozen=True)
class Measurement:
    config: ArchitectureConfig
    cycles: int
    seconds: float          # at the bitfile's synthesized frequency
    frequency_mhz: float
    result_word: int | None
    cache_hit: bool


@dataclass
class ExplorationResult:
    measurements: list[Measurement] = field(default_factory=list)
    trace_report: AnalysisReport | None = None
    configs_considered: int = 0
    configs_measured: int = 0

    @property
    def best(self) -> Measurement:
        if not self.measurements:
            raise ValueError("nothing measured")
        return min(self.measurements, key=lambda m: m.seconds)

    def best_by_cycles(self) -> Measurement:
        return min(self.measurements, key=lambda m: m.cycles)

    def table(self) -> list[tuple[str, int, float]]:
        return [(m.config.key(), m.cycles, m.seconds)
                for m in self.measurements]


class ArchitectureGenerator:
    def __init__(self, server: ReconfigurationServer | None = None,
                 analyzer: TraceAnalyzer | None = None):
        self.server = server or ReconfigurationServer()
        self.analyzer = analyzer or TraceAnalyzer()

    # ------------------------------------------------------------------
    # Exhaustive sweep
    # ------------------------------------------------------------------

    def sweep(self, image: Image, space: ConfigurationSpace,
              name: str = "sweep",
              max_instructions: int = 50_000_000) -> ExplorationResult:
        result = ExplorationResult()
        for config in space:
            measurement = self._measure(image, config, name,
                                        max_instructions)
            result.measurements.append(measurement)
            result.configs_considered += 1
            result.configs_measured += 1
        return result

    def _measure(self, image: Image, config: ArchitectureConfig,
                 name: str, max_instructions: int) -> Measurement:
        job = Job(image=image, config=config, name=name,
                  max_instructions=max_instructions)
        job_result = self.server.run_job(job)
        frequency = self.server.current_bitfile.utilization.frequency_mhz
        return Measurement(
            config=config,
            cycles=job_result.cycles,
            seconds=job_result.seconds_execution,
            frequency_mhz=frequency,
            result_word=job_result.result_word,
            cache_hit=job_result.cache_hit,
        )

    # ------------------------------------------------------------------
    # Trace-guided exploration
    # ------------------------------------------------------------------

    def trace_guided(self, image: Image, space: ConfigurationSpace,
                     name: str = "trace-guided",
                     shortlist: int = 2,
                     max_instructions: int = 50_000_000) -> ExplorationResult:
        """Capture one trace under the base config, rank the space's
        dcache sizes by the offline miss curve of the base D-cache's
        shape (ways, line size, replacement), and measure only the
        most promising *shortlist* points (plus the base)."""
        result = ExplorationResult()
        configs = space.points()
        result.configs_considered = len(configs)

        # 1. Instrumented run under the base configuration.
        base_config = space.base
        platform = FPXPlatform(base_config.platform_config())
        platform.boot()
        recorder = TraceRecorder().attach(platform.dcache)
        client = LiquidClient(DirectTransport(
            platform, platform.config.device_ip,
            platform.config.control_port))
        base_run = client.run_image(image,
                                    result_addr=DEFAULT_MAP.result_addr,
                                    max_instructions=max_instructions)
        trace = recorder.trace()

        # 2. Offline analysis over the candidate cache sizes in the space.
        sizes = sorted({config.dcache.size for config in configs})
        analyzer = TraceAnalyzer(candidate_sizes=sizes,
                                 miss_rate_target=self.analyzer.miss_rate_target,
                                 stride_threshold=self.analyzer.stride_threshold)
        report = analyzer.analyze(trace, base_config.dcache)
        result.trace_report = report

        # 3. Shortlist: configs whose dcache size ranks best on the curve.
        ranked_sizes = [point.cache_bytes
                        for point in sorted(report.miss_curve,
                                            key=lambda p: (p.miss_rate,
                                                           p.cache_bytes))]
        chosen_sizes = ranked_sizes[:shortlist]
        shortlist_configs = [config for config in configs
                             if config.dcache.size in chosen_sizes]

        # 4. Measure the shortlist on real (model) hardware.
        for config in shortlist_configs:
            measurement = self._measure(image, config, name,
                                        max_instructions)
            result.measurements.append(measurement)
            result.configs_measured += 1
        # Include the instrumented base run as a measurement too.
        base_frequency = 30.0
        result.measurements.append(Measurement(
            config=base_config,
            cycles=base_run.cycles,
            seconds=base_run.cycles / (base_frequency * 1e6),
            frequency_mhz=base_frequency,
            result_word=base_run.result_word,
            cache_hit=True,
        ))
        result.configs_measured += 1
        return result
