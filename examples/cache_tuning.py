#!/usr/bin/env python3
"""The Figure 1 loop, end to end: run instrumented, analyze the trace,
let the architecture generator pick a cache, reconfigure through the
reconfiguration server, and show the Figure 8/9 result.

    python examples/cache_tuning.py
"""

import tempfile

from repro.analysis.trace import TraceRecorder
from repro.core import (
    ArchitectureConfig,
    ConfigurationSpace,
    Job,
    LiquidProcessorSystem,
    ReconfigurationServer,
    ResultCache,
    SweepRunner,
    TraceAnalyzer,
)

# The paper's Figure 7 kernel: strided access over a 4 KB array.
KERNEL = """
unsigned count[1024];

int main(void) {
    unsigned i;
    unsigned address;
    volatile unsigned x;
    for (i = 0; i < 100000; i = i + 32) {
        address = i % 1024;
        x = count[address];
    }
    return 0;
}
"""


def main() -> None:
    # --- 1. Instrumented run on a deliberately small cache -------------
    poor = ArchitectureConfig().with_dcache_size(1024)
    system = LiquidProcessorSystem(poor)
    recorder = TraceRecorder().attach(system.platform.dcache)
    image = system.compile_c(KERNEL)
    baseline = system.run_image(image)
    print(f"baseline (1KB dcache): {baseline.cycles} cycles")

    # --- 2. Trace analysis ---------------------------------------------
    analyzer = TraceAnalyzer(candidate_sizes=[1024, 2048, 4096, 8192, 16384])
    trace = recorder.trace()
    report = analyzer.analyze(trace, poor.dcache)
    print("\ntrace analyzer report:")
    for line in report.summary_lines():
        print(" ", line)
    # The analyzer models the cache it measured: at the captured size,
    # its curve counts exactly the read misses the machine had.
    [captured] = [point for point in report.miss_curve
                  if point.cache_bytes == poor.dcache.size]
    assert captured.misses == int((~trace.reads.hit).sum())

    # --- 3. Reconfigure and rerun through the server ---------------------
    tuned_config = analyzer.pick_config(poor, report)
    server = ReconfigurationServer()
    result = server.run_job(Job(image=image, config=tuned_config,
                                name="tuned"))
    print(f"\ntuned ({tuned_config.dcache.size // 1024}KB dcache): "
          f"{result.cycles} cycles "
          f"({baseline.cycles / result.cycles:.2f}x faster)")
    print(f"paid once: {result.seconds_synthesis / 3600:.2f} h synthesis, "
          f"{result.seconds_programming * 1e3:.1f} ms SelectMap programming")

    # --- 4. The full Figure 8 sweep: parallel, with a result cache -------
    # The SweepRunner is the software analogue of the reconfiguration
    # cache: points are evaluated across worker processes and memoised
    # on disk, so re-running the sweep costs nothing.
    print("\nFigure 8 sweep (cycles by D-cache size, 2 workers):")
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(workers=2, cache=ResultCache(cache_dir))
        outcome = runner.sweep(ConfigurationSpace.paper_cache_sweep(), image)
        for point in outcome.points:
            marker = " <- knee" if point.config.dcache.size == 4096 else ""
            print(f"  {point.config.dcache.size // 1024:>3} KB : "
                  f"{point.cycles:>8} cycles  "
                  f"({point.source}, {point.wall_seconds:.2f}s){marker}")
        rerun = runner.sweep(ConfigurationSpace.paper_cache_sweep(), image)
        assert rerun.stats.simulated == 0
        print(f"re-run: {rerun.stats.cache_hits}/{rerun.stats.points} "
              f"points served from the result cache, 0 simulations")
        front = outcome.pareto_front()
        print("cycles/area Pareto front:",
              ", ".join(f"{p.config.dcache.size // 1024}KB "
                        f"({p.cycles} cyc, {p.slices} slices)"
                        for p in front))

    print("\nreconfiguration ledger:", server.ledger())
    assert result.cycles < baseline.cycles


if __name__ == "__main__":
    main()
