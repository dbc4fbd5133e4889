#!/usr/bin/env python3
"""The Sim box of Figure 1: offline simulation with instruction traces.

"Based on the reconfigured architecture and the automatically rewritten
application, simulation can provide additional instruction traces to
assist the developer in evaluating the effectiveness of the current
configuration."

This walkthrough compiles a program against the runtime library (UART
console output included), simulates it under two architectures, and uses
the instruction mix + memory trace to explain *why* one configuration
wins — the developer-facing side of the exploration loop.

    python examples/instruction_profiling.py
"""

from repro.analysis import TraceRecorder, stride_profile
from repro.core import (
    ArchitectureConfig,
    LiquidProcessorSystem,
    Simulator,
    TraceAnalyzer,
)
from repro.toolchain.driver import compile_c_program

SOURCE = """
/* Strided reduction over a 4 KB vector — memory-bound on a 1 KB cache.
 * (A single access stream: exactly what a one-entry stride predictor
 * can follow.  Interleaving two distant arrays would defeat it — try it
 * and watch the accuracy drop to zero.) */
unsigned a[1024];

int main(void) {
    unsigned total = 0;
    for (int i = 0; i < 1024; i++) {
        a[i] = 3 * i;
    }
    for (int pass = 0; pass < 8; pass++)
        for (int i = 0; i < 1024; i += 16)
            total += a[i];
    puts_uart("reduction done");
    print_unsigned(total);
    return (int)(total & 0x7FFFFFFF);
}
"""


def report_for(config: ArchitectureConfig, image):
    return Simulator(config).run(image)


def memory_trace(config: ArchitectureConfig, image):
    """The D-cache's reference stream, recorded on a booted FPX node."""
    system = LiquidProcessorSystem(config)
    recorder = TraceRecorder().attach(system.platform.dcache)
    system.run_image(image)
    return recorder.trace()


def main() -> None:
    image = compile_c_program(SOURCE, with_libc=True)

    small = ArchitectureConfig().with_dcache_size(1024)
    tuned = ArchitectureConfig().with_dcache_size(1024) \
        .with_prefetch("stride")

    print("=== small cache (1 KB, no prefetch) ===")
    baseline = report_for(small, image)
    for line in baseline.summary_lines():
        print(" ", line)
    print("  UART said:", baseline.uart_output.decode())

    # What the trace tells the analyzer:
    trace = memory_trace(small, image)
    misses = trace.misses
    print(f"\n  demand misses: {len(misses)}; dominant miss strides:",
          stride_profile(misses)[:3])
    report = TraceAnalyzer().analyze(trace)
    for rec in report.recommendations:
        print(f"  analyzer: {rec.dimension} = {rec.value} ({rec.reason})")

    print("\n=== same cache + stride prefetch unit ===")
    prefetching = report_for(tuned, image)
    print(f"  cycles: {baseline.cycles} -> {prefetching.cycles} "
          f"({baseline.cycles / prefetching.cycles:.2f}x)")
    stats = prefetching.dcache["prefetch"]
    print(f"  prefetches issued {stats['issued']}, useful "
          f"{stats['useful']} (accuracy {stats['accuracy']:.0%})")

    assert prefetching.cycles < baseline.cycles
    assert prefetching.result_word == baseline.result_word


if __name__ == "__main__":
    main()
