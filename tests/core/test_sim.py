"""Sim box (Figure 1) tests: offline simulation with instruction traces."""

from dataclasses import replace

import pytest

from repro.analysis import TraceRecorder, stride_profile
from repro.cache.cache import CacheGeometry
from repro.core import (
    POPCOUNT_RECIPE,
    ArchitectureConfig,
    LiquidProcessorSystem,
    Simulator,
    simulate,
)
from repro.core.replay import Replayer, _mix, record
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import MixRecorder, _classify
from repro.cpu.blockcache import Recording
from repro.cpu.decode import decode
from repro.toolchain.asm import encoder
from repro.toolchain.driver import compile_c_program
from repro.workloads import get

KERNEL = """
unsigned count[1024];
int main(void) {
    unsigned i;
    volatile unsigned x;
    for (i = 0; i < 20000; i = i + 32) {
        x = count[i % 1024];
    }
    return 7;
}
"""


@pytest.fixture(scope="module")
def kernel_image():
    return compile_c_program(KERNEL)


class TestSimulator:
    def test_runs_and_reports(self, kernel_image):
        report = simulate(kernel_image)
        assert report.result_word == 7
        assert report.cycles > 0
        assert report.instructions > 0
        assert 1.0 < report.cpi < 10.0

    def test_instruction_mix_sums_to_instret(self, kernel_image):
        report = simulate(kernel_image)
        assert sum(report.instruction_mix.values()) == report.instructions
        # The kernel is load/branch heavy.
        assert report.instruction_mix["load"] > 0
        assert report.instruction_mix["branch"] > 0

    def test_memory_trace_captured(self, kernel_image):
        system = LiquidProcessorSystem()
        recorder = TraceRecorder().attach(system.platform.dcache)
        system.run_image(kernel_image)
        trace = recorder.trace()
        assert len(trace) > 500
        # The dominant stride of the Figure 7 kernel shows in the miss
        # stream (the full reference stream is polluted by stack slots).
        misses = trace.filter(~trace.hit)
        strides = stride_profile(misses)
        assert strides[0][0] == 128

    def test_sim_agrees_with_fpx_hardware_counter(self, kernel_image):
        """The Sim box and the FPX cycle counter measure the same
        program; counts agree to within the dispatch overhead (the FPX
        counter is armed slightly before the program's first fetch)."""
        report = simulate(kernel_image)
        fpx = LiquidProcessorSystem().run_image(kernel_image)
        assert abs(fpx.cycles - report.cycles) < 500
        assert fpx.result == report.result_word

    def test_config_respected(self, kernel_image):
        small = simulate(kernel_image,
                         ArchitectureConfig().with_dcache_size(1024))
        large = simulate(kernel_image,
                         ArchitectureConfig().with_dcache_size(4096))
        assert small.cycles > large.cycles
        assert small.dcache["read_misses"] > large.dcache["read_misses"]

    def test_prefetch_config_respected(self, kernel_image):
        plain = simulate(kernel_image,
                         ArchitectureConfig().with_dcache_size(1024))
        prefetching = simulate(
            kernel_image,
            ArchitectureConfig().with_dcache_size(1024)
            .with_prefetch("stride"))
        assert prefetching.cycles < plain.cycles
        assert prefetching.dcache["prefetch"]["useful"] > 0

    def test_custom_extension_executes_in_sim(self):
        from repro.core import POPCOUNT_RECIPE

        source = """
int popcount_xor(int a, int b);
int main(void) { return popcount_xor(0xFF00, 0x00FF); }
int popcount_xor(int a, int b) { return 0; } /* replaced by recipe */
"""
        rewritten, _ = POPCOUNT_RECIPE.rewrite_c(source)
        config = POPCOUNT_RECIPE.apply_to_config(ArchitectureConfig())
        report = simulate(compile_c_program(rewritten), config)
        assert report.result_word == 16
        assert report.instruction_mix.get("custom", 0) == 1

    def test_simulator_reusable_across_images(self):
        simulator = Simulator()
        first = simulator.run(compile_c_program(
            "int main(void) { return 1; }"))
        second = simulator.run(compile_c_program(
            "int main(void) { return 2; }"))
        assert first.result_word == 1
        assert second.result_word == 2

    def test_uart_output_collected(self):
        image = compile_c_program("""
int main(void) {
    puts_uart("sim");
    return 0;
}""", with_libc=True)
        report = simulate(image)
        assert report.uart_output == b"sim\n"

    def test_summary_lines_render(self, kernel_image):
        report = simulate(kernel_image)
        text = "\n".join(report.summary_lines())
        assert "CPI" in text and "instruction mix" in text


_STOCK = ArchitectureConfig()


@pytest.mark.parametrize("config, gap", [
    (_STOCK, 21),
    (_STOCK.with_dcache_size(1024), 21),
    (_STOCK.with_dcache_size(16384), 21),
    (_STOCK.with_prefetch("stride"), 21),
    (POPCOUNT_RECIPE.apply_to_config(_STOCK), 21),
    (replace(_STOCK, load_use_interlock=False), 20),
    (_STOCK.with_pipeline_depth(3), 20),
    (_STOCK.with_pipeline_depth(7), 23),
], ids=["stock", "dcache-1k", "dcache-16k", "stride", "popcount",
        "no-interlock", "depth-3", "depth-7"])
def test_fpx_counts_the_polling_loops_last_lap(config, gap):
    """The Sim box and the FPX node are one machine, so they compute the
    same word and differ by exactly the instructions only the FPX
    counts.  leon_ctrl arms the cycle counter at START, with LEON parked
    in the polling loop just past its ``flush``; the Sim box writes the
    mailbox itself and opens its window at the program's entry.  Both
    close at the return to ``check_ready``.  The gap is the polling
    loop's last lap: ``sethi %hi(mailbox), %g1`` (10 cycles: an I-cache
    line fill, since leon_ctrl flushed the caches at START),
    ``ld [%g1], %g2`` (4: the mailbox is uncached), ``cmp %g2, 0`` (1,
    plus 1 for the load-use interlock), the untaken ``be check_ready``
    and its ``nop`` (1 each), ``jmp %g2`` (2, plus the taken-CTI
    penalty of 2 at depth 7) and its delay-slot ``nop`` (1).  The cache
    sizes, the prefetcher and the extension below leave it alone."""
    image = compile_c_program("int main(void) { return 6 * 7; }")
    sim = Simulator(config).run(image)
    fpx = LiquidProcessorSystem(config).run_image(image)
    assert sim.result_word == fpx.result == 42
    assert fpx.cycles - sim.cycles == gap


_ONE_WINDOW_CONFIGS = {
    "stock": _STOCK,
    "lrr": replace(_STOCK, dcache=CacheGeometry(size=1024, ways=2,
                                                replacement="lrr")),
    "stride": _STOCK.with_dcache_size(1024).with_prefetch("stride"),
}


@pytest.mark.parametrize("engine, name", [
    ("accurate", "stock"), ("accurate", "lrr"), ("accurate", "stride"),
    ("accurate-no-obs", "stock"), ("replay", "stock"), ("replay", "lrr"),
])
def test_cache_dicts_cover_the_obs_window(kernel_image, engine, name):
    """A full-detail record is one window: every integer counter of its
    ``dcache``/``icache`` dicts is the matching ``cache.*`` counter of
    its ``obs`` (of the ``obs=True`` run, for an ``obs=False`` one), so
    boot and dispatch count in neither."""
    config = _ONE_WINDOW_CONFIGS[name]
    if engine == "replay":
        report = Replayer(record(config, kernel_image,
                                 20_000_000)).report(config)
    else:
        report = Simulator(config, obs=engine == "accurate").run(
            kernel_image)
    obs = report.obs or Simulator(config).run(kernel_image).obs
    counters = obs["counters"]
    for cache in ("dcache", "icache"):
        counts = {key: value for key, value in getattr(report, cache).items()
                  if isinstance(value, int)}
        assert len(counts) == 8
        assert counts == {key: counters[f"cache.{key}{{cache={cache}}}"]
                          for key in counts}, cache
    assert report.icache["read_misses"] > 0
    if config.prefetch != "none":
        assert report.dcache["prefetch"]["issued"] \
            == counters["cache.prefetch_issued{cache=dcache}"] > 0


LED_LOOP = """
int main(void) {
    volatile unsigned *leds = (volatile unsigned *) 0x800000A0;
    unsigned i;
    unsigned sum = 0;
    *leds = 1;
    for (i = 0; i < 200; i = i + 1) {
        sum = sum + i;
    }
    *leds = 2;
    return sum;
}
"""


def test_sim_box_clock_never_advances():
    """The Sim box never advances its peripheral clock (exact replay
    relies on it: no MMIO read can observe timing), on either engine,
    so its LED writes are all stamped cycle 0.  The FPX node's step
    loop advances the clock and stamps them in program order."""
    image = compile_c_program(LED_LOOP)
    for engine in ("run", "run_translated"):
        sim = Simulator()
        assert getattr(sim, engine)(image).result_word == 19900
        assert sim.clock.cycles == 0, engine
        assert sim.leds.history == [(0, 1), (0, 2)], engine
    system = LiquidProcessorSystem()
    system.run_image(image)
    (first, one), (second, two) = system.platform.leds.history
    assert (one, two) == (1, 2)
    assert 0 < first < second


class TestClassifier:
    @pytest.mark.parametrize("word,expected", [
        (encoder.arith_imm(__import__("repro.cpu.isa",
                                      fromlist=["Op3"]).Op3.ADD, 1, 2, 3),
         "alu"),
        (encoder.call(4), "call"),
        (encoder.sethi(1, 5), "sethi"),
        (encoder.branch(8, 4), "branch"),
        (encoder.ld_imm(1, 2, 0), "load"),
        (encoder.st_imm(1, 2, 0), "store"),
        (encoder.jmpl_imm(0, 15, 8), "jump"),
        (encoder.cpop1(1, 2, 3, 4), "custom"),
    ])
    def test_classes(self, word, expected):
        assert _classify(decode(word)) == expected


class TestMixRecorder:
    def test_mix_sums_to_instructions_on_every_engine(self, kernel_image):
        """The accurate engine's mix and the one folded from the
        translated engine's recording (the replayed report's)."""
        config = ArchitectureConfig()
        reports = {
            "accurate": Simulator(config, obs=False).run(kernel_image),
            "recorded": Replayer(record(config, kernel_image,
                                        50_000_000)).report(config),
        }
        for engine, report in reports.items():
            assert sum(report.instruction_mix.values()) == \
                report.instructions, engine
            assert all(count > 0
                       for count in report.instruction_mix.values()), engine
        whole = {engine: (report.instructions, report.instruction_mix)
                 for engine, report in reports.items()}
        assert whole["recorded"] == whole["accurate"], whole

    def test_sampled_windows_sum_to_their_instructions(self):
        workload = get("crc32")
        run = SampledRunner().run(
            workload.image(), SamplingPlan(n_windows=3, window_length=400,
                                           ramp_length=256, seed=5),
            max_instructions=workload.max_instructions)
        for window in (run.head, *run.windows):
            mix = window["instruction_mix"]
            assert sum(mix.values()) == window["instructions"]
            assert all(count > 0 for count in mix.values())

    def test_no_zero_count_classes(self):
        """A block exit that retires nothing (a trap on its first
        instruction) adds no class to the mix folded from a recording."""
        class Block:
            insts = [decode(encoder.ld_imm(1, 2, 0)),
                     decode(encoder.st_imm(1, 2, 0))]

        recording = Recording()
        recording.blocks.append(Block())
        # Block 0 fetched one word and retired none of it.
        recording.events.append(1 << 9)
        assert _mix(recording, (0, 0, 0), recording.mark()) == {}
        # Twice: one word fetched, one retired.
        recording.events.extend([1 << 9 | 1 << 2] * 2)
        assert _mix(recording, (0, 0, 0), recording.mark()) == {"load": 2}

    def test_hooks_detached_after_window(self, kernel_image):
        sim = Simulator()
        cpu = sim.cpu
        sim._dispatch_on(cpu, kernel_image)
        with pytest.raises(RuntimeError):
            with MixRecorder(cpu):
                assert cpu.on_retire is not None
                raise RuntimeError
        assert cpu.on_retire is None

    def test_refuses_a_translated_engine(self):
        """A translated engine retires most instructions inside blocks,
        which ``on_retire`` never sees."""
        with pytest.raises(TypeError):
            MixRecorder(Simulator(obs=False).translated_unit())


@pytest.mark.slow
def test_translated_mix_matches_accurate_on_a_long_kernel():
    """The registry kernels get this check through the difftest harness
    (``tests/difftest/test_workload_seeds.py``); this long streaming
    kernel retires 1.2M instructions, nearly all inside translated
    blocks.  The translated mix is the fold over the program window of
    the recording a replayed report reads."""
    workload = get("fir_stream")
    image = workload.image()
    accurate = Simulator(obs=False).run(
        image, max_instructions=workload.max_instructions)
    recorded = record(ArchitectureConfig(), image,
                      workload.max_instructions)
    recording = recorded.recording
    assert recorded.instructions == accurate.instructions
    assert _mix(recording, recorded.window, recording.mark()) == \
        accurate.instruction_mix
