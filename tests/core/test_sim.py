"""Sim box (Figure 1) tests: offline simulation with instruction traces."""

import pytest

from repro.core import ArchitectureConfig, LiquidProcessorSystem, Simulator, simulate
from repro.core.sampling import SamplingPlan
from repro.core.sim import MixRecorder, SimReport, _classify
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
        report = simulate(kernel_image)
        assert len(report.memory_trace) > 500
        # The dominant stride of the Figure 7 kernel shows in the miss
        # stream (the full reference stream is polluted by stack slots).
        from repro.analysis import stride_profile
        misses = report.memory_trace.filter(~report.memory_trace.hit)
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


def _engine_reports(image, max_instructions=50_000_000):
    def fresh():
        return Simulator(capture_memory_trace=False, obs=False)
    return {
        "accurate": fresh().run(image, max_instructions),
        "functional": fresh().run_functional(image, max_instructions),
        "translated": fresh().run_translated(image, max_instructions),
    }


class TestMixRecorder:
    def test_mix_sums_to_instructions_on_every_engine(self, kernel_image):
        reports = _engine_reports(kernel_image)
        for engine, report in reports.items():
            assert sum(report.instruction_mix.values()) == \
                report.instructions, engine
            assert all(count > 0
                       for count in report.instruction_mix.values()), engine
        whole = {engine: (report.instructions, report.instruction_mix)
                 for engine, report in reports.items()}
        assert whole["functional"] == whole["accurate"], whole
        assert whole["translated"] == whole["accurate"], whole

    def test_sampled_windows_sum_to_their_instructions(self):
        workload = get("crc32")
        run = Simulator(capture_memory_trace=False).run_sampled(
            workload.image(), SamplingPlan(n_windows=3, window_length=400,
                                           ramp_length=256, seed=5),
            max_instructions=workload.max_instructions)
        for window in (run.head, *run.windows):
            mix = window["instruction_mix"]
            assert sum(mix.values()) == window["instructions"]
            assert all(count > 0 for count in mix.values())

    def test_no_zero_count_classes(self):
        """A block execution that retires nothing (a trap on its first
        instruction) adds no class."""
        class Block:
            insts = [decode(encoder.ld_imm(1, 2, 0)),
                     decode(encoder.st_imm(1, 2, 0))]

        recorder = MixRecorder(engine=None)
        recorder.on_block(Block(), 0, 1)
        assert recorder.mix() == {}
        recorder.on_block(Block(), 1, 2)
        assert recorder.mix() == {"load": 2}

    def test_fold_bound_keeps_counts_exact(self, kernel_image, monkeypatch):
        """Folding block counts into word counts early (as a program
        that re-translates without end forces) changes nothing."""
        expected = Simulator(capture_memory_trace=False).run_translated(
            kernel_image).instruction_mix
        monkeypatch.setattr(MixRecorder, "FOLD_AT", 1)
        folded = Simulator(capture_memory_trace=False).run_translated(
            kernel_image).instruction_mix
        assert folded == expected

    def test_hooks_detached_after_window(self, kernel_image):
        sim = Simulator(capture_memory_trace=False)
        fast = sim._boot_and_dispatch(kernel_image, "translated")
        with pytest.raises(RuntimeError):
            with MixRecorder(fast):
                assert fast.on_retire is not None
                assert fast.on_block is not None
                raise RuntimeError
        assert fast.on_retire is None and fast.on_block is None


@pytest.mark.slow
def test_translated_mix_matches_accurate_on_a_long_kernel():
    """The registry kernels get this check through the difftest harness
    (``tests/difftest/test_workload_seeds.py``); this long streaming
    kernel retires 1.2M instructions, nearly all inside translated
    blocks."""
    workload = get("fir_stream")
    image = workload.image()
    accurate = Simulator(capture_memory_trace=False, obs=False).run(
        image, max_instructions=workload.max_instructions)
    translated = Simulator(capture_memory_trace=False,
                           obs=False).run_translated(
        image, max_instructions=workload.max_instructions)
    assert translated.instructions == accurate.instructions
    assert translated.instruction_mix == accurate.instruction_mix
