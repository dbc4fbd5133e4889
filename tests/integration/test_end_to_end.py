"""Whole-stack integration tests: the paper's flows end to end."""

import pytest

from repro.core import (
    ArchitectureConfig,
    ConfigurationSpace,
    Job,
    LiquidProcessorSystem,
    ReconfigurationServer,
)
from repro.control import DirectTransport, LiquidClient, LossyTransport
from repro.fpx import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.net.channel import ChannelConfig
from repro.toolchain.driver import SourceFile, build_image, compile_c_program
from repro.utils import s32


class TestComputationalKernels:
    """Realistic workloads through compiler + CPU + caches + protocol."""

    @pytest.fixture(scope="class")
    def system(self):
        return LiquidProcessorSystem()

    def test_crc_like_checksum(self, system):
        run = system.run_c("""
unsigned data[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                     9, 10, 11, 12, 13, 14, 15, 16};
int main(void) {
    unsigned crc = 0xFFFFFFFFu;
    for (int i = 0; i < 16; i++) {
        crc = crc ^ data[i];
        for (int bit = 0; bit < 8; bit++) {
            if (crc & 1) crc = (crc >> 1) ^ 0xEDB88320u;
            else crc = crc >> 1;
        }
    }
    return (int)(crc & 0x7FFFFFFF);
}""")
        # Independently computed reference.
        crc = 0xFFFFFFFF
        for value in range(1, 17):
            crc ^= value
            for _ in range(8):
                crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        assert run.result == crc & 0x7FFFFFFF

    def test_matrix_multiply(self, system):
        run = system.run_c("""
int a[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
int b[9] = {9, 8, 7, 6, 5, 4, 3, 2, 1};
int c[9];
int main(void) {
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++) {
            int total = 0;
            for (int k = 0; k < 3; k++)
                total += a[i * 3 + k] * b[k * 3 + j];
            c[i * 3 + j] = total;
        }
    return c[0] + c[4] + c[8];   /* trace of the product */
}""")
        a = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        b = [[9, 8, 7], [6, 5, 4], [3, 2, 1]]
        trace = sum(sum(a[i][k] * b[k][j] for k in range(3))
                    for i, j in [(0, 0), (1, 1), (2, 2)]
                    for _ in [0])  # compute c[i][j] diag
        expected = sum(sum(a[i][k] * b[k][i] for k in range(3))
                       for i in range(3))
        assert run.result == expected

    def test_string_reverse_in_memory(self, system):
        run = system.run_c("""
char buf[16] = "liquid";
int main(void) {
    int n = 0;
    while (buf[n]) n++;
    for (int i = 0; i < n / 2; i++) {
        char tmp = buf[i];
        buf[i] = buf[n - 1 - i];
        buf[n - 1 - i] = tmp;
    }
    /* checksum of reversed string, position-weighted */
    int sum = 0;
    for (int i = 0; i < n; i++) sum += buf[i] * (i + 1);
    return sum;
}""")
        reversed_text = "liquid"[::-1]
        assert run.result == sum(ord(c) * (i + 1)
                                 for i, c in enumerate(reversed_text))

    def test_sieve_of_eratosthenes(self, system):
        run = system.run_c("""
char sieve[200];
int main(void) {
    for (int i = 0; i < 200; i++) sieve[i] = 1;
    sieve[0] = sieve[1] = 0;
    for (int p = 2; p * p < 200; p++)
        if (sieve[p])
            for (int q = p * p; q < 200; q += p) sieve[q] = 0;
    int count = 0;
    for (int i = 0; i < 200; i++) count += sieve[i];
    return count;
}""")
        assert run.result == 46  # primes below 200

    def test_mixed_c_and_assembly_link(self):
        system = LiquidProcessorSystem()
        image = build_image([
            SourceFile("""
int asm_triple(int x);
int main(void) { return asm_triple(14); }
""", "c", "main.c"),
            SourceFile("""
    .global asm_triple
asm_triple:
    add %o0, %o0, %o1
    retl
    add %o1, %o0, %o0
""", "asm", "triple.s"),
        ])
        run = system.run_image(image)
        assert run.result == 42


class TestRemoteLabScenario:
    """The paper's remote-experimentation story over a bad network."""

    def test_many_programs_over_lossy_internet(self):
        platform = FPXPlatform()
        platform.boot()
        transport = LossyTransport(
            platform, platform.config.device_ip,
            platform.config.control_port,
            channel_config=ChannelConfig(loss=0.15, reorder=0.2,
                                         duplicate=0.1, corrupt=0.05),
            seed=2024)
        client = LiquidClient(transport)
        for value in (17, 23, 99):
            image = compile_c_program(
                f"int main(void) {{ return {value}; }}")
            result = client.run_image(image,
                                      result_addr=DEFAULT_MAP.result_addr)
            assert s32(result.result_word) == value

    def test_large_program_multi_packet_load(self):
        """A program big enough to need many LOAD packets."""
        platform = FPXPlatform()
        platform.boot()
        client = LiquidClient(DirectTransport(
            platform, platform.config.device_ip,
            platform.config.control_port))
        # A big initialized global makes the image span many chunks.
        values = ", ".join(str(i % 97) for i in range(600))
        image = compile_c_program(f"""
int table[600] = {{{values}}};
int main(void) {{
    int total = 0;
    for (int i = 0; i < 600; i++) total += table[i];
    return total;
}}""")
        base, blob = image.flatten()
        assert len(blob) > 1024  # really multi-chunk at 128 B/chunk
        result = client.run_image(image,
                                  result_addr=DEFAULT_MAP.result_addr)
        assert s32(result.result_word) == sum(i % 97 for i in range(600))


class TestFigure1Loop:
    """Trace → analysis → reconfigure → rerun: the complete loop."""

    def test_loop_converges_to_better_architecture(self):
        kernel = """
unsigned count[1024];
int main(void) {
    unsigned i;
    volatile unsigned x;
    for (i = 0; i < 30000; i = i + 32) {
        x = count[i % 1024];
    }
    return 0;
}
"""
        from repro.analysis.trace import TraceRecorder
        from repro.core.trace_analyzer import TraceAnalyzer

        # 1. Run instrumented on a deliberately poor configuration.
        poor = ArchitectureConfig().with_dcache_size(1024)
        system = LiquidProcessorSystem(poor)
        recorder = TraceRecorder().attach(system.platform.dcache)
        image = system.compile_c(kernel)
        baseline_run = system.run_image(image)

        # 2. Analyze the trace.
        report = TraceAnalyzer(
            candidate_sizes=[1024, 2048, 4096, 8192]).analyze(
            recorder.trace())
        assert report.recommended_dcache_size() == 4096

        # 3. Reconfigure through the server (new synthesis) and rerun.
        server = ReconfigurationServer()
        tuned = TraceAnalyzer().pick_config(poor, report)
        tuned_result = server.run_job(Job(image=image, config=tuned,
                                          name="tuned"))
        assert tuned_result.cycles < baseline_run.cycles

    def test_reconfiguration_cache_amortizes_sweep(self):
        server = ReconfigurationServer()
        image = compile_c_program("int main(void) { return 4; }")
        space = ConfigurationSpace.paper_cache_sweep()
        # First sweep pays synthesis for every point...
        for config in space:
            server.run_job(Job(image=image, config=config))
        first_ledger = server.ledger()
        assert first_ledger["cache"]["misses"] == 5
        # ...the second sweep is pure cache hits.
        for config in space:
            result = server.run_job(Job(image=image, config=config))
            assert result.seconds_synthesis == 0.0
        assert server.ledger()["cache"]["misses"] == 5
        assert server.ledger()["cache"]["hits"] >= 4
