"""Trace streaming off the FPX (Figure 1): "The high-speed network
facilitates ... the streaming of instrumented traces to the Trace
Analyzer."  The trace travels the same IP/UDP path as everything else."""

import pytest

from repro.analysis import stride_profile
from repro.control import DeviceError, DirectTransport, LiquidClient, LossyTransport
from repro.core import ArchitectureConfig, TraceAnalyzer
from repro.fpx import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.net.channel import ChannelConfig
from repro.toolchain.driver import compile_c_program

KERNEL = """
unsigned count[1024];
int main(void) {
    unsigned i;
    volatile unsigned x;
    for (i = 0; i < 20000; i = i + 32) {
        x = count[i % 1024];
    }
    return 0;
}
"""


def traced_platform(dcache_size=1024, **channel):
    config = ArchitectureConfig().with_dcache_size(dcache_size) \
        .platform_config(capture_trace=True)
    platform = FPXPlatform(config)
    platform.boot()
    if channel:
        transport = LossyTransport(platform, platform.config.device_ip,
                                   platform.config.control_port,
                                   channel_config=ChannelConfig(**channel),
                                   seed=31)
    else:
        transport = DirectTransport(platform, platform.config.device_ip,
                                    platform.config.control_port)
    return platform, LiquidClient(transport)


class TestTraceStreaming:
    def test_trace_fetched_over_the_network(self):
        platform, client = traced_platform()
        client.run_image(compile_c_program(KERNEL),
                         result_addr=DEFAULT_MAP.result_addr)
        trace = client.fetch_trace()
        assert len(trace) > 1000
        # The streamed trace carries the kernel's signature stride.
        misses = trace.misses
        assert stride_profile(misses)[0][0] == 128

    def test_streamed_trace_matches_local_recorder(self):
        platform, client = traced_platform()
        client.run_image(compile_c_program(KERNEL),
                         result_addr=DEFAULT_MAP.result_addr)
        local = platform.trace_recorder.trace()
        import numpy as np
        streamed = client.fetch_trace()
        # The streamed copy may include a few extra references recorded
        # while serving the protocol; the local snapshot is a prefix.
        assert len(streamed) >= len(local) - 8
        n = min(len(local), len(streamed))
        assert np.array_equal(streamed.addresses[:n], local.addresses[:n])

    def test_analyzer_works_on_streamed_trace(self):
        """The complete remote Figure 1 loop: run remotely, stream the
        trace back, analyze, get the 4 KB recommendation."""
        platform, client = traced_platform(dcache_size=1024)
        client.run_image(compile_c_program(KERNEL),
                         result_addr=DEFAULT_MAP.result_addr)
        trace = client.fetch_trace()
        report = TraceAnalyzer(
            candidate_sizes=[1024, 2048, 4096, 8192]).analyze(trace)
        assert report.recommended_dcache_size() == 4096

    def test_trace_survives_lossy_channel(self):
        platform, client = traced_platform(loss=0.15, reorder=0.2)
        client.run_image(compile_c_program(KERNEL),
                         result_addr=DEFAULT_MAP.result_addr)
        trace = client.fetch_trace(chunk=256)
        assert len(trace) > 1000

    def test_trace_disabled_reports_error(self):
        platform = FPXPlatform()  # capture_trace defaults to off
        platform.boot()
        client = LiquidClient(DirectTransport(
            platform, platform.config.device_ip,
            platform.config.control_port))
        with pytest.raises(DeviceError):
            client.fetch_trace()

    def test_protocol_codec_roundtrip(self):
        from repro.net import protocol

        request = protocol.decode_command(
            protocol.encode_read_trace(1024, 256))
        assert (request.offset, request.length) == (1024, 256)
        response = protocol.decode_response(
            protocol.encode_trace_data(5000, 1024, b"abc"))
        assert (response.total, response.offset, response.data) == \
            (5000, 1024, b"abc")
