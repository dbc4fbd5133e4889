"""SDRAM arbiter sharing: LEON vs network DMA (paper §2.4).

"This arbitration allows simultaneous use by both the LEON processor
and the network control components on the FPX."  Sharing is not free:
every port switch costs grant latency and usually a row reopen.  These
tests quantify that on an SDRAM-resident program while a modeled
network stream issues bursts on the second arbiter port.
"""

import pytest

from repro.control import DirectTransport, LiquidClient
from repro.core import ArchitectureConfig
from repro.fpx import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.toolchain.driver import SourceFile, build_image

pytestmark = pytest.mark.slow

SDRAM_TEXT_BASE = DEFAULT_MAP.sdram_base + 0x10_0000  # clear of DMA window

SOURCE = """
int main(void) {
    int total = 0;
    for (int i = 0; i < 400; i++) total += i ^ (i >> 1);
    return total;
}
"""


def run_with_dma(period: int):
    config = ArchitectureConfig().platform_config(net_dma_period=period)
    platform = FPXPlatform(config)
    platform.boot()
    client = LiquidClient(DirectTransport(platform,
                                          platform.config.device_ip,
                                          platform.config.control_port))
    image = build_image([SourceFile(SOURCE, "c", "app.c")],
                        text_base=SDRAM_TEXT_BASE)
    result = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
    return result, platform


class TestArbiterSharing:
    def test_network_traffic_slows_sdram_resident_code(self):
        quiet, _ = run_with_dma(0)
        busy, platform = run_with_dma(20)
        assert busy.result_word == quiet.result_word
        assert busy.cycles > quiet.cycles
        assert platform.sdram.arbitration_switches > 0

    def test_contention_scales_with_traffic(self):
        light, _ = run_with_dma(200)
        heavy, _ = run_with_dma(10)
        assert heavy.cycles >= light.cycles

    def test_sram_resident_code_unaffected(self):
        """Programs in SRAM never touch the SDRAM arbiter, so network
        DMA cannot slow them (the FPX's isolation argument)."""

        def run_sram(period):
            config = ArchitectureConfig().platform_config(
                net_dma_period=period)
            platform = FPXPlatform(config)
            platform.boot()
            client = LiquidClient(DirectTransport(
                platform, platform.config.device_ip,
                platform.config.control_port))
            image = build_image([SourceFile(SOURCE, "c", "app.c")])
            return client.run_image(image,
                                    result_addr=DEFAULT_MAP.result_addr)

        quiet = run_sram(0)
        busy = run_sram(10)
        assert busy.cycles == quiet.cycles
        assert busy.result_word == quiet.result_word

    def test_network_port_counts_in_stats(self):
        _, platform = run_with_dma(25)
        stats = platform.sdram.stats()
        assert "network" in stats["ports"]
        assert platform.sdram_net_port.requests > 0
