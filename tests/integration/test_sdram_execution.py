"""Executing programs out of SDRAM — the paper's in-development path
("a SDRAM interface ... that will aid in loading an OS, such as Linux").

Programs are linked with their text at the SDRAM base, loaded over the
protocol into SDRAM through the controller's host port, dispatched via
the same mailbox, and fetched through the §3.2 AHB adapter (4-word read
bursts doing the heavy lifting on I-cache fills).
"""

from repro.mem.memmap import DEFAULT_MAP
from repro.net.protocol import LeonState
from repro.toolchain.driver import SourceFile, build_image
from repro.utils import s32

SDRAM_TEXT_BASE = DEFAULT_MAP.sdram_base + 0x1000


def sdram_image(c_source: str):
    return build_image([SourceFile(c_source, "c", "app.c")],
                       text_base=SDRAM_TEXT_BASE)


class TestSdramExecution:
    def test_image_lands_in_sdram(self):
        image = sdram_image("int main(void) { return 5; }")
        assert DEFAULT_MAP.region_of(image.entry) == "sdram"

    def test_load_and_run_from_sdram(self, platform, client):
        image = sdram_image("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 100; i++) total += i;
    return total;
}""")
        result = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
        assert s32(result.result_word) == 4950
        assert platform.leon_ctrl.state == LeonState.DONE
        # Instruction fetch really went through the SDRAM controller.
        assert platform.sdram.total_handshakes > 0

    def test_read_memory_from_sdram(self, platform, client):
        image = sdram_image("int main(void) { return 0; }")
        client.load_image(image)
        base, blob = image.flatten()
        echoed = client.read_memory(base, 16)
        assert echoed == blob[:16]

    def test_sdram_data_and_sram_results_coexist(self, platform, client):
        """Code and globals in SDRAM; the result word in SRAM (crt0)."""
        image = sdram_image("""
int table[32];
int main(void) {
    for (int i = 0; i < 32; i++) table[i] = i * 3;
    int total = 0;
    for (int i = 0; i < 32; i++) total += table[i];
    return total;
}""")
        result = client.run_image(image, result_addr=DEFAULT_MAP.result_addr)
        assert s32(result.result_word) == 3 * sum(range(32))
        # table[] writes hit the adapter's RMW path.
        assert platform.sdram_adapter.rmw_writes > 0

    def test_sdram_execution_slower_than_sram(self, client, platform):
        """Same program, two homes: SDRAM execution pays handshake+CAS
        latency on every I-cache fill (why the paper needed the burst
        adapter before an OS was realistic)."""
        source = """
int main(void) {
    int total = 0;
    for (int i = 0; i < 500; i++) total += i ^ (i << 2);
    return total;
}"""
        sram_result = client.run_image(
            build_image([SourceFile(source, "c", "a.c")]),
            result_addr=DEFAULT_MAP.result_addr)
        sdram_result = client.run_image(
            sdram_image(source), result_addr=DEFAULT_MAP.result_addr)
        assert sdram_result.result_word == sram_result.result_word
        assert sdram_result.cycles > sram_result.cycles

    def test_adapter_burst_policy_matters_for_sdram_code(self):
        """The §3.2 ablation, measured on real code execution: 4-word
        read bursts vs single-word handshakes for an SDRAM-resident
        program."""
        from repro.control import DirectTransport, LiquidClient
        from repro.core import ArchitectureConfig
        from repro.fpx import FPXPlatform

        source = """
int main(void) {
    int total = 0;
    for (int i = 0; i < 300; i++) total += i;
    return total;
}"""
        image = sdram_image(source)

        def run_with_burst(words: int) -> int:
            config = ArchitectureConfig(adapter_read_burst=words)
            platform = FPXPlatform(config.platform_config())
            platform.boot()
            client = LiquidClient(DirectTransport(
                platform, platform.config.device_ip,
                platform.config.control_port))
            result = client.run_image(image,
                                      result_addr=DEFAULT_MAP.result_addr)
            return result.cycles

        assert run_with_burst(4) < run_with_burst(1)
