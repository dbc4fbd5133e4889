"""LiquidProcessorSystem: the one-object facade over the whole stack.

This is the "Figure 3" object: one configured FPX node with its LEON
core, plus the toolchain and control client bound to it.  Most users
(and the examples) want exactly this:

    system = LiquidProcessorSystem(config)
    result = system.run_c(source)
    print(result.cycles)

A config with the ``mac`` extension *just works* end to end: the
Liquid core installs the rewriter's recipe as the simulator semantics
(as it does for every machine built from a config), and the synthesis
model charges its area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.client import LiquidClient, RunResult
from repro.control.listener import ResponseListener
from repro.control.transport import DirectTransport, LossyTransport
from repro.core.config import ArchitectureConfig
from repro.core.synthesis import Bitfile, SynthesisModel
from repro.fpx.platform import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.net.channel import ChannelConfig
from repro.toolchain.driver import SourceFile, build_image
from repro.toolchain.objfile import Image


@dataclass
class ProgramRun:
    """Everything one remote execution produced."""

    result: int | None
    cycles: int
    seconds: float
    image: Image
    state: str

    def __repr__(self) -> str:
        return (f"ProgramRun(result={self.result}, cycles={self.cycles}, "
                f"seconds={self.seconds:.6f}, state={self.state})")


class LiquidProcessorSystem:
    """A configured Liquid node + toolchain + control client."""

    def __init__(self, config: ArchitectureConfig | None = None,
                 channel: ChannelConfig | None = None, seed: int = 7):
        self.config = config or ArchitectureConfig()
        self.platform = FPXPlatform(self.config.platform_config())
        self.bitfile: Bitfile = SynthesisModel().synthesize(self.config)
        self.platform.rad.program(self.bitfile.name,
                                  self.bitfile.size_bytes)
        self.platform.boot()
        self.listener = ResponseListener()
        if channel is None:
            transport = DirectTransport(self.platform,
                                        self.platform.config.device_ip,
                                        self.platform.config.control_port)
        else:
            transport = LossyTransport(self.platform,
                                       self.platform.config.device_ip,
                                       self.platform.config.control_port,
                                       channel_config=channel, seed=seed)
        self.client = LiquidClient(transport, self.listener)

    # ------------------------------------------------------------------
    # Compile + run
    # ------------------------------------------------------------------

    def compile_c(self, source: str, extra_asm: str | None = None) -> Image:
        sources = [SourceFile(source, "c", "app.c")]
        if extra_asm:
            sources.append(SourceFile(extra_asm, "asm", "app_extra.s"))
        return build_image(sources, self.platform.memmap)

    def compile_asm(self, source: str, with_crt0: bool = False) -> Image:
        return build_image([SourceFile(source, "asm", "app.s")],
                           self.platform.memmap,
                           with_crt0=with_crt0)

    def run_image(self, image: Image,
                  max_instructions: int = 50_000_000) -> ProgramRun:
        run: RunResult = self.client.run_image(
            image, result_addr=DEFAULT_MAP.result_addr,
            max_instructions=max_instructions)
        frequency_hz = self.bitfile.utilization.frequency_mhz * 1e6
        return ProgramRun(
            result=run.result_word,
            cycles=run.cycles,
            seconds=run.cycles / frequency_hz,
            image=image,
            state=self.platform.leon_ctrl.state.name,
        )

    def run_c(self, source: str,
              max_instructions: int = 50_000_000) -> ProgramRun:
        return self.run_image(self.compile_c(source), max_instructions)

    def run_asm(self, source: str,
                max_instructions: int = 50_000_000) -> ProgramRun:
        return self.run_image(self.compile_asm(source, with_crt0=True),
                              max_instructions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def utilization_table(self) -> str:
        from repro.core.synthesis import figure10_table

        return figure10_table(self.config)

    def statistics(self) -> dict:
        stats = self.platform.statistics()
        stats["bitfile"] = self.bitfile.name
        stats["frequency_mhz"] = self.bitfile.utilization.frequency_mhz
        return stats
