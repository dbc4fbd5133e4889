"""LiquidProcessorSystem facade + rewrite-recipe (custom instruction) tests."""

import pytest

from repro.core import (
    ArchitectureConfig,
    BUILTIN_RECIPES,
    LiquidProcessorSystem,
    MAC_RECIPE,
    POPCOUNT_RECIPE,
    SATADD_RECIPE,
    install_recipes,
)
from repro.control.fleet import FleetScheduler
from repro.core.recon_server import Job, ReconfigurationServer
from repro.net.channel import ChannelConfig
from repro.toolchain.cc import compile_c
from repro.toolchain.driver import compile_c_program

POPCOUNT_XOR = """
int popcount_xor(int a, int b) {
    int value = a ^ b;
    int count = 0;
    while (value) { count += value & 1; value = (value >> 1) & 0x7FFFFFFF; }
    return count;
}
int main(void) { return popcount_xor(0xF0F0, 0x0F0F); }
"""


class TestFacade:
    @pytest.fixture(scope="class")
    def system(self):
        return LiquidProcessorSystem()

    def test_run_c(self, system):
        run = system.run_c("int main(void) { return 6 * 7; }")
        assert run.result == 42
        assert run.cycles > 0
        assert run.state == "DONE"

    def test_run_asm(self, system):
        run = system.run_asm("""
    .global main
main:
    retl
    mov 9, %o0
""")
        assert run.result == 9

    def test_seconds_derived_from_synthesized_frequency(self, system):
        run = system.run_c("int main(void) { return 0; }")
        assert run.seconds == pytest.approx(
            run.cycles / (system.bitfile.utilization.frequency_mhz * 1e6))

    def test_utilization_table(self, system):
        assert "Logic Slices" in system.utilization_table()

    def test_statistics_include_bitfile(self, system):
        stats = system.statistics()
        assert stats["bitfile"].startswith("liquid_")
        assert stats["frequency_mhz"] == 30.0

    def test_lossy_channel_system(self):
        system = LiquidProcessorSystem(
            channel=ChannelConfig(loss=0.2, reorder=0.2), seed=5)
        run = system.run_c("int main(void) { return 123; }")
        assert run.result == 123

    def test_unknown_extension_rejected(self):
        from repro.core import ExtensionSpec
        config = ArchitectureConfig().with_extension(
            ExtensionSpec("mystery", 0x55))
        with pytest.raises(KeyError):
            LiquidProcessorSystem(config)


class TestRecipes:
    def test_popcount_recipe_c_rewrite_and_execution(self):
        """Fig 1's loop: rewrite the C source to use the accelerator,
        configure the architecture with it, and get the same answer."""
        source = POPCOUNT_XOR
        plain = LiquidProcessorSystem().run_c(source)
        assert plain.result == 16

        rewritten, substitutions = POPCOUNT_RECIPE.rewrite_c(source)
        assert substitutions >= 1
        config = POPCOUNT_RECIPE.apply_to_config(ArchitectureConfig())
        accelerated = LiquidProcessorSystem(config).run_c(rewritten)
        assert accelerated.result == 16
        assert accelerated.cycles < plain.cycles

    def test_mac_recipe_asm_peephole(self):
        asm = compile_c("""
int main(void) {
    int acc = 0;
    int a = 3, b = 4;
    acc = acc + a * b;
    return acc;
}""")
        rewritten, count = MAC_RECIPE.rewrite_asm(asm)
        # The peephole may or may not fire depending on register choice;
        # the pattern test below pins the mechanics deterministically.
        deterministic = "    smul %l0, %l1, %l2\n    add %l3, %l2, %l3"
        replaced, hits = MAC_RECIPE.rewrite_asm(deterministic)
        assert hits == 1
        assert "custom 2, %l0, %l1, %l3" in replaced

    def test_mac_semantics_via_builtin(self):
        config = MAC_RECIPE.apply_to_config(ArchitectureConfig())
        system = LiquidProcessorSystem(config)
        run = system.run_c("""
int main(void) {
    /* rd starts as the accumulator: custom MAC does rd += a*b */
    int acc = 5;
    acc = __builtin_custom(2, 6, 7) + acc * 0;
    return acc;
}""")
        # __builtin_custom result register starts at whatever the stack
        # temp held; semantics are rd += rs1*rs2 — with a fresh temp the
        # observable result is rs1*rs2 plus the temp's prior value, which
        # the compiler zeroes nothing into.  Assert via direct install:
        assert run.state == "DONE"

    def test_mac_semantics_direct(self):
        from repro.cpu.decode import decode
        from repro.cpu.iu import IntegerUnit
        from repro.mem.interface import FlatMemory
        from repro.toolchain.asm import encoder

        mem = FlatMemory(size=4096, base=0)
        iu = IntegerUnit(mem, mem)
        MAC_RECIPE.install(iu)
        iu.regs.write(1, 6)
        iu.regs.write(2, 7)
        iu.regs.write(3, 100)  # accumulator
        iu._dispatch(decode(encoder.cpop1(3, 2, 1, 2)))
        assert iu.regs.read(3) == 142

    def test_satadd_saturates(self):
        from repro.cpu.decode import decode
        from repro.cpu.iu import IntegerUnit
        from repro.mem.interface import FlatMemory
        from repro.toolchain.asm import encoder

        mem = FlatMemory(size=4096, base=0)
        iu = IntegerUnit(mem, mem)
        SATADD_RECIPE.install(iu)
        iu.regs.write(1, 0x7FFF_FFF0)
        iu.regs.write(2, 0x100)
        iu._dispatch(decode(encoder.cpop1(3, 3, 1, 2)))
        assert iu.regs.read(3) == 0x7FFF_FFFF  # clamped

    def test_install_recipes_rejects_unknown(self):
        from repro.core import ExtensionSpec
        from repro.cpu.iu import IntegerUnit
        from repro.mem.interface import FlatMemory

        mem = FlatMemory(size=64, base=0)
        iu = IntegerUnit(mem, mem)
        config = ArchitectureConfig().with_extension(
            ExtensionSpec("nope", 0x7F))
        with pytest.raises(KeyError):
            install_recipes(iu, config)

    def test_builtin_recipe_registry(self):
        assert set(BUILTIN_RECIPES) == {"popc", "mac", "satadd"}
        opfs = [r.extension.opf for r in BUILTIN_RECIPES.values()]
        assert len(opfs) == len(set(opfs))


class TestExtensionJobsOnTheLabPath:
    """Every machine built from a config runs that config's custom
    instructions — the lab's server and fleet included, not only the
    facades that used to install them by hand."""

    @pytest.fixture(scope="class")
    def job(self):
        rewritten, substitutions = POPCOUNT_RECIPE.rewrite_c(POPCOUNT_XOR)
        assert substitutions >= 1
        return Job(image=compile_c_program(rewritten),
                   config=POPCOUNT_RECIPE.apply_to_config(
                       ArchitectureConfig()),
                   name="popcount")

    def test_server_runs_an_extension_job(self, job):
        result = ReconfigurationServer().run_job(job)
        assert result.ok
        assert result.state.name == "DONE"
        assert result.result_word == 16

    def test_fleet_completes_an_extension_job_in_one_attempt(self, job):
        fleet = FleetScheduler(devices=1)
        fleet.submit("lab", job)
        [done] = fleet.drain()
        assert done.result.ok
        assert done.attempts == 1
        assert done.result.result_word == 16
