"""The Liquid core both machines are built from (repro.machine)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import ArchitectureConfig, Simulator
from repro.fpx import FPXPlatform

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module, build", [
    ("repro.fpx.platform", "FPXPlatform()"),
    ("repro.core.sim", "Simulator()"),
], ids=["platform-first", "sim-first"])
def test_either_machine_imports_first_in_a_fresh_interpreter(module, build):
    """The core installs recipes from repro.core.rewriter, and the
    platform subclasses the core: neither import order may cycle."""
    name = build.split("(")[0]
    snippet = (f"from {module} import {name}\n"
               f"machine = {build}\n"
               f"print(type(machine).__mro__[1].__name__)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "LiquidCore"


def _names(topology):
    return [mapping["name"] for mapping in topology]


def test_the_sim_box_is_the_core_alone():
    sim = Simulator()
    assert _names(sim.bus.topology()) == ["prom", "sram", "apb"]
    assert _names(sim.apb.topology()) == ["uart", "ioport", "cycle_counter"]
    assert sim.bus.slave_at(sim.memmap.sram_base) is sim.sram
    assert sim.cpu.interrupt_source is None


def test_the_fpx_node_is_the_core_plus_the_board():
    platform = FPXPlatform()
    assert _names(platform.bus.topology()) == ["prom", "sram", "sdram",
                                               "apb"]
    assert _names(platform.apb.topology()) == [
        "timer", "uart", "irqctrl", "ioport", "cycle_counter"]
    assert platform.bus.slave_at(platform.memmap.sram_base) is platform.gate
    assert platform.gate.sram is platform.sram


def test_both_machines_install_the_configs_extensions():
    from repro.core import POPCOUNT_RECIPE

    config = POPCOUNT_RECIPE.apply_to_config(ArchitectureConfig())
    for machine in (Simulator(config), FPXPlatform(config.platform_config())):
        assert set(machine.cpu.extensions) == {ext.opf
                                               for ext in config.extensions}
