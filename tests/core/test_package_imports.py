"""What importing ``repro.core`` loads.

The package init resolves each public name on first access (PEP 562),
so a sweep imports the simulator and not the FPX platform, the network
stack, the control software or the static analyzer.  What a check
imports runs in a fresh interpreter, because this one has imported
everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _fresh(snippet: str) -> str:
    """Run *snippet* in a new interpreter; return what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_a_sweep_loads_no_platform_network_control_or_analysis():
    loaded = _fresh("import sys\n"
                    "import repro.core.sweep\n"
                    "print(*sys.modules)").split()
    packages = {name.split(".")[1] for name in loaded
                if name.startswith("repro.")}
    assert "core" in packages
    assert not packages & {"control", "fpx", "net", "analysis"}


def test_every_public_name_resolves_by_name_and_by_star_import():
    out = _fresh(
        "import repro.core\n"
        "names = repro.core.__all__\n"
        "named = {}\n"
        "for name in names:\n"
        "    exec(f'from repro.core import {name} as value', named)\n"
        "    named[name] = named.pop('value')\n"
        "    assert name in vars(repro.core), name\n"
        "star = {}\n"
        "exec('from repro.core import *', star)\n"
        "assert all(star[name] is named[name] for name in names)\n"
        "print(len(names))\n")
    assert int(out) == len(repro.core.__all__) == len(set(repro.core.__all__))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        repro.core.NoSuchName
    assert not hasattr(repro.core, "sweep_runner")



def test_a_stock_sweep_point_leaves_numpy_random_unimported():
    """Only a ``random`` tag store builds a generator, so a stock sweep
    (direct-mapped caches) never imports ``numpy.random``."""
    loaded = _fresh(
        "import sys\n"
        "from repro.core import (ArchitectureConfig, ConfigurationSpace,\n"
        "                        SweepRunner)\n"
        "from repro.toolchain.driver import compile_c_program\n"
        "image = compile_c_program('int main(void) { return 6 * 7; }')\n"
        "space = ConfigurationSpace(ArchitectureConfig())\n"
        "outcome = SweepRunner(workers=0).sweep(space, image)\n"
        "assert [p.result_word for p in outcome.points] == [42]\n"
        "print(*sys.modules)").split()
    assert "numpy" in loaded
    assert "numpy.random" not in loaded
