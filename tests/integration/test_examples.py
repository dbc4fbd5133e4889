"""Smoke-run every shipped example — the examples are part of the public
API surface and must keep working."""

import runpy
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{name} printed nothing"


def test_expected_examples_present():
    assert set(EXAMPLES) >= {
        "quickstart.py",
        "cache_tuning.py",
        "remote_lab.py",
        "custom_instruction.py",
        "instruction_profiling.py",
        "workload_browser.py",
    }
