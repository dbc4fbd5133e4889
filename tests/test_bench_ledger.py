"""Hygiene of the committed benchmark ledger, ``BENCH_perfbench.json``,
and the pure parts of its appender (``benchmarks/ledger.py``)."""

import json
from pathlib import Path

import pytest

from benchmarks import ledger

ROOT = Path(__file__).resolve().parent.parent


def _ledger_rows() -> list[dict]:
    return json.loads((ROOT / "BENCH_perfbench.json").read_text())["rows"]


@pytest.fixture(scope="module")
def rows():
    """The benchmark rows (the tier-1 rows are checked on their own)."""
    return [row for row in _ledger_rows() if row.get("kind") != "tier1"]


@pytest.fixture(scope="module")
def tier1_rows():
    return [row for row in _ledger_rows() if row.get("kind") == "tier1"]


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"metrics": {m["name"] for m in spec["end_to_end"]
                        + spec["per_layer"]},
            "workloads": {w["name"] for w in spec["workloads"]}}


def test_ledger_parses_and_is_one_row_per_line(rows):
    text = (ROOT / "BENCH_perfbench.json").read_text()
    assert ledger.dump(json.loads(text)) == text
    assert rows


def test_every_metric_and_workload_is_declared(rows, declared):
    for row in rows:
        assert row["workload"] in declared["workloads"]
        named = set(row["metrics"]) | set(row.get("won", {}))
        assert named <= declared["metrics"], named - declared["metrics"]


def test_every_row_carries_a_commit_and_seeds(rows):
    for row in rows:
        assert isinstance(row["commit"], str) and row["commit"]
        assert row["seeds"] and all(isinstance(s, int) for s in row["seeds"])
        assert row["pairs"] == len(row["seeds"])
        assert row["role"] in ("parent", "change")
        for summary in row["metrics"].values():
            assert "median" in summary


def test_every_change_row_has_its_parent_in_the_same_session(rows):
    parents = {(row["session"], row["pr"], row["workload"]): row
               for row in rows if row["role"] == "parent"}
    for row in rows:
        if row["role"] == "change":
            parent = parents[row["session"], row["pr"], row["workload"]]
            assert ((row["commit"], row.get("src_tree"))
                    != (parent["commit"], parent.get("src_tree")))
            assert 0 <= min(row["won"].values()) <= max(
                row["won"].values()) <= row["pairs"]


def test_every_row_runs_for_the_declared_seconds(rows):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for row in rows:
        seconds = row["args"][row["args"].index("--seconds") + 1]
        assert float(seconds) == spec["run_seconds"]


def test_appender_summaries():
    assert ledger.parse_seeds("11-13,29") == [11, 12, 13, 29]
    summary = ledger.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (summary["q1"], summary["median"], summary["q3"]) == (2.0, 3.0, 4.0)
    assert ledger.wins([1.0, 2.0, 3.0], [0.5, 2.5, 2.0], "lower") == 2
    assert ledger.wins([1.0, 2.0, 3.0], [0.5, 2.5, 2.0], "higher") == 1
    runs = {role: [{"metrics": {"wall_ref_s": value}, "failed": 0,
                    "sha256": "ab"} for value in values]
            for role, values in (("parent", [2.0, 2.0]),
                                 ("change", [1.0, 3.0]))}
    sides = {"parent": {"commit": "p", "src_tree": "t"},
             "change": {"commit": "p", "src_tree": "u"}}
    parent, change = ledger.rows_for(1, "E0", "fig8_exact", [11, 12], [],
                                     sides, runs, {"wall_ref_s": "lower"})
    assert parent["role"] == "parent" and "won" not in parent
    assert change["won"] == {"wall_ref_s": 1}
    assert change["records_sha256"] == {"11": "ab", "12": "ab"}


def test_every_tier1_row_times_a_whole_suite(tier1_rows):
    for row in tier1_rows:
        assert isinstance(row["commit"], str) and row["commit"]
        assert isinstance(row["pr"], int) and row["session"]
        assert "--durations=10" in row["args"]
        assert row["wall_s"] > 0 and row["tests"] > 0
        assert row["tests"] == sum(count for name, count
                                   in row["outcomes"].items()
                                   if name != "deselected")
        seconds = [phase["seconds"] for phase in row["slowest"]]
        assert 0 < len(seconds) <= 10
        assert seconds == sorted(seconds, reverse=True)
        assert sum(seconds) < row["wall_s"]
        assert all("::" in phase["test"] for phase in row["slowest"])


def test_tier1_output_parses():
    parsed = ledger.parse_tier1(
        "....\n"
        "===== slowest 10 durations =====\n"
        "10.28s call     tests/difftest/test_x.py::test_a[ipsum_stream]\n"
        "0.50s setup    tests/core/test_y.py::test_b\n"
        "\n"
        "1749 passed, 2 skipped, 1 error in 119.80s (0:01:59)\n")
    assert parsed["tests"] == 1752
    assert parsed["outcomes"] == {"passed": 1749, "skipped": 2, "error": 1}
    assert parsed["slowest"] == [
        {"seconds": 10.28, "when": "call",
         "test": "tests/difftest/test_x.py::test_a[ipsum_stream]"},
        {"seconds": 0.5, "when": "setup", "test": "tests/core/test_y.py::test_b"}]
