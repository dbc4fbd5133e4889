"""Append paired benchmark rows to the ``BENCH_perfbench.json`` ledger.

    python -m benchmarks.ledger --pr N --session E29 \\
        --parent ../parent-checkout --change . \\
        --workload fig8_exact --seeds 11-20
    python -m benchmarks.ledger --pr N --session E29 --tier1 [--change .]

For each workload and seed, runs ``perfbench/run.py --trace 0`` once in
each checkout, for the ``run_seconds`` that ``BENCHMARK.json`` fixes,
in a subprocess, the side that goes first alternating from pair to pair
(pair *i* uses seed *i* on both sides).  Then it appends two rows per
workload, the parent's and the change's: per end-to-end metric of
``BENCHMARK.json`` the median and quartiles over the pairs, for the
change also the pairs it won, plus each side's commit (``+`` appended
when its ``src/`` differs from the commit's, i.e. the working tree was
measured), its ``src/`` tree, the failed operations and the records
sha256 per seed.  Rows are compared only within one session (one
``--session`` tag): across sessions the same tree drifts by a few
percent.

``--tier1`` appends one row of another kind (``"kind": "tier1"``)
instead: the tier-1 suite run once in the ``--change`` checkout with
``--durations=10``, its wall time, its outcome counts and its ten
slowest test phases.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_perfbench.json"
_SHA = re.compile(r"sha256=([0-9a-f]{64})")


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"11,12,29"`` to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def end_to_end(spec: dict) -> dict[str, str]:
    """Metric name -> ``"lower"``/``"higher"`` (which is better)."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict:
    q1 = median = q3 = values[0]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value is the better one."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def rows_for(pr: int, session: str, workload: str, seeds: list[int],
             args: list[str], sides: dict[str, dict], runs: dict,
             better: dict[str, str]) -> list[dict]:
    """The parent's and the change's rows from the per-seed *runs*
    (``runs[role][i]`` is seed *i*'s parsed run)."""
    rows = []
    for role in ("parent", "change"):
        metrics = {name: summary([run["metrics"][name] for run in runs[role]])
                   for name in better}
        row = {"pr": pr, "session": session, "role": role,
               **sides[role], "workload": workload, "seeds": seeds,
               "pairs": len(seeds), "args": args, "metrics": metrics,
               "failed": sum(run["failed"] for run in runs[role]),
               "records_sha256": {str(seed): run["sha256"] for seed, run
                                  in zip(seeds, runs[role])}}
        if role == "change":
            row["won"] = {name: wins(rows[0]["metrics"][name]["values"],
                                     metrics[name]["values"], direction)
                          for name, direction in better.items()}
        rows.append(row)
    return rows


def run_once(checkout: Path, workload: str, seed: int,
             run_args: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), *run_args],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    hashes = set(_SHA.findall(done.stdout))
    return {"metrics": {name: value["value"] for name, value
                        in result["metrics"].items()},
            "failed": result["failed"],
            "sha256": hashes.pop() if len(hashes) == 1 else None}


def identity(checkout: Path) -> dict:
    """The checkout's commit and the git tree of its ``src/`` as it is
    on disk; the commit gets a ``+`` when that tree is not the
    commit's, so a measured working tree never passes for its base."""
    def git(*args, env=None) -> str:
        return subprocess.run(["git", *args], cwd=checkout, env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        git("add", "-A", "src", env=env)
        tree = git("write-tree", "--prefix=src/", env=env)
    commit = git("rev-parse", "--short", "HEAD")
    if tree != git("rev-parse", "HEAD:src"):
        commit += "+"
    return {"commit": commit, "src_tree": tree}


def parse_tier1(output: str) -> dict:
    """Outcome counts and the slowest test phases from a pytest run's
    output with ``--durations``."""
    summary = output.strip().splitlines()[-1]
    outcomes = {name: int(count) for count, name in re.findall(
        r"(\d+) (passed|failed|skipped|xfailed|xpassed|errors?|deselected)",
        summary)}
    slowest = [{"seconds": float(match[1]), "when": match[2],
                "test": match[3]}
               for match in (re.match(r"(\d+\.\d+)s (setup|call|teardown) +"
                                      r"(\S+)$", line)
                             for line in output.splitlines())
               if match]
    return {"tests": sum(count for name, count in outcomes.items()
                         if name != "deselected"),
            "outcomes": outcomes, "slowest": slowest}


def tier1_row(pr: int, session: str, checkout: Path) -> dict:
    """Run the tier-1 suite once in *checkout* and make its row."""
    args = ["-x", "--durations=10"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", *args],
                          cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - started
    return {"kind": "tier1", "pr": pr, "session": session,
            **identity(checkout), "args": args, "wall_s": wall,
            "exit_code": done.returncode, **parse_tier1(done.stdout)}


def load(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"schema": 1, "rows": []}


def dump(ledger: dict) -> str:
    """The ledger as JSON with one row per line, so that an appended
    row is an appended line."""
    head = {key: value for key, value in ledger.items() if key != "rows"}
    rows = ",\n".join(" " + json.dumps(row) for row in ledger["rows"])
    return json.dumps(head)[:-1] + ', "rows": [\n' + rows + "\n]}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--session", required=True,
                        help="tag of the measuring session, e.g. E29")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=parse_seeds, default="11-20")
    parser.add_argument("--ledger", type=Path, default=LEDGER)
    parser.add_argument("--tier1", action="store_true",
                        help="append a tier-1 row for --change instead")
    args = parser.parse_args(argv)
    if args.tier1:
        row = tier1_row(args.pr, args.session, args.change.resolve())
        ledger = load(args.ledger)
        ledger["rows"].append(row)
        args.ledger.write_text(dump(ledger))
        print(f"tier1: {row['tests']} tests in {row['wall_s']:.1f} s, "
              f"exit {row['exit_code']}", flush=True)
        return 0
    if args.parent is None or not args.workload:
        parser.error("--parent and --workload are required without --tier1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = end_to_end(spec)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    sides = {role: identity(path) for role, path in checkouts.items()}
    run_args = ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
    for workload in args.workload:
        runs: dict[str, list] = {"parent": [], "change": []}
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 \
                else ("change", "parent")
            for role in order:
                run = run_once(checkouts[role], workload, seed, run_args)
                runs[role].append(run)
                print(f"{workload} seed {seed} {role}: wall_ref_s="
                      f"{run['metrics']['wall_ref_s']:.4f} "
                      f"failed={run['failed']}", flush=True)
        ledger = load(args.ledger)
        ledger["rows"] += rows_for(args.pr, args.session, workload,
                                   args.seeds, run_args, sides, runs, better)
        args.ledger.write_text(dump(ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())
