#!/usr/bin/env python3
"""Workload browser: walk the self-checking kernel registry.

Lists every registered workload (class, footprint, the configuration
axis it is sensitive to), shows one generated kernel, then runs each
one on the translated engine and verifies the RESULT word against its
pure-Python reference model — no golden files, the program checks
itself.

    python examples/workload_browser.py
"""

from repro.workloads import all_workloads, by_class, get


def main() -> None:
    workloads = all_workloads()
    print(f"registry: {len(workloads)} workloads across "
          f"{len(by_class())} classes\n")
    print(f"{'name':<12} {'class':<8} {'axis':<14} {'bytes':>6}  description")
    for w in workloads:
        print(f"{w.name:<12} {w.wclass:<8} {w.sweep_axis:<14} "
              f"{w.footprint_bytes():>6}  {w.description}")

    # Every kernel is generated C with its input embedded as globals —
    # here is what the checksum workload actually compiles.
    source = get("ipcheck").c_source()
    head = "\n".join(source.splitlines()[:6])
    print(f"\ngenerated source of 'ipcheck' (first lines):\n{head}\n    ...")

    print("\nself-checks (translated engine, seed 0):")
    failures = 0
    for w in workloads:
        result = w.self_check(engine="translated")
        failures += 0 if result.ok else 1
        print("  " + result.describe())
    if failures:
        raise SystemExit(f"{failures} workload(s) failed self-check")
    print("\nall workloads verified against their reference models")


if __name__ == "__main__":
    main()
