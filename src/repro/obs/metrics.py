"""Process-local metrics registry: counters, gauges, histograms.

The paper's platform is an observability instrument — the FPX cycle
counter, the streamed traces and the Trace Analyzer all exist so that a
micro-architecture can be *measured*.  The repro grew matching ad-hoc
counters (``cache.CacheStats``, transport ``dropped_*``, per-point sweep
timings); this module gives them one schema and one export path.

Design constraints, in order:

* **Deterministic.**  Snapshots contain only values derived from the
  simulation itself (cycles, event counts) — never wall-clock time or
  process identity — so a serial sweep and a parallel sweep of the same
  space produce byte-identical per-point snapshots.  Callers that want
  host-side timing (the sweep engine does) keep it in a *separate*
  registry that is never persisted into point records.
* **Off the hot path.**  The simulation loops keep native integer
  counters, *collected* into a registry at snapshot boundaries instead
  of paying a method call per event; only host-side code (sweeps,
  transports, the fleet) calls a registry directly.
* **Snapshot/diff-able.**  :meth:`MetricsRegistry.snapshot` is a plain
  sorted dict; :func:`diff_snapshots` subtracts two of them so tests and
  the per-point pipeline can assert on deltas (the FPX counter's
  arm/freeze semantics, applied to every series).

Series identity is ``name{label=value,...}`` with labels sorted by key —
the flat string form keeps snapshots trivially JSON-stable.
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POW2_BOUNDS",
    "diff_snapshots",
    "series_key",
]

#: Default histogram bounds: upper-inclusive powers-of-two minus one
#: (``le`` semantics), matching the native bit-length bucketing used by
#: the cache controller's miss-latency accounting.  A final implicit
#: +inf bucket catches everything above the last bound.
POW2_BOUNDS: tuple[int, ...] = tuple((1 << i) - 1 for i in range(15))


def series_key(name: str, labels: dict | None = None) -> str:
    """Canonical flat identity of one labeled series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (occupancy, utilization, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Bucketed distribution with fixed, explicit bounds.

    ``bounds`` are upper-inclusive (``observe(v)`` lands in the first
    bucket with ``v <= bound``); one extra bucket catches values above
    the last bound.  Fixed bounds keep serialized histograms comparable
    across runs and mergeable across processes.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple = POW2_BOUNDS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def load(self, counts, total_sum) -> None:
        """Merge pre-bucketed native counts (hot-path accumulators keep
        plain lists and are folded in at collection time)."""
        if len(counts) != len(self.counts):
            raise ValueError(
                f"expected {len(self.counts)} buckets, got {len(counts)}")
        for i, n in enumerate(counts):
            self.counts[i] += n
        self.count += sum(counts)
        self.sum += total_sum


class MetricsRegistry:
    """Process-local, schema-light metrics store.

    Instruments are created on first use and identified by
    ``(name, labels)``; asking twice returns the same instrument, so
    components can pre-bind them at construction time and pay only an
    attribute access + integer add per event.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = series_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = series_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: tuple = POW2_BOUNDS,
                  **labels) -> Histogram:
        key = series_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view with sorted series keys (JSON-stable)."""
        return {
            "counters": {key: self._counters[key].value
                         for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key].value
                       for key in sorted(self._gauges)},
            "histograms": {
                key: {
                    "le": list(hist.bounds),
                    "counts": list(hist.counts),
                    "count": hist.count,
                    "sum": hist.sum,
                }
                for key, hist in sorted(self._histograms.items())
            },
        }

    def snapshot_json(self) -> str:
        """Canonical byte-stable serialization of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def diff_snapshots(after: dict, before: dict) -> dict:
    """Delta of two :meth:`MetricsRegistry.snapshot` dicts.

    Every series present in *after* stays present (zero-valued series
    are kept — a stable schema is what makes two runs diffable), with
    counters and histogram bucket counts subtracted and gauges taken
    from *after* (a gauge is a level, not an accumulation).
    """
    before_counters = before.get("counters", {})
    counters = {key: value - before_counters.get(key, 0)
                for key, value in after.get("counters", {}).items()}
    gauges = dict(after.get("gauges", {}))
    histograms = {}
    before_histograms = before.get("histograms", {})
    for key, hist in after.get("histograms", {}).items():
        prior = before_histograms.get(key)
        if prior is None or prior.get("le") != hist["le"]:
            histograms[key] = {k: (list(v) if isinstance(v, list) else v)
                               for k, v in hist.items()}
            continue
        histograms[key] = {
            "le": list(hist["le"]),
            "counts": [a - b for a, b in zip(hist["counts"],
                                             prior["counts"])],
            "count": hist["count"] - prior["count"],
            "sum": hist["sum"] - prior["sum"],
        }
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}
