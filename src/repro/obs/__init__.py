"""repro.obs — unified telemetry: metrics registry + event trace.

One schema and one export path for everything the repro measures, the
software analogue of the paper's observability hardware (the FPX cycle
counter, the streamed instrumented traces, the Trace Analyzer):

* :class:`MetricsRegistry` — counters, gauges and histograms with
  labeled series; deterministic snapshot/diff (cycle-derived values
  only, never wall-clock).
* :class:`EventTrace` — bounded ring of cycle-stamped typed events with
  JSON-lines export.
* :mod:`repro.obs.collect` — reads the hot layers' native counters
  (pipeline stalls, cache hits/misses, bus wait states) as one counts
  mapping per program window, which becomes both a record's ``obs``
  snapshot and its cache dicts, and folds control-plane counters
  (transport drops, fleet jobs) into a registry.
* :mod:`repro.obs.report` — text/JSON rendering and run-vs-run diffs.
"""

from repro.obs.collect import (
    cache_record,
    collect_analysis,
    collect_fleet,
    collect_transport,
    point_snapshot,
    simulator_snapshot,
    window_counts,
)
from repro.obs.events import Event, EventTrace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    series_key,
)
from repro.obs.report import diff_reports, render_json, render_text

__all__ = [
    "Counter",
    "Event",
    "EventTrace",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "cache_record",
    "collect_analysis",
    "collect_fleet",
    "collect_transport",
    "diff_reports",
    "diff_snapshots",
    "point_snapshot",
    "render_json",
    "render_text",
    "series_key",
    "simulator_snapshot",
    "window_counts",
]
