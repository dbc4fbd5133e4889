"""Collectors: fold the hot layers' native counters into a registry.

The simulation loops (CPU step, cache access, bus transfer) count events
in plain integer attributes — that is their no-op-fast-path: an integer
add costs nothing and needs no instrument lookup.  These functions read
those native counters at snapshot boundaries and publish them as
labeled registry series, so every layer exports through one schema
without paying a method call per simulated event.

Series naming: ``layer.metric{label=value}`` —

* ``pipeline.*`` — retired instructions, cycles, stalls, flushes;
* ``cache.*{cache=icache|dcache}`` — hits/misses/evictions/fills plus
  the miss-latency histogram (and a prefetching cache's prefetches);
* ``bus.ahb.*`` / ``bus.apb.*`` — transactions, beats, wait states;
* ``mem.sram.*`` — controller traffic;
* ``transport.*`` — control-plane payloads and drops;
* ``sweep.*`` — host-side engine metrics (wall time, cache reuse),
  kept in a *separate* registry because they are not deterministic.

A simulated program's record is built from one *counts mapping*: the
machine's series for one window, ``{series key: value}``, with each
miss-latency histogram as ``(buckets, sum)``.  The accurate engine
reads its machine with :func:`simulator_snapshot` at the program's
entry and at its return and takes the :func:`window_counts` between
the two — the paper's arm/freeze cycle counter, applied to every
series; the replay engine computes the same mapping directly.
:func:`point_snapshot` turns it into the record's ``obs`` snapshot
(plus derived per-stage occupancy gauges), and :func:`cache_record`
into its ``dcache``/``icache`` dicts.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CACHE_COUNTERS",
    "PIPELINE_STAGES",
    "FLEET_LATENCY_BOUNDS",
    "SAMPLING_SERIES",
    "cache_counts",
    "cache_record",
    "collect_channel",
    "collect_client",
    "collect_fleet",
    "collect_transport",
    "point_snapshot",
    "simulator_snapshot",
    "window_counts",
    "zero_transport_series",
]

#: The LEON2 integer pipeline stages (paper §2.2).
PIPELINE_STAGES = ("FE", "DE", "EX", "ME", "WR")

#: Sampled-simulation series: runs, measurement windows, checkpoints
#: captured, and the step split between the survey pass, the translated
#: fast-forward legs, the cache-warming ramps and the cycle-accurate
#: windows.  Keys of ``SampledRunner.counters``, published by
#: ``SampledRunner.publish_obs``.
SAMPLING_SERIES = (
    "sampling.runs", "sampling.windows", "sampling.checkpoints",
    "sampling.survey_steps", "sampling.ff_steps", "sampling.ramp_steps",
    "sampling.measured_steps")

#: One cache's integer counters, by their names in its record dict;
#: series ``cache.<name>{cache=icache|dcache}`` of a counts mapping.
CACHE_COUNTERS = ("read_hits", "read_misses", "write_hits",
                  "write_misses", "evictions", "flushes", "fills",
                  "bypasses")


def simulator_snapshot(machine) -> dict:
    """A counts mapping of every series a machine's devices count
    (pipeline, both caches, AHB, APB, SRAM), totals since the machine
    was built — take the :func:`window_counts` between two readings
    for a program window."""
    cpu, bus, apb, sram = machine.cpu, machine.bus, machine.apb, machine.sram
    counts = {
        "pipeline.instructions": cpu.instret,
        "pipeline.cycles": cpu.cycles,
        "pipeline.traps": cpu.trap_count,
        "pipeline.flushes": cpu.pipeline_flushes,
        "pipeline.fetch_stall_cycles": cpu.fetch_stall_cycles,
        "pipeline.mem_stall_cycles": cpu.mem_stall_cycles,
        "pipeline.annulled_slots": cpu.annulled_slots,
        "pipeline.taken_ctis": cpu.taken_ctis,
        "pipeline.cti_penalty_cycles": cpu.cti_penalty_cycles,
        "pipeline.interlock_stalls": cpu.pipeline.interlock_stalls,
        "bus.ahb.transfers": bus.transfers,
        "bus.ahb.burst_transfers": bus.burst_transfers,
        "bus.ahb.data_beats": bus.data_beats,
        "bus.ahb.wait_states": bus.wait_states,
        "bus.ahb.errors": bus.error_count,
        "bus.apb.accesses": apb.accesses,
        "bus.apb.wait_states": apb.accesses * apb.penalty_cycles,
        "mem.sram.reads": sram.reads,
        "mem.sram.writes": sram.writes,
    }
    for controller in (machine.icache, machine.dcache):
        label = f"{{cache={controller.name}}}"
        stats = controller.stats
        for name, value in zip(CACHE_COUNTERS, (
                stats.read_hits, stats.read_misses, stats.write_hits,
                stats.write_misses, stats.evictions, stats.flushes,
                controller.fill_count, controller.bypass_count)):
            counts[f"cache.{name}{label}"] = value
        counts[f"cache.miss_cycles{label}"] = (
            tuple(controller.miss_cycle_buckets), controller.miss_cycles_sum)
        if controller.prefetcher is not None:
            prefetch = controller.prefetcher.stats
            counts[f"cache.prefetch_issued{label}"] = prefetch.issued
            counts[f"cache.prefetch_useful{label}"] = prefetch.useful
            counts[f"cache.prefetch_background_cycles{label}"] = (
                prefetch.background_cycles)
    return counts


def window_counts(after: dict, before: dict) -> dict:
    """The counts mapping of the window between two
    :func:`simulator_snapshot` readings of one machine."""
    window = {}
    for key, value in after.items():
        prior = before[key]
        if isinstance(value, int):
            window[key] = value - prior
        else:
            buckets, total = value
            window[key] = (tuple(now - then for now, then
                                 in zip(buckets, prior[0])),
                           total - prior[1])
    return window


def cache_counts(counts: dict, name: str) -> dict[str, int]:
    """Cache *name*'s integer counters in a counts mapping, by their
    names in its record dict."""
    return {field: counts[f"cache.{field}{{cache={name}}}"]
            for field in CACHE_COUNTERS}


def cache_record(counts: dict, name: str, geometry,
                 prefetch: str = "none") -> dict:
    """The record's dict of cache *name* (a
    :class:`~repro.cache.cache.CacheGeometry`, prefetching under policy
    *prefetch*) from a counts mapping: its counters, read miss rate and
    geometry, plus a prefetching cache's prefetch section."""
    record: dict = cache_counts(counts, name)
    reads = record["read_hits"] + record["read_misses"]
    record["read_miss_rate"] = record["read_misses"] / reads if reads else 0.0
    if prefetch != "none":
        issued, useful, background = (
            counts[f"cache.prefetch_{field}{{cache={name}}}"]
            for field in ("issued", "useful", "background_cycles"))
        record["prefetch"] = {
            "policy": prefetch,
            "issued": issued,
            "useful": useful,
            "accuracy": round(useful / issued if issued else 0.0, 3),
            "background_cycles": background,
        }
    record["geometry"] = {
        "size": geometry.size,
        "line_size": geometry.line_size,
        "ways": geometry.ways,
        "replacement": geometry.replacement,
    }
    return record


_CLIENT_COUNTERS = ("retries", "stale_suppressed", "duplicates_suppressed",
                    "backoff_rounds", "timeouts")


def collect_client(client, registry: MetricsRegistry) -> None:
    """Publish a :class:`~repro.control.client.LiquidClient`'s
    reliability accounting as ``client.*`` series: total retries (plus a
    per-command breakdown), suppressed stale/duplicate responses,
    backoff rounds and timeouts."""
    for name in _CLIENT_COUNTERS:
        registry.counter(f"client.{name}").inc(getattr(client, name))
    for command in sorted(client.retries_by_command):
        registry.counter("client.retries", command=command).inc(
            client.retries_by_command[command])


_TRANSPORT_COUNTERS = ("sent_payloads", "received_payloads",
                       "dropped_corrupt", "dropped_misaddressed")


def collect_transport(transport, registry: MetricsRegistry) -> None:
    """Publish a control-plane transport's delivery accounting (plus
    per-direction channel fault counters for lossy transports)."""
    for name in _TRANSPORT_COUNTERS:
        registry.counter(f"transport.{name}").inc(getattr(transport, name))
    channels = getattr(transport, "channel_stats", None)
    if channels is not None:
        for direction, stats in channels().items():
            collect_channel(stats, registry, direction)


def collect_channel(stats: dict, registry: MetricsRegistry,
                    direction: str) -> None:
    for name, value in stats.items():
        registry.counter(f"channel.{name}",
                         direction=direction).inc(value)


#: Job-latency buckets in model seconds: sub-millisecond warm no-op
#: switches up through multi-hour synthesis queues.
FLEET_LATENCY_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0,
                        900.0, 3600.0, 7200.0, 14400.0)


def collect_fleet(fleet, registry: MetricsRegistry) -> None:
    """Publish a :class:`~repro.control.fleet.FleetScheduler`'s native
    accounting as ``fleet.*`` series: queue depths and per-tenant job
    counts/latency (histogram plus p50/p99 gauges), per-device
    utilization and supervision counters, and fleet totals.  Publishes
    totals — fold into a fresh registry, not a reused one."""
    from repro.control.fleet import quantile

    registry.counter("fleet.jobs_submitted").inc(fleet.jobs_submitted)
    registry.counter("fleet.jobs_failed").inc(fleet.jobs_failed)
    registry.counter("fleet.jobs_requeued").inc(fleet.jobs_requeued)
    registry.gauge("fleet.makespan_seconds").set(
        round(fleet.makespan_seconds, 6))
    depths = fleet.queue_depths()
    for tenant in sorted(fleet.latencies):
        latencies = fleet.latencies[tenant]
        registry.counter("fleet.jobs_completed",
                         tenant=tenant).inc(len(latencies))
        registry.gauge("fleet.queue_depth",
                       tenant=tenant).set(depths.get(tenant, 0))
        registry.gauge("fleet.max_queue_depth", tenant=tenant).set(
            fleet.max_queue_depth.get(tenant, 0))
        histogram = registry.histogram("fleet.job_latency_seconds",
                                       bounds=FLEET_LATENCY_BOUNDS,
                                       tenant=tenant)
        for latency in latencies:
            histogram.observe(round(latency, 9))
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            registry.gauge(f"fleet.job_latency_{name}_seconds",
                           tenant=tenant).set(round(quantile(latencies, q),
                                                    6))
    makespan = fleet.makespan_seconds
    for device in fleet.devices:
        label = device.device_id
        registry.gauge("fleet.device_utilization", device=label).set(
            round(device.utilization(makespan), 6))
        registry.counter("fleet.device_jobs",
                         device=label).inc(device.jobs_completed)
        registry.counter("fleet.device_failures",
                         device=label).inc(device.failures)
        registry.counter("fleet.device_quarantines",
                         device=label).inc(device.quarantines)
        registry.counter("fleet.device_recoveries",
                         device=label).inc(device.recoveries)
        registry.counter("fleet.device_reconfigurations",
                         device=label).inc(device.runtime.reconfigurations)
    stats = fleet.cache.stats
    registry.counter("fleet.cache_hits").inc(stats.hits)
    registry.counter("fleet.cache_misses").inc(stats.misses)
    registry.counter("fleet.cache_coalesced").inc(stats.coalesced)


def zero_transport_series(registry: MetricsRegistry) -> None:
    """Declare the transport series at zero.

    The Sim box has no network stack (it plays leon_ctrl's role itself),
    but per-point snapshots keep a schema-stable ``transport.*`` section
    so sweeps run in the simulator and runs driven over a real transport
    diff cleanly against each other.
    """
    for name in _TRANSPORT_COUNTERS:
        registry.counter(f"transport.{name}")


def collect_analysis(report, registry: MetricsRegistry) -> None:
    """Publish a static-analysis
    :class:`~repro.analysis.diagnostics.DiagnosticReport` as
    ``analysis.*`` series: total errors/warnings plus one
    ``analysis.findings{code=...}`` counter per diagnostic code, all
    labeled with the report's subject (the workload name)."""
    subject = report.subject
    registry.counter("analysis.errors",
                     subject=subject).inc(len(report.errors))
    registry.counter("analysis.warnings",
                     subject=subject).inc(len(report.warnings))
    for code, count in report.codes().items():
        registry.counter("analysis.findings", subject=subject,
                         code=code).inc(count)


def point_snapshot(counts: dict) -> dict:
    """The ``obs`` snapshot of a counts mapping: its series (the
    transport series declared at zero) plus derived pipeline occupancy
    gauges.

    The occupancy model is the documented single-issue in-order one:
    every retired instruction passes through all five stages for one
    cycle each; stall cycles additionally hold a specific stage busy —
    fetch stalls hold FE, memory stalls hold ME, and multi-cycle issue
    (mul/div, stores, interlock bubbles, CTI redirect bubbles) holds EX.
    """
    registry = MetricsRegistry()
    for key, value in counts.items():
        if isinstance(value, int):
            registry.counter(key).inc(value)
        else:
            registry.histogram(key).load(*value)
    zero_transport_series(registry)
    snap = registry.snapshot()
    cycles = counts.get("pipeline.cycles", 0)
    if cycles > 0:
        instret = counts.get("pipeline.instructions", 0)
        fetch = counts.get("pipeline.fetch_stall_cycles", 0)
        mem = counts.get("pipeline.mem_stall_cycles", 0)
        annulled = counts.get("pipeline.annulled_slots", 0)
        issue_extra = max(0, cycles - instret - fetch - mem - annulled)
        busy = {
            "FE": instret + annulled + fetch,
            "DE": instret,
            "EX": instret + issue_extra,
            "ME": instret + mem,
            "WR": instret,
        }
        for stage in PIPELINE_STAGES:
            key = f"pipeline.occupancy{{stage={stage}}}"
            snap["gauges"][key] = round(min(1.0, busy[stage] / cycles), 6)
    return snap
