"""Collectors: fold the hot layers' native counters into a registry.

The simulation loops (CPU step, cache access, bus transfer) count events
in plain integer attributes — that is their no-op-fast-path: an integer
add costs nothing and needs no instrument lookup.  These functions walk
a component and publish those native counters as labeled registry
series, so every layer exports through one schema without paying a
method call per simulated event.

Series naming: ``layer.metric{label=value}`` —

* ``pipeline.*`` — retired instructions, cycles, stalls, flushes;
* ``cache.*{cache=icache|dcache}`` — hits/misses/evictions/fills plus
  the miss-latency histogram;
* ``bus.ahb.*`` / ``bus.apb.*`` — transactions, beats, wait states;
* ``mem.sram.*`` / ``mem.sdram.*`` — controller traffic;
* ``transport.*`` — control-plane payloads and drops;
* ``sweep.*`` — host-side engine metrics (wall time, cache reuse),
  kept in a *separate* registry because they are not deterministic.

:func:`simulator_snapshot` is the per-point entry: snapshot a
:class:`~repro.core.sim.Simulator` before and after a program runs and
:func:`point_snapshot` diffs the two, yielding the program-window
metrics the paper's arm/freeze cycle counter measures — plus derived
per-stage occupancy gauges.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, diff_snapshots

__all__ = [
    "PIPELINE_STAGES",
    "collect_ahb",
    "collect_apb",
    "FASTPATH_SERIES",
    "FLEET_LATENCY_BOUNDS",
    "SAMPLING_SERIES",
    "collect_cache",
    "collect_channel",
    "collect_client",
    "collect_fleet",
    "collect_pipeline",
    "collect_sdram",
    "collect_sram",
    "collect_transport",
    "point_snapshot",
    "simulator_snapshot",
    "zero_transport_series",
]

#: The LEON2 integer pipeline stages (paper §2.2).
PIPELINE_STAGES = ("FE", "DE", "EX", "ME", "WR")


def collect_pipeline(cpu, registry: MetricsRegistry) -> None:
    """Publish the integer unit's execution and stall accounting."""
    registry.counter("pipeline.instructions").inc(cpu.instret)
    registry.counter("pipeline.cycles").inc(cpu.cycles)
    registry.counter("pipeline.traps").inc(cpu.trap_count)
    registry.counter("pipeline.flushes").inc(cpu.pipeline_flushes)
    registry.counter("pipeline.fetch_stall_cycles").inc(
        cpu.fetch_stall_cycles)
    registry.counter("pipeline.mem_stall_cycles").inc(cpu.mem_stall_cycles)
    registry.counter("pipeline.annulled_slots").inc(cpu.annulled_slots)
    registry.counter("pipeline.taken_ctis").inc(cpu.taken_ctis)
    registry.counter("pipeline.cti_penalty_cycles").inc(
        cpu.cti_penalty_cycles)
    registry.counter("pipeline.interlock_stalls").inc(
        cpu.pipeline.interlock_stalls)


def collect_cache(controller, registry: MetricsRegistry) -> None:
    """Publish one cache controller's :class:`~repro.cache.cache.CacheStats`
    (and friends) as ``cache.*{cache=<name>}`` series."""
    label = controller.name
    stats = controller.stats
    registry.counter("cache.read_hits", cache=label).inc(stats.read_hits)
    registry.counter("cache.read_misses", cache=label).inc(stats.read_misses)
    registry.counter("cache.write_hits", cache=label).inc(stats.write_hits)
    registry.counter("cache.write_misses",
                     cache=label).inc(stats.write_misses)
    registry.counter("cache.evictions", cache=label).inc(stats.evictions)
    registry.counter("cache.flushes", cache=label).inc(stats.flushes)
    registry.counter("cache.fills", cache=label).inc(controller.fill_count)
    registry.counter("cache.bypasses",
                     cache=label).inc(controller.bypass_count)
    registry.histogram("cache.miss_cycles", cache=label).load(
        controller.miss_cycle_buckets, controller.miss_cycles_sum)
    if controller.prefetcher is not None:
        pstats = controller.prefetcher.stats
        registry.counter("cache.prefetch_issued",
                         cache=label).inc(pstats.issued)
        registry.counter("cache.prefetch_useful",
                         cache=label).inc(pstats.useful)


#: Two-speed execution series: steps executed on the fast engines,
#: checkpoint captures/restores and the block cache's translations,
#: executions and invalidations.  A full-detail run never runs a fast
#: engine, so :func:`simulator_snapshot` declares them all at 0 (the
#: translated engine's counters are in ``SimReport.fastpath``); every
#: full-detail record's ``obs`` carries them until the next
#: record-schema bump drops them.
FASTPATH_SERIES = (
    "fastpath.instructions", "fastpath.handoffs",
    "fastpath.checkpoint_captures", "fastpath.checkpoint_restores",
    "fastpath.blocks_translated", "fastpath.blocks_executed",
    "fastpath.blocks_invalidated")

#: Sampled-simulation series: runs, measurement windows, checkpoints
#: captured, and the step split between the survey pass, the translated
#: fast-forward legs, the cache-warming ramps and the cycle-accurate
#: windows.  Keys of ``SampledRunner.counters``, published by
#: ``SampledRunner.publish_obs``.  A Simulator counts none of them; its
#: snapshot declares them at 0 because every full-detail record's
#: ``obs`` carries them, until the next record-schema bump drops them.
SAMPLING_SERIES = (
    "sampling.runs", "sampling.windows", "sampling.checkpoints",
    "sampling.survey_steps", "sampling.ff_steps", "sampling.ramp_steps",
    "sampling.measured_steps")


def collect_ahb(bus, registry: MetricsRegistry) -> None:
    registry.counter("bus.ahb.transfers").inc(bus.transfers)
    registry.counter("bus.ahb.burst_transfers").inc(bus.burst_transfers)
    registry.counter("bus.ahb.data_beats").inc(bus.data_beats)
    registry.counter("bus.ahb.wait_states").inc(bus.wait_states)
    registry.counter("bus.ahb.errors").inc(bus.error_count)


def collect_apb(bridge, registry: MetricsRegistry) -> None:
    registry.counter("bus.apb.accesses").inc(bridge.accesses)
    registry.counter("bus.apb.wait_states").inc(
        bridge.accesses * bridge.penalty_cycles)


def collect_sram(sram, registry: MetricsRegistry) -> None:
    registry.counter("mem.sram.reads").inc(sram.reads)
    registry.counter("mem.sram.writes").inc(sram.writes)


def collect_sdram(controller, registry: MetricsRegistry) -> None:
    registry.counter("mem.sdram.handshakes").inc(controller.total_handshakes)
    registry.counter("mem.sdram.beats").inc(controller.total_beats)
    registry.counter("mem.sdram.row_misses").inc(controller.row_misses)


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


def simulator_snapshot(sim) -> dict:
    """One full snapshot of every layer a Simulator owns (totals since
    construction — diff two of these for a program-window view)."""
    registry = MetricsRegistry()
    collect_pipeline(sim.cpu, registry)
    for name in FASTPATH_SERIES + SAMPLING_SERIES:
        registry.counter(name)
    collect_cache(sim.icache, registry)
    collect_cache(sim.dcache, registry)
    collect_ahb(sim.bus, registry)
    collect_apb(sim.apb, registry)
    collect_sram(sim.sram, registry)
    zero_transport_series(registry)
    return registry.snapshot()


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


def point_snapshot(after: dict, before: dict) -> dict:
    """Program-window snapshot: delta of two :func:`simulator_snapshot`
    dicts plus derived pipeline occupancy gauges.

    The occupancy model is the documented single-issue in-order one:
    every retired instruction passes through all five stages for one
    cycle each; stall cycles additionally hold a specific stage busy —
    fetch stalls hold FE, memory stalls hold ME, and multi-cycle issue
    (mul/div, stores, interlock bubbles, CTI redirect bubbles) holds EX.
    """
    snap = diff_snapshots(after, before)
    counters = snap["counters"]
    cycles = counters.get("pipeline.cycles", 0)
    if cycles > 0:
        instret = counters.get("pipeline.instructions", 0)
        fetch = counters.get("pipeline.fetch_stall_cycles", 0)
        mem = counters.get("pipeline.mem_stall_cycles", 0)
        annulled = counters.get("pipeline.annulled_slots", 0)
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
