"""repro.control.fleet — a multi-tenant scheduler over N FPX nodes.

The paper's endgame is an internet-accessible liquid-architecture lab:
web form → servlet → UDP → FPX node.  One
:class:`~repro.core.recon_server.ReconfigurationServer` owns one node
and runs one job at a time; this module scales that into a fleet
service with the client-API / scheduler / device-runtime layering of
high-level RC platform frameworks:

* **Device runtimes** — each of the N emulated FPX nodes is a
  ``ReconfigurationServer`` (its own ``FPXPlatform`` per loaded
  bitfile, optionally behind a chaos-wrapped transport from
  :mod:`repro.net.faults`), all sharing one thread-safe
  :class:`~repro.core.recon_cache.ReconfigurationCache` so concurrent
  tenants reuse each other's synthesized bitfiles.
* **Scheduler** — an asyncio event loop with one worker task per
  device.  Leasing is round-robin across tenants (weighted: a tenant
  of weight *w* is visited *w* times per rotation), by priority within
  a tenant, with *config affinity* as the final tie-break: a device
  keeps jobs whose architecture is already on its RAD, so a fleet
  avoids the ~seconds-scale reconfiguration churn that round-robin
  placement alone would cause.
* **Supervision** — the lab's one failure policy: a failed job is
  requeued (never lost) while its device is invalidated, charged
  exponential backoff in model time, and quarantined after repeated
  consecutive failures; a quarantined device rejoins after a probation
  period with a rebuilt platform, and optional health probes
  (``client.status()``) catch wedged nodes between jobs.

Time is *model time*: each device carries its own clock (synthesis +
programming + execution seconds accumulated by its runtime, plus
backoff penalties), devices run concurrently in that currency, and job
latency/utilization statistics are deterministic — the same fleet, job
list and seed produce byte-identical results
(:meth:`FleetScheduler.canonical_results`).

Fleet-level accounting is kept in native counters and folded into a
:class:`repro.obs.MetricsRegistry` by
:func:`repro.obs.collect.collect_fleet` /
:meth:`FleetScheduler.publish_obs`: queue depths, per-device
utilization, per-tenant p50/p99 job latency.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro.control.client import (
    ControlTimeout,
    DeviceError,
    LiquidClient,
    RetryPolicy,
)
from repro.control.transport import ChaosTransport, DirectTransport
from repro.core.recon_cache import ReconfigurationCache
from repro.core.recon_server import Job, JobResult, ReconfigurationServer
from repro.net.protocol import LeonState

__all__ = [
    "ChaosClientFactory",
    "DeviceSupervisor",
    "FleetJob",
    "FleetResult",
    "FleetScheduler",
    "fleet_client_factory",
    "quantile",
]

#: Fleet clients fail fast: the per-device supervisor owns recovery, so
#: a wedged node should surface a ControlTimeout within a bounded number
#: of delivery rounds instead of burning an interactive-grade retry
#: budget on a device the scheduler could simply rebuild.
FLEET_MAX_RETRIES = 3
FLEET_POLL_ROUNDS = 16


def fleet_client_factory(platform) -> LiquidClient:
    """Default per-device client: lossless transport, fail-fast budget."""
    return LiquidClient(
        DirectTransport(platform, platform.config.device_ip,
                        platform.config.control_port),
        max_retries=FLEET_MAX_RETRIES, poll_rounds=FLEET_POLL_ROUNDS)


class ChaosClientFactory:
    """Client factory for one device whose transport follows a per-boot
    schedule of fault plans.

    Each time the device runtime configures a fresh platform (including
    supervisor-forced rebuilds after failures), the next plan in
    *plans* governs the new transport; the last plan repeats.  Seeds
    derive deterministically from the boot index, so a fleet run with a
    fixed seed reproduces the same datagram-level history.  Plans are
    :class:`~repro.net.faults.FaultPlan` instances or scenario names
    from :data:`repro.net.faults.SCENARIOS` (e.g. a wedged-then-healthy
    device is ``["device-down", "device-down", "burst-loss"]``).
    """

    def __init__(self, plans, seed: int = 7,
                 max_retries: int = FLEET_MAX_RETRIES,
                 poll_rounds: int = FLEET_POLL_ROUNDS):
        from repro.net.faults import scenario

        if not plans:
            raise ValueError("need at least one fault plan")
        self.plans = [scenario(plan) if isinstance(plan, str) else plan
                      for plan in plans]
        self.seed = seed
        self.max_retries = max_retries
        self.poll_rounds = poll_rounds
        self.boots = 0

    def __call__(self, platform) -> LiquidClient:
        plan = self.plans[min(self.boots, len(self.plans) - 1)]
        transport = ChaosTransport(platform, platform.config.device_ip,
                                   platform.config.control_port, plan,
                                   seed=self.seed + 0x9E37 * self.boots)
        self.boots += 1
        return LiquidClient(transport, max_retries=self.max_retries,
                            poll_rounds=self.poll_rounds)


@dataclass
class FleetJob:
    """One tenant's job as admitted to the fleet queue."""

    tenant: str
    job: Job
    priority: int = 0
    #: Fleet-wide admission order (ties within a priority class).
    sequence: int = 0
    attempts: int = 0
    enqueued_seconds: float = 0.0


@dataclass
class FleetResult:
    """A completed (or terminally failed) fleet job."""

    tenant: str
    device: str
    result: JobResult
    attempts: int
    #: Model seconds from admission to completion on the device's clock
    #: (queueing + synthesis + programming + execution + any backoff).
    latency_seconds: float
    sequence: int
    completion_index: int


@dataclass
class DeviceSupervisor:
    """One device's runtime plus its health/accounting state."""

    device_id: str
    runtime: ReconfigurationServer
    #: Model-time clock of this node (its runtime's charges + backoff).
    clock: float = 0.0
    busy_seconds: float = 0.0
    jobs_completed: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantines: int = 0
    recoveries: int = 0
    probes: int = 0
    probe_failures: int = 0
    quarantined_until_tick: int | None = None
    _jobs_since_probe: int = field(default=0, repr=False)

    @property
    def quarantined(self) -> bool:
        return self.quarantined_until_tick is not None

    def utilization(self, makespan: float) -> float:
        return self.busy_seconds / makespan if makespan > 0 else 0.0


class FleetScheduler:
    """Async multi-device scheduler with per-tenant fairness.

    *devices* is a count (ids ``fpx00``, ``fpx01``, ...) or a list of
    ids.  *client_factories* maps a device id to its client factory
    (e.g. a :class:`ChaosClientFactory`); unlisted devices use
    :func:`fleet_client_factory`.  *tenant_weights* gives a tenant more
    turns per fairness rotation (default 1).

    Supervision knobs: a job failure requeues the job (up to
    *max_job_attempts* total attempts, then a failed result) and
    charges its device ``backoff_seconds * 2**(consecutive-1)`` of
    model time; *quarantine_after* consecutive failures bench the
    device for *quarantine_ticks* scheduler ticks, after which it
    rejoins with a rebuilt platform.  With ``probe_every=N`` the
    supervisor health-checks a device (``client.status()``) after every
    N completed jobs; a failed probe counts as a device failure.
    """

    def __init__(self, devices=4, *, cache: ReconfigurationCache | None = None,
                 client_factories: dict | None = None,
                 tenant_weights: dict[str, int] | None = None,
                 max_job_attempts: int = 3, quarantine_after: int = 2,
                 quarantine_ticks: int = 8, backoff_seconds: float = 0.05,
                 probe_every: int = 0):
        if isinstance(devices, int):
            if devices < 1:
                raise ValueError("need at least one device")
            device_ids = [f"fpx{i:02d}" for i in range(devices)]
        else:
            device_ids = list(devices)
            if not device_ids:
                raise ValueError("need at least one device")
        # `is not None`, not truthiness: an empty cache is falsy
        # (__len__) but still the caller's cache to share.
        self.cache = cache if cache is not None else ReconfigurationCache()
        factories = dict(client_factories or {})
        unknown = set(factories) - set(device_ids)
        if unknown:
            raise ValueError(f"client factories for unknown devices: "
                             f"{sorted(unknown)}")
        self.devices = [
            DeviceSupervisor(device_id, ReconfigurationServer(
                cache=self.cache,
                client_factory=factories.get(device_id,
                                             fleet_client_factory)))
            for device_id in device_ids
        ]
        self.tenant_weights = dict(tenant_weights or {})
        self.max_job_attempts = max_job_attempts
        self.quarantine_after = quarantine_after
        self.quarantine_ticks = quarantine_ticks
        self.backoff_seconds = backoff_seconds
        self.probe_every = probe_every
        # -- queues and fairness state ---------------------------------
        self._queues: dict[str, list[FleetJob]] = {}
        self._rotation: list[str] = []
        self._rr_index = 0
        self._sequence = 0
        self._pending = 0
        self._inflight = 0
        self._ticks = 0
        # -- accounting ------------------------------------------------
        self.completed: list[FleetResult] = []
        self.jobs_submitted = 0
        self.jobs_failed = 0
        self.jobs_requeued = 0
        self.latencies: dict[str, list[float]] = {}
        self.max_queue_depth: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, tenant: str, job: Job, priority: int = 0,
               arrival_seconds: float = 0.0) -> FleetJob:
        """Admit *job* for *tenant*; higher *priority* dispatches first
        within the tenant's queue."""
        fleet_job = FleetJob(tenant=tenant, job=job, priority=priority,
                             sequence=self._sequence,
                             enqueued_seconds=arrival_seconds)
        self._sequence += 1
        self.jobs_submitted += 1
        self._enqueue(fleet_job)
        return fleet_job

    def _enqueue(self, fleet_job: FleetJob) -> None:
        tenant = fleet_job.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = []
            self.latencies.setdefault(tenant, [])
            self._rebuild_rotation()
        queue.append(fleet_job)
        self._pending += 1
        depth = len(queue)
        if depth > self.max_queue_depth.get(tenant, 0):
            self.max_queue_depth[tenant] = depth

    def _rebuild_rotation(self) -> None:
        rotation = []
        for tenant in sorted(self._queues):
            rotation.extend([tenant] * max(1, self.tenant_weights.get(tenant,
                                                                      1)))
        self._rotation = rotation
        self._rr_index = 0

    def queue_depths(self) -> dict[str, int]:
        return {tenant: len(queue) for tenant, queue in self._queues.items()}

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def _lease(self, device: DeviceSupervisor) -> FleetJob | None:
        """Pick the next job for *device*: weighted round-robin across
        tenants; within the chosen tenant, highest priority first, then
        config affinity (a job whose architecture is already loaded on
        this device), then admission order."""
        rotation = self._rotation
        for step in range(len(rotation)):
            tenant = rotation[(self._rr_index + step) % len(rotation)]
            queue = self._queues.get(tenant)
            if not queue:
                continue
            self._rr_index = (self._rr_index + step + 1) % len(rotation)
            top = max(fj.priority for fj in queue)
            candidates = [fj for fj in queue if fj.priority == top]
            pick = None
            loaded = device.runtime.current_bitfile
            if loaded is not None:
                pick = min((fj for fj in candidates
                            if fj.job.config == loaded.config),
                           key=lambda fj: fj.sequence, default=None)
            if pick is None:
                pick = min(candidates, key=lambda fj: fj.sequence)
            queue.remove(pick)
            self._pending -= 1
            return pick
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def run(self) -> list[FleetResult]:
        """Drive every queued job to a result; returns the completion-
        ordered results (also kept on :attr:`completed`)."""
        workers = [asyncio.ensure_future(self._worker(device))
                   for device in self.devices]
        try:
            await asyncio.gather(*workers)
        finally:
            for worker in workers:
                worker.cancel()
        return self.completed

    def drain(self) -> list[FleetResult]:
        """Synchronous wrapper around :meth:`run`."""
        return asyncio.run(self.run())

    async def _worker(self, device: DeviceSupervisor) -> None:
        while self._pending > 0 or self._inflight > 0:
            self._ticks += 1
            if device.quarantined:
                if self._ticks < device.quarantined_until_tick:
                    await asyncio.sleep(0)
                    continue
                # Probation over: rejoin with a rebuilt platform.
                device.quarantined_until_tick = None
                device.consecutive_failures = 0
                device.recoveries += 1
                device.runtime.invalidate()
            fleet_job = self._lease(device)
            if fleet_job is None:
                await asyncio.sleep(0)
                continue
            self._inflight += 1
            fleet_job.attempts += 1
            runtime = device.runtime
            before = runtime.model_seconds
            error: Exception | None = None
            result: JobResult | None = None
            try:
                result = runtime.run_job(fleet_job.job)
            except (ControlTimeout, DeviceError) as exc:
                error = exc
            delta = runtime.model_seconds - before
            device.clock += delta
            self._inflight -= 1
            if error is None:
                device.busy_seconds += delta
                device.jobs_completed += 1
                device.consecutive_failures = 0
                self._complete(fleet_job, device, result)
                self._maybe_probe(device)
            else:
                self._handle_failure(device, fleet_job, error)
            await asyncio.sleep(0)

    def _complete(self, fleet_job: FleetJob, device: DeviceSupervisor,
                  result: JobResult) -> None:
        latency = device.clock - fleet_job.enqueued_seconds
        self.latencies[fleet_job.tenant].append(latency)
        self.completed.append(FleetResult(
            tenant=fleet_job.tenant,
            device=device.device_id,
            result=result,
            attempts=fleet_job.attempts,
            latency_seconds=latency,
            sequence=fleet_job.sequence,
            completion_index=len(self.completed),
        ))

    def _handle_failure(self, device: DeviceSupervisor,
                        fleet_job: FleetJob, error: Exception) -> None:
        device.failures += 1
        device.consecutive_failures += 1
        # Shed the wedged platform; charge exponential backoff in model
        # time (the supervisor's restart window).
        device.runtime.invalidate()
        device.clock += (self.backoff_seconds
                         * 2 ** (device.consecutive_failures - 1))
        if device.consecutive_failures >= self.quarantine_after:
            device.quarantined_until_tick = (self._ticks
                                             + self.quarantine_ticks)
            device.quarantines += 1
        if fleet_job.attempts >= self.max_job_attempts:
            self.jobs_failed += 1
            failed = JobResult(
                name=fleet_job.job.name,
                config_key=fleet_job.job.config.key(),
                state=LeonState.ERROR,
                cycles=0,
                result_word=None,
                seconds_synthesis=0.0,
                seconds_programming=0.0,
                seconds_execution=0.0,
                cache_hit=False,
                ok=False,
                error=f"{type(error).__name__}: {error} "
                      f"(after {fleet_job.attempts} attempts)",
                attempts=fleet_job.attempts,
            )
            self._complete(fleet_job, device, failed)
        else:
            self.jobs_requeued += 1
            self._enqueue(fleet_job)

    def _maybe_probe(self, device: DeviceSupervisor) -> None:
        if self.probe_every <= 0:
            return
        device._jobs_since_probe += 1
        if device._jobs_since_probe < self.probe_every:
            return
        device._jobs_since_probe = 0
        client = device.runtime.client
        if client is None:
            return
        device.probes += 1
        try:
            client.status()
        except (ControlTimeout, DeviceError):
            device.probe_failures += 1
            device.failures += 1
            device.consecutive_failures += 1
            device.runtime.invalidate()
            if device.consecutive_failures >= self.quarantine_after:
                device.quarantined_until_tick = (self._ticks
                                                 + self.quarantine_ticks)
                device.quarantines += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def makespan_seconds(self) -> float:
        return max((device.clock for device in self.devices), default=0.0)

    def ledger(self) -> dict:
        makespan = self.makespan_seconds
        cache_stats = self.cache.stats
        tenants = {}
        for tenant in sorted(self.latencies):
            latencies = self.latencies[tenant]
            tenants[tenant] = {
                "completed": sum(1 for r in self.completed
                                 if r.tenant == tenant and r.result.ok),
                "failed": sum(1 for r in self.completed
                              if r.tenant == tenant and not r.result.ok),
                "p50_latency_seconds": round(quantile(latencies, 0.50), 6),
                "p99_latency_seconds": round(quantile(latencies, 0.99), 6),
                "max_queue_depth": self.max_queue_depth.get(tenant, 0),
            }
        devices = {}
        for device in self.devices:
            runtime = device.runtime
            devices[device.device_id] = {
                "jobs": device.jobs_completed,
                "busy_seconds": round(device.busy_seconds, 3),
                "clock_seconds": round(device.clock, 3),
                "utilization": round(device.utilization(makespan), 4),
                "failures": device.failures,
                "quarantines": device.quarantines,
                "recoveries": device.recoveries,
                "probes": device.probes,
                "probe_failures": device.probe_failures,
                "reconfigurations": runtime.reconfigurations,
                "configs_noop": runtime.noop_configs,
            }
        return {
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": sum(1 for r in self.completed if r.result.ok),
                "failed": self.jobs_failed,
                "requeued": self.jobs_requeued,
            },
            "makespan_seconds": round(makespan, 3),
            "tenants": tenants,
            "devices": devices,
            "cache": {
                "entries": len(self.cache),
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "coalesced": cache_stats.coalesced,
                "evictions": cache_stats.evictions,
                "synthesis_seconds": round(cache_stats.synthesis_seconds, 1),
                "seconds_saved": round(cache_stats.seconds_saved, 1),
            },
        }

    def canonical_results(self) -> str:
        """Byte-stable serialization of every job's outcome (sorted by
        tenant and admission order) — the fleet-level determinism
        oracle: same fleet + jobs + seed ⇒ identical string."""
        rows = [
            {
                "tenant": r.tenant,
                "sequence": r.sequence,
                "name": r.result.name,
                "config": r.result.config_key,
                "device": r.device,
                "attempts": r.attempts,
                "ok": r.result.ok,
                "state": r.result.state.name,
                "cycles": r.result.cycles,
                "result_word": r.result.result_word,
                "latency_seconds": round(r.latency_seconds, 9),
            }
            for r in sorted(self.completed,
                            key=lambda r: (r.tenant, r.sequence))
        ]
        return json.dumps(rows, sort_keys=True, separators=(",", ":"))

    def publish_obs(self, registry) -> None:
        """Fold the fleet's native accounting into a
        :class:`repro.obs.MetricsRegistry` as ``fleet.*`` series (use a
        fresh registry per fold — the collector publishes totals)."""
        from repro.obs.collect import collect_fleet

        collect_fleet(self, registry)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of *values* (0.0 for an empty list)."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]
