"""Fleet scheduler tests: fairness, supervision, determinism, obs and
the servlet's multi-tenant actions.

The fleet is the scaled-up form of the paper's web-accessible lab: N
emulated FPX nodes behind one scheduler, sharing a reconfiguration
cache.  Chaos devices reuse the scripted fault plans from
``repro.net.faults`` — "device-down" wedges a node hard enough that
only the supervisor (invalidate + requeue + quarantine) saves its jobs.
"""

import pytest

from repro.control import ControlServlet
from repro.control.client import ControlTimeout
from repro.control.fleet import (
    ChaosClientFactory,
    FleetScheduler,
    fleet_client_factory,
    quantile,
)
from repro.core import Job, ReconfigurationCache
from repro.core.config import BASELINE
from repro.obs import MetricsRegistry
from repro.toolchain.driver import compile_c_program

pytestmark = pytest.mark.chaos

ALT = BASELINE.with_dcache_size(8192)


@pytest.fixture(scope="module")
def image():
    return compile_c_program("int main(void) { return 6 * 7; }")


def submit_batch(fleet, image, tenants, jobs_each, configs=(BASELINE,)):
    for tenant in tenants:
        for index in range(jobs_each):
            fleet.submit(tenant, Job(image=image,
                                     config=configs[index % len(configs)],
                                     name=f"{tenant}-{index}"))


class TestScheduling:
    def test_every_job_completes_exactly_once(self, image):
        fleet = FleetScheduler(devices=2)
        submit_batch(fleet, image, ("alice", "bob"), 4)
        results = fleet.drain()
        assert len(results) == 8
        assert all(r.result.ok for r in results)
        assert all(r.result.result_word == 42 for r in results)
        identities = {(r.tenant, r.sequence) for r in results}
        assert len(identities) == 8
        assert fleet.jobs_failed == 0 and fleet.jobs_requeued == 0

    def test_weighted_round_robin_order(self, image):
        # Weight 3 vs 1 on a single device: the rotation visits heavy
        # three times per turn of light.
        fleet = FleetScheduler(devices=1, tenant_weights={"heavy": 3})
        submit_batch(fleet, image, ("heavy", "light"), 6)
        results = fleet.drain()
        first_eight = [r.tenant for r in results[:8]]
        assert first_eight == ["heavy", "heavy", "heavy", "light"] * 2

    def test_unweighted_tenants_alternate(self, image):
        fleet = FleetScheduler(devices=1)
        submit_batch(fleet, image, ("alice", "bob"), 3)
        assert [r.tenant for r in fleet.drain()] \
            == ["alice", "bob"] * 3

    def test_priority_dispatches_first_within_tenant(self, image):
        fleet = FleetScheduler(devices=1)
        fleet.submit("t", Job(image=image, config=BASELINE, name="routine"))
        fleet.submit("t", Job(image=image, config=BASELINE, name="routine2"))
        urgent = fleet.submit("t", Job(image=image, config=BASELINE,
                                       name="urgent"), priority=5)
        results = fleet.drain()
        assert results[0].result.name == "urgent"
        assert results[0].sequence == urgent.sequence

    def test_config_affinity_batches_reconfigurations(self, image):
        # Jobs alternate architectures A,B,A,B but a single device runs
        # them A,A,B,B: exactly one reconfiguration per architecture.
        fleet = FleetScheduler(devices=1)
        submit_batch(fleet, image, ("t",), 4, configs=(BASELINE, ALT))
        results = fleet.drain()
        [device] = fleet.devices
        assert device.runtime.reconfigurations == 2
        assert device.runtime.noop_configs == 2
        assert [r.result.config_key for r in results] \
            == [BASELINE.key()] * 2 + [ALT.key()] * 2

    def test_rejects_unknown_factory_and_empty_fleet(self):
        with pytest.raises(ValueError, match="unknown devices"):
            FleetScheduler(devices=2,
                           client_factories={"fpx99": fleet_client_factory})
        with pytest.raises(ValueError, match="at least one device"):
            FleetScheduler(devices=0)


class TestSharedCache:
    def test_runtimes_share_the_fleet_cache(self):
        # Regression: `cache or ReconfigurationCache()` discarded the
        # shared cache because an *empty* cache is falsy via __len__,
        # leaving every device a private cache and the fleet ledger's
        # cache section permanently zero.
        shared = ReconfigurationCache()
        fleet = FleetScheduler(devices=3, cache=shared)
        assert fleet.cache is shared
        assert all(device.runtime.cache is shared
                   for device in fleet.devices)

    def test_tenants_reuse_each_others_bitfiles(self, image):
        fleet = FleetScheduler(devices=2)
        submit_batch(fleet, image, ("alice", "bob"), 2)
        fleet.drain()
        cache = fleet.ledger()["cache"]
        # One synthesis fleet-wide; the second device's first configure
        # is a cache hit on the other tenant's bitfile.
        assert cache["entries"] == 1
        assert cache["misses"] == 1
        assert cache["hits"] >= 1
        assert cache["seconds_saved"] > 0


def chaos_fleet(image, jobs_each=4):
    """Three devices, one of which boots wedged (device-down) twice
    before coming back merely lossy."""
    fleet = FleetScheduler(
        devices=["fpx00", "fpx01", "fpx02"],
        client_factories={"fpx02": ChaosClientFactory(
            ["device-down", "device-down", "burst-loss"], seed=11)},
        quarantine_after=2, quarantine_ticks=6)
    submit_batch(fleet, image, ("alice", "bob", "carol"), jobs_each,
                 configs=(BASELINE, ALT))
    return fleet


class TestSupervision:
    @pytest.fixture(scope="class")
    def chaos_run(self, image):
        fleet = chaos_fleet(image)
        fleet.drain()
        return fleet

    def test_no_job_is_lost_to_a_wedged_device(self, chaos_run):
        ledger = chaos_run.ledger()
        assert ledger["jobs"]["submitted"] == 12
        assert ledger["jobs"]["completed"] == 12
        assert ledger["jobs"]["failed"] == 0
        assert ledger["jobs"]["requeued"] >= 1

    def test_wedged_device_quarantined_then_recovers(self, chaos_run):
        fpx02 = chaos_run.ledger()["devices"]["fpx02"]
        assert fpx02["failures"] >= 2
        assert fpx02["quarantines"] >= 1
        assert fpx02["recoveries"] >= 1
        # After probation it rejoined with a healthy transport and did
        # real work.
        assert fpx02["jobs"] >= 1

    def test_failures_charge_backoff_on_the_device_clock(self, chaos_run):
        [fpx02] = [d for d in chaos_run.devices
                   if d.device_id == "fpx02"]
        # busy_seconds counts only completed work; the clock also
        # carries failed attempts and exponential backoff.
        assert fpx02.clock > fpx02.busy_seconds

    def test_permanently_dead_device_fails_jobs_terminally(self, image):
        fleet = FleetScheduler(
            devices=["fpx00"],
            client_factories={"fpx00": ChaosClientFactory(["device-down"],
                                                          seed=3)},
            max_job_attempts=2, quarantine_after=99)
        fleet.submit("t", Job(image=image, config=BASELINE, name="doomed"))
        [result] = fleet.drain()
        assert not result.result.ok
        assert result.attempts == 2
        assert "after 2 attempts" in result.result.error
        assert fleet.jobs_failed == 1
        assert fleet.jobs_requeued == 1

    def test_failed_probe_invalidates_the_device(self, image):
        calls = {"clients": 0}

        def flaky_status_factory(platform):
            client = fleet_client_factory(platform)
            if calls["clients"] == 0:
                # run_image itself ends with a status() call; the
                # *second* one on this client is the supervisor's probe.
                real_status = client.status
                state = {"status_calls": 0}

                def failing_status():
                    state["status_calls"] += 1
                    if state["status_calls"] >= 2:
                        raise ControlTimeout("probe: injected wedge")
                    return real_status()

                client.status = failing_status
            calls["clients"] += 1
            return client

        fleet = FleetScheduler(
            devices=["fpx00"],
            client_factories={"fpx00": flaky_status_factory},
            probe_every=1)
        submit_batch(fleet, image, ("t",), 2)
        results = fleet.drain()
        assert all(r.result.ok for r in results)
        [device] = fleet.devices
        assert device.probes >= 1
        assert device.probe_failures == 1
        # The failed probe forced a rebuild before the second job.
        assert device.runtime.reconfigurations == 2


@pytest.mark.slow
class TestDeterminism:
    def test_two_chaos_runs_are_byte_identical(self, image):
        def run():
            fleet = chaos_fleet(image, jobs_each=3)
            fleet.drain()
            return fleet.canonical_results()

        first = run()
        assert first == run()
        assert '"ok":true' in first

    def test_canonical_results_sorted_by_tenant_and_admission(self, image):
        fleet = FleetScheduler(devices=2)
        submit_batch(fleet, image, ("b", "a"), 2)
        fleet.drain()
        import json
        rows = json.loads(fleet.canonical_results())
        keys = [(row["tenant"], row["sequence"]) for row in rows]
        assert keys == sorted(keys)


class TestQuantile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 0.5) == 3.0
        assert quantile(values, 1.0) == 4.0

    def test_empty_and_bounds(self):
        assert quantile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestFleetObs:
    @pytest.fixture(scope="class")
    def snapshot(self, image):
        fleet = FleetScheduler(devices=2)
        submit_batch(fleet, image, ("alice", "bob"), 2)
        fleet.drain()
        registry = MetricsRegistry()
        fleet.publish_obs(registry)
        return fleet, registry.snapshot()

    def test_totals_and_per_tenant_series(self, snapshot):
        fleet, snap = snapshot
        counters = snap["counters"]
        assert counters["fleet.jobs_submitted"] == 4
        assert counters["fleet.jobs_failed"] == 0
        assert counters["fleet.jobs_completed{tenant=alice}"] == 2
        assert counters["fleet.jobs_completed{tenant=bob}"] == 2
        assert counters["fleet.cache_misses"] == 1

    def test_latency_histograms_and_gauges(self, snapshot):
        fleet, snap = snapshot
        hist = snap["histograms"]["fleet.job_latency_seconds{tenant=alice}"]
        assert hist["count"] == 2
        gauges = snap["gauges"]
        p50 = gauges["fleet.job_latency_p50_seconds{tenant=alice}"]
        p99 = gauges["fleet.job_latency_p99_seconds{tenant=alice}"]
        assert 0 < p50 <= p99
        assert gauges["fleet.queue_depth{tenant=alice}"] == 0

    def test_device_series(self, snapshot):
        fleet, snap = snapshot
        utilizations = [snap["gauges"][f"fleet.device_utilization"
                                       f"{{device={d.device_id}}}"]
                        for d in fleet.devices]
        assert all(0.0 <= u <= 1.0 for u in utilizations)
        assert sum(snap["counters"][f"fleet.device_jobs"
                                    f"{{device={d.device_id}}}"]
                   for d in fleet.devices) == 4


class TestFleetServlet:
    @pytest.fixture()
    def fleet(self):
        return FleetScheduler(devices=1)

    @pytest.fixture()
    def servlet(self, fleet):
        return ControlServlet(fleet=fleet)

    def submit_form(self, image, tenant="web", **extra):
        [(base, blob)] = image.segments.items()
        form = {"action": "submit", "tenant": tenant,
                "address": hex(base), "hex": blob.hex(),
                "entry": hex(image.entry)}
        form.update(extra)
        return form

    def test_submit_drain_results_flow(self, servlet, fleet, image):
        page = servlet.handle_request(self.submit_form(image, name="smoke"))
        assert page.startswith("202 queued job 'smoke'")
        page = servlet.handle_request({"action": "fleet"})
        assert "queued jobs: 1" in page and "fpx00: HEALTHY" in page
        page = servlet.handle_request({"action": "drain"})
        assert page.startswith("200 drained: 1 completed, 0 failed")
        page = servlet.handle_request({"action": "results",
                                       "tenant": "web"})
        assert "web/smoke: result 0x0000002a" in page

    def test_submit_honours_priority_and_dcache(self, servlet, fleet,
                                                image):
        servlet.handle_request(self.submit_form(image, name="plain"))
        servlet.handle_request(self.submit_form(
            image, name="tuned", priority="2", dcache_size="8192"))
        fleet.drain()
        first = fleet.completed[0].result
        assert first.name == "tuned"
        assert first.config_key == BASELINE.with_dcache_size(8192).key()

    def test_fleet_actions_require_a_fleet(self, image):
        servlet = ControlServlet()
        assert servlet.handle_request({"action": "drain"}) \
            == "503 no fleet attached for action 'drain'"
        assert servlet.handle_request({"action": "status"}) \
            == "503 no device attached for action 'status'"

    def test_bad_submit_is_a_400(self, servlet):
        page = servlet.handle_request({"action": "submit",
                                       "hex": "deadbeef"})
        assert page.startswith("400 bad request")
