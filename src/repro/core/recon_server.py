"""Reconfiguration Server: the per-device runtime of the liquid lab.

"The Reconfiguration Server controls access to the FPX Platform,
sequencing the loading and execution of applications."  The server owns
one FPX node, a reconfiguration cache (possibly shared fleet-wide, see
:mod:`repro.control.fleet`), and a model-time ledger:

* :meth:`configure` — ensure the RAD runs the requested architecture:
  reconfiguration-cache lookup (miss → synthesis time), then SelectMap
  programming time, then re-instantiating the platform model (our
  software analogue of loading a new bitfile);
* :meth:`run_job` — one load-and-execute job, returning the measured
  cycle count;
* :meth:`invalidate` — forget the loaded bitfile/platform/client so the
  next configure rebuilds the node from scratch (the supervisor's hard
  restart after a wedged run).

Failure supervision — retrying a job on a rebuilt node, recording one
that keeps failing — belongs to :mod:`repro.control.fleet`; a
one-device :class:`~repro.control.fleet.FleetScheduler` is the
single-node lab.

Model time is wall-clock *in the model* (synthesis hours, programming
milliseconds, program cycles at the bitfile's clock rate) — the currency
in which the reconfiguration cache pays off.

Accounting is explicit about three distinct cheap paths: a *no-op*
configure (the right bitfile is already loaded; the cache is never
consulted), a *cache hit* (new bitfile, no synthesis), and a genuine
miss.  ``JobResult.cache_hit`` and ``JobResult.already_loaded`` report
them separately, and the ledger counts no-ops in ``configs_noop``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.control.client import LiquidClient
from repro.control.transport import DirectTransport
from repro.core.config import ArchitectureConfig
from repro.core.recon_cache import ReconfigurationCache
from repro.core.synthesis import Bitfile
from repro.fpx.platform import FPXPlatform
from repro.mem.memmap import DEFAULT_MAP
from repro.net.protocol import LeonState
from repro.toolchain.objfile import Image


@dataclass
class Job:
    """One load-and-execute request against a given architecture."""

    image: Image
    config: ArchitectureConfig
    name: str = "job"
    result_addr: int | None = DEFAULT_MAP.result_addr
    max_instructions: int = 50_000_000


class ConfigureOutcome(NamedTuple):
    """What :meth:`ReconfigurationServer.configure` returns.

    Exactly one of ``cache_hit`` / ``already_loaded`` can be True:
    a no-op configure never consults the cache, so it is not a hit.
    """

    synthesis_seconds: float
    program_seconds: float
    cache_hit: bool
    already_loaded: bool = False


@dataclass
class JobResult:
    name: str
    config_key: str
    state: LeonState
    cycles: int
    result_word: int | None
    seconds_synthesis: float
    seconds_programming: float
    seconds_execution: float
    #: True only when the bitfile came out of the reconfiguration cache
    #: (synthesis skipped, SelectMap programming still paid).
    cache_hit: bool
    #: True when the right bitfile was already on the RAD: no cache
    #: lookup, no programming — distinct from a cache hit.
    already_loaded: bool = False
    #: False when the fleet recorded the job as failed (control-plane
    #: timeouts or device errors on every attempt it was allowed).
    ok: bool = True
    #: Human-readable failure cause when ``ok`` is False.
    error: str | None = None
    #: Times the job was attempted.
    attempts: int = 1


class ReconfigurationServer:
    def __init__(self, cache: ReconfigurationCache | None = None,
                 client_factory: Callable[[FPXPlatform],
                                          LiquidClient] | None = None):
        # `cache or ...` would silently discard a shared cache: an
        # empty ReconfigurationCache is falsy through __len__, and a
        # fleet hands every runtime exactly such a cache at start-up.
        self.cache = cache if cache is not None else ReconfigurationCache()
        self.platform: FPXPlatform | None = None
        self.client: LiquidClient | None = None
        # Builds the control client for a freshly configured platform.
        # The default drives the node over a lossless DirectTransport;
        # override to interpose a lossy/chaos transport or custom retry
        # policies (tests and the fleet inject failures this way).
        self.client_factory = client_factory or self._default_client
        self.current_bitfile: Bitfile | None = None
        self.model_seconds = 0.0
        self.reconfigurations = 0
        self.noop_configs = 0

    @staticmethod
    def _default_client(platform: FPXPlatform) -> LiquidClient:
        return LiquidClient(DirectTransport(
            platform, platform.config.device_ip,
            platform.config.control_port))

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def configure(self, config: ArchitectureConfig) -> ConfigureOutcome:
        """Make the RAD run *config*.  A no-op if the right bitfile is
        already loaded (reported as ``already_loaded``, not as a cache
        hit — the cache is never consulted on that path)."""
        if (self.current_bitfile is not None
                and self.current_bitfile.config == config
                and self.platform is not None):
            self.noop_configs += 1
            return ConfigureOutcome(0.0, 0.0, cache_hit=False,
                                    already_loaded=True)
        bitfile, synthesis_seconds, cache_hit = self.cache.get(config)
        # Instantiate the new architecture (= full RAD reconfiguration).
        platform = FPXPlatform(config.platform_config())
        program_seconds = platform.rad.program(platform, bitfile.name,
                                               bitfile.size_bytes)
        platform.boot()
        self.platform = platform
        self.client = self.client_factory(platform)
        self.current_bitfile = bitfile
        self.reconfigurations += 1
        self.model_seconds += synthesis_seconds + program_seconds
        return ConfigureOutcome(synthesis_seconds, program_seconds,
                                cache_hit=cache_hit)

    def invalidate(self) -> None:
        """Forget the loaded bitfile, platform and client.

        The next :meth:`configure` rebuilds the node from scratch — the
        hard-restart a supervisor applies after a failure, and the only
        safe response to a wedged platform: restarting through the
        existing client would trust the very control path that just
        timed out, and keeping ``current_bitfile`` would let the no-op
        check happily reuse the wedged platform.
        """
        self.current_bitfile = None
        self.platform = None
        self.client = None

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------

    def run_job(self, job: Job) -> JobResult:
        outcome = self.configure(job.config)
        platform, client = self.platform, self.client
        run = client.run_image(job.image, result_addr=job.result_addr,
                               max_instructions=job.max_instructions)
        frequency_hz = self.current_bitfile.utilization.frequency_mhz * 1e6
        execution_s = run.cycles / frequency_hz
        self.model_seconds += execution_s
        return JobResult(
            name=job.name,
            config_key=job.config.key(),
            state=platform.leon_ctrl.state,
            cycles=run.cycles,
            result_word=run.result_word,
            seconds_synthesis=outcome.synthesis_seconds,
            seconds_programming=outcome.program_seconds,
            seconds_execution=execution_s,
            cache_hit=outcome.cache_hit,
            already_loaded=outcome.already_loaded,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def ledger(self) -> dict:
        cache_stats = self.cache.stats
        return {
            "model_seconds": round(self.model_seconds, 3),
            "reconfigurations": self.reconfigurations,
            "configs_noop": self.noop_configs,
            "cache": {
                "entries": len(self.cache),
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "coalesced": cache_stats.coalesced,
                "synthesis_seconds": round(
                    cache_stats.synthesis_seconds, 1),
                "seconds_saved": round(cache_stats.seconds_saved, 1),
            },
        }
