"""Architecture Generator: exploring the configuration space (Figure 1).

"The applications developer explores reconfigurability options."  In
Figure 1 the generator explores with the Sim box, and the
Reconfiguration Server runs the chosen bitfile on the FPX.
:meth:`ArchitectureGenerator.explore` does exactly that:

1. a :class:`~repro.core.sweep.SweepRunner` sweep ranks every point of
   the space — one recording per architecture, every point replayed
   from it; a point replay cannot price (prefetch, self-modifying code,
   a bus fault) runs on the accurate engine, as in any sweep;
2. the winner is the point with the fewest seconds at its bitfile's
   synthesized clock, so a bigger cache that clocks slower can lose;
3. the server confirms only that winner: one reconfiguration, one job.

The confirmed run's cycles exceed the winner's Sim-box cycles by the
polling loop's last lap (21 at stock timing), which the FPX counts and
the Sim box does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.recon_server import Job, JobResult, ReconfigurationServer
from repro.core.space import ConfigurationSpace
from repro.core.sweep import (
    DEFAULT_MAX_INSTRUCTIONS,
    SweepPoint,
    SweepRunner,
    best_point,
)
from repro.toolchain.objfile import Image


@dataclass(frozen=True)
class ExplorationResult:
    #: Every point of the space, in sweep order.
    points: list[SweepPoint]
    #: The point with the fewest seconds.
    best: SweepPoint
    #: The winner's run on the FPX.
    confirmed: JobResult


class ArchitectureGenerator:
    def __init__(self, server: ReconfigurationServer | None = None):
        self.server = server or ReconfigurationServer()

    def explore(self, image: Image, space: ConfigurationSpace,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                ) -> ExplorationResult:
        """Rank every point of *space* on the Sim box, then confirm the
        fastest one on the FPX."""
        points = SweepRunner().sweep(space, image, max_instructions).points
        best = best_point(points, "seconds")
        confirmed = self.server.run_job(Job(
            image=image, config=best.config,
            max_instructions=max_instructions))
        return ExplorationResult(points, best, confirmed)
