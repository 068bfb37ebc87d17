"""Simulated compute costs.

A slave's processing time for one job is

    ``num_units x unit_cost(site) x jitter(worker)``

where ``unit_cost`` is the application's
:class:`~repro.apps.base.AppProfile` per-unit seconds on a campus core
times the site's compute slowdown (the app's EC2 slowdown on the paper's
cloud site) and ``jitter`` is the seeded lognormal of
:mod:`repro.cluster.variability` — large for EC2's virtualized cores,
small for bare metal. Reduction-object handling costs (intra-cluster
combine and the head's final merge) are charged per byte, at
:data:`MERGE_SECONDS_PER_BYTE`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..apps.base import AppProfile
from ..cluster.variability import VariabilityModel
from ..errors import SimulationError

__all__ = ["ComputeModel", "MERGE_SECONDS_PER_BYTE"]

#: Seconds per byte to merge two reduction objects (head + combine).
MERGE_SECONDS_PER_BYTE = 1.0 / (2.0 * 1024**3)


@dataclass
class ComputeModel:
    """Per-site compute cost model for one application."""

    profile: AppProfile
    variability: dict[str, VariabilityModel]
    #: Per-site compute-slowdown factors, multiplied into the profile's
    #: local unit cost.
    site_slowdowns: dict[str, float]
    _samplers: dict[tuple[str, int], Callable[[], float]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for site, factor in self.site_slowdowns.items():
            if site not in self.variability:
                raise SimulationError(f"no variability model for site {site!r}")
            if factor <= 0:
                raise SimulationError(
                    f"site {site!r}: compute slowdown must be positive"
                )

    def job_seconds(self, site: str, worker_id: int, num_units: int) -> float:
        """Compute time for one job on one core at ``site``."""
        if num_units < 0:
            raise SimulationError("negative unit count")
        key = (site, worker_id)
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = self.variability[site].sampler(worker_id)
            self._samplers[key] = sampler
        slowdown = self.site_slowdowns.get(site)
        if slowdown is None:
            raise SimulationError(f"no compute slowdown for site {site!r}")
        unit_cost = self.profile.unit_cost_local * slowdown
        return num_units * unit_cost * sampler()

    def merge_seconds(self, robj_bytes: int) -> float:
        """CPU time to merge one reduction object into another."""
        if robj_bytes < 0:
            raise SimulationError("negative reduction object size")
        return robj_bytes * MERGE_SECONDS_PER_BYTE

    def combine_seconds(self, robj_bytes: int, n_workers: int, intra_bandwidth: float) -> float:
        """Intra-cluster combine: tree-merge ``n_workers`` objects.

        ``ceil(log2 n)`` rounds, each moving one object across the
        intra-cluster fabric and merging it.
        """
        if n_workers <= 0:
            raise SimulationError("need at least one worker to combine")
        if intra_bandwidth <= 0:
            raise SimulationError("intra-cluster bandwidth must be positive")
        if n_workers == 1:
            return 0.0
        rounds = math.ceil(math.log2(n_workers))
        per_round = robj_bytes / intra_bandwidth + self.merge_seconds(robj_bytes)
        return rounds * per_round
