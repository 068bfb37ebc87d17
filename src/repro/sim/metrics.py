"""Simulation metrics and reports.

Accounting follows the paper's Figure 3 / Tables I-II decomposition:

* per slave: **processing** time (local reduction compute) and **data
  retrieval** time (chunk fetch waits), accumulated as the slave works;
* per cluster: means of those over slaves, plus **sync** = everything
  else up to the end of the run (intra-cluster barrier, reduction-object
  combine and movement, and waiting for the other cluster — exactly the
  components Section IV-B enumerates as sync);
* **idle time** (Table II): how long a cluster that exhausted the job
  supply waited for the other to finish processing;
* **global reduction** (Table II): from the moment the last cluster
  finished its intra-cluster combine to the head's final merge — dominated
  by the WAN push of the reduction object when that object is large;
* job counts and steal counts (Table I) come from the head scheduler.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from typing import Sequence

from ..errors import SimulationError

__all__ = ["SlaveMetrics", "ClusterReport", "SimReport"]

_CASTS = {"int": int, "float": float}


@dataclass
class SlaveMetrics:
    """Accumulated by each simulated slave as it runs."""

    worker_id: int
    processing: float = 0.0
    retrieval: float = 0.0
    jobs: int = 0
    finish_time: float = 0.0

    @property
    def busy(self) -> float:
        return self.processing + self.retrieval


@dataclass
class ClusterReport:
    """One cluster's results — one stacked bar of Figure 3/4."""

    name: str
    site: str
    cores: int
    jobs_processed: int
    jobs_stolen: int
    mean_processing: float
    mean_retrieval: float
    sync: float
    processing_end: float  # when the last slave finished its last job
    combine_done: float  # when the intra-cluster combine finished
    robj_arrival: float  # when this cluster's robj reached the head
    idle: float  # Table II idle: waiting for the other cluster

    @property
    def total(self) -> float:
        """Bar height: processing + retrieval + sync."""
        return self.mean_processing + self.mean_retrieval + self.sync


@dataclass
class SimReport:
    """Full result of one simulated experiment."""

    experiment: str
    app: str
    makespan: float
    global_reduction: float
    clusters: dict[str, ClusterReport] = field(default_factory=dict)
    events_processed: int = 0
    #: Modeled chunk-cache accounting (zero unless the simulation was
    #: given a cache — see :class:`~repro.sim.simulation.CloudBurstSimulation`).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Modeled storage faults applied to the fetch path (zero unless the
    #: simulation was given a :class:`~repro.resilience.FaultSpec`).
    faults_injected: int = 0
    #: Elastic-bursting ledger (zero unless the simulation was given an
    #: enabled :class:`~repro.options.ScaleOptions`): dynamic slaves that
    #: joined mid-run, spot instances revoked, and modeled dollars spent
    #: on the burstable fleet.
    slaves_added: int = 0
    slaves_revoked: int = 0
    dollars_spent: float = 0.0

    def cluster(self, name: str) -> ClusterReport:
        try:
            return self.clusters[name]
        except KeyError:
            raise SimulationError(
                f"no cluster {name!r} in report (have {sorted(self.clusters)})"
            ) from None

    @property
    def total_jobs(self) -> int:
        return sum(c.jobs_processed for c in self.clusters.values())

    @property
    def total_stolen(self) -> int:
        return sum(c.jobs_stolen for c in self.clusters.values())

    def slowdown_vs(self, baseline: "SimReport") -> float:
        """Table II 'total slowdown' in seconds against env-local."""
        return self.makespan - baseline.makespan

    def slowdown_ratio_vs(self, baseline: "SimReport") -> float:
        """Fractional slowdown against a baseline's makespan."""
        if baseline.makespan <= 0:
            raise SimulationError("baseline makespan must be positive")
        return (self.makespan - baseline.makespan) / baseline.makespan

    @classmethod
    def _scalar_fields(cls) -> list[Field]:
        """Every field but ``clusters``: the one walk :meth:`fold` and the
        serializers share, so a counter added to the dataclass is summed,
        written and read back."""
        return [f for f in fields(cls) if f.name != "clusters"]

    @classmethod
    def fold(cls, passes: Sequence["SimReport"]) -> "SimReport":
        """Whole-run report of a multi-pass run: every counter (a numeric
        field with a default) summed over ``passes``; what describes one
        pass — makespan, global reduction, clusters — is the last pass's."""
        sums = {
            f.name: sum(getattr(report, f.name) for report in passes)
            for f in cls._scalar_fields()
            if f.type in _CASTS and f.default is not MISSING
        }
        return replace(passes[-1], **sums)

    def to_dict(self) -> dict:
        """Plain-data form for persistence or downstream tooling."""
        doc = {f.name: getattr(self, f.name) for f in self._scalar_fields()}
        doc["clusters"] = {name: asdict(c) for name, c in self.clusters.items()}
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "SimReport":
        try:
            clusters = {
                name: ClusterReport(**fields)
                for name, fields in doc["clusters"].items()
            }
            # Absent counters keep their defaults; a field without one is
            # required and its absence is a KeyError.
            scalars = {
                f.name: _CASTS.get(f.type, lambda value: value)(doc[f.name])
                for f in cls._scalar_fields()
                if f.default is MISSING or f.name in doc
            }
            return cls(clusters=clusters, **scalars)
        except (KeyError, TypeError) as exc:
            raise SimulationError(f"malformed report document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"report is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def validate(self) -> None:
        """Internal-consistency checks (integration tests call this).

        * makespan covers every cluster's activity;
        * sync is non-negative and bar totals equal the makespan (see
          metrics module docstring for the accounting convention);
        * per-category times are non-negative.
        """
        for cluster in self.clusters.values():
            if cluster.mean_processing < -1e-9 or cluster.mean_retrieval < -1e-9:
                raise SimulationError(f"negative time category in {cluster.name}")
            if cluster.sync < -1e-6:
                raise SimulationError(
                    f"negative sync in {cluster.name}: {cluster.sync}"
                )
            if cluster.processing_end - 1e-6 > self.makespan:
                raise SimulationError(
                    f"{cluster.name} finished after the makespan"
                )
            if abs(cluster.total - self.makespan) > max(1e-6, 1e-9 * self.makespan):
                raise SimulationError(
                    f"{cluster.name}: bar total {cluster.total} != makespan "
                    f"{self.makespan}"
                )
        if self.global_reduction < -1e-9:
            raise SimulationError("negative global reduction time")
