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

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs.record import PassRecord

__all__ = ["SlaveMetrics", "ClusterReport", "SimReport"]


@dataclass
class SlaveMetrics:
    """Accumulated by each simulated slave as it runs."""

    worker_id: int
    processing: float = 0.0
    retrieval: float = 0.0
    jobs: int = 0

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
class SimReport(PassRecord):
    """Full result of one simulated experiment.

    Its fold (``makespan``/``global_reduction``/clusters are the last
    pass's) and serializers are :class:`~repro.obs.record.PassRecord`'s.
    """

    _cluster_cls = ClusterReport
    _error = SimulationError

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
