"""Simulation metrics and reports.

Accounting follows the paper's Figure 3 / Tables I-II decomposition:

* per slave: **processing** time (local reduction compute) and **data
  retrieval** time (chunk fetch waits), summed by the slave's
  :class:`~repro.core.slave.SlaveCore` from the durations its shell
  reports, as in the executable runtime;
* per cluster: :class:`~repro.obs.record.ClusterReport`, built for both
  engines by :func:`~repro.obs.record.cluster_reports` — means of those
  over slaves, **sync**
  (everything else up to the end of the run: intra-cluster barrier,
  combine, object movement, waiting for the other clusters — the
  components Section IV-B enumerates) and Table II's **idle** time;
* **global reduction** (Table II): from the moment the last cluster
  finished its intra-cluster combine to the head's final merge — dominated
  by the WAN push of the reduction object when that object is large;
* job counts and steal counts (Table I) come from the head scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs.record import ClusterReport, PassRecord

__all__ = ["SimReport"]


@dataclass
class SimReport(PassRecord):
    """Full result of one simulated experiment.

    Its fold (``makespan``/``global_reduction``/clusters are the last
    pass's) and serializers are :class:`~repro.obs.record.PassRecord`'s.
    """

    _span = "makespan"
    _error = SimulationError

    experiment: str
    app: str
    makespan: float
    global_reduction: float
    clusters: dict[str, ClusterReport] = field(default_factory=dict)
    events_processed: int = 0
    #: Modeled chunk-cache accounting (zero unless the simulation was
    #: given a cache — see :class:`~repro.sim.multisite.MultiSiteSimulation`).
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

    def slowdown_vs(self, baseline: "SimReport") -> float:
        """Table II 'total slowdown' in seconds against env-local."""
        return self.makespan - baseline.makespan

    def slowdown_ratio_vs(self, baseline: "SimReport") -> float:
        """Fractional slowdown against a baseline's makespan."""
        if baseline.makespan <= 0:
            raise SimulationError("baseline makespan must be positive")
        return (self.makespan - baseline.makespan) / baseline.makespan

    def validate(self) -> None:
        """:meth:`PassRecord.validate`, and a non-negative global reduction."""
        super().validate()
        if self.global_reduction < -1e-9:
            raise SimulationError("negative global reduction time")
