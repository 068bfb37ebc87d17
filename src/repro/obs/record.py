"""The per-pass record every engine reports, its per-cluster entry, and
the one collector that fills both from the head and master cores, in
either engine.

:class:`RunTelemetry` is what the serial oracle, the simulator and the
runtime return: a dataclass of scalars plus ``clusters``, a dict of
:class:`ClusterReport`. One ``dataclasses.fields`` walk sums, writes and
reads it back, so a counter added later is covered without touching
another line. The per-cluster split — processing, retrieval, sync and
idle (Figure 3, Table II) — is the simulator's prediction of the paper's
testbed in virtual seconds, and the runtime's measurement of its own
in-process run in wall-clock seconds.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

from ..errors import DataFormatError

__all__ = ["ClusterReport", "RunTelemetry", "cluster_reports", "pass_record"]

_CASTS = {"int": int, "float": float}
#: The numbers that, with ``clusters``, describe one pass: the span every
#: cluster's bar sums to and its global-reduction phase. A fold keeps the
#: last pass's; every other number is a counter and is summed.
_PER_PASS = ("makespan", "global_reduction")
#: The master cores' counters a pass reports, summed over its clusters.
_MASTER_COUNTERS = (
    "slaves_failed", "slaves_revoked", "slaves_added", "jobs_reexecuted",
    "sync_partial_merges",
)


@dataclass
class ClusterReport:
    """One cluster's results — one stacked bar of Figure 3/4, and its
    Table II idle time. Times are seconds from the start of the pass;
    ``sync`` is the rest of the span after the crew's mean processing and
    retrieval (barrier, combine, object movement, waiting for the others).
    """

    name: str
    site: str
    slaves: int
    jobs_processed: int
    jobs_stolen: int
    mean_processing: float
    mean_retrieval: float
    sync: float
    processing_end: float  # when the last slave finished (or failed)
    combine_done: float  # when the intra-cluster combine finished
    robj_arrival: float  # when the combined object reached its receiver
    idle: float  # waiting for the last cluster still processing

    @property
    def total(self) -> float:
        """Bar height: processing + retrieval + sync."""
        return self.mean_processing + self.mean_retrieval + self.sync


def cluster_reports(
    masters: Sequence, crews: Mapping[str, Sequence], scheduler,
    arrivals: Mapping[str, float], *, span: float, origin: float = 0.0,
) -> dict[str, ClusterReport]:
    """One pass's ``clusters``, in either engine. Each master shell has a
    ``name``, ``site``, ``core`` (its ``MasterCore``) and ``combine_done``;
    ``crews`` maps its name to the ``SlaveCore`` of every slave that ran
    there, whose ledgers give the means (zero for an empty crew);
    ``scheduler.clusters`` holds the steal counts and ``arrivals`` when each
    cluster's upload reached its receiver. Stamps are readings of the
    clock whose ``origin`` started the pass: the runtime's
    ``perf_counter``, 0.0 in virtual time."""
    last_end = max(master.core.processing_end for master in masters) - origin
    clusters = {}
    for master in masters:
        name, crew = master.name, crews[master.name]
        n = max(1, len(crew))
        mean_processing = sum(core.processing for core in crew) / n
        mean_retrieval = sum(core.retrieval for core in crew) / n
        processing_end = master.core.processing_end - origin
        clusters[name] = ClusterReport(
            name=name, site=master.site, slaves=len(crew),
            jobs_processed=sum(core.reduced for core in crew),
            jobs_stolen=scheduler.clusters[name].jobs_stolen,
            mean_processing=mean_processing, mean_retrieval=mean_retrieval,
            sync=span - mean_processing - mean_retrieval,
            processing_end=processing_end,
            combine_done=master.combine_done - origin,
            robj_arrival=arrivals[name] - origin,
            idle=max(0.0, last_end - processing_end),
        )
    return clusters


def pass_record(
    head, masters: Sequence, crews: Mapping[str, Sequence], scheduler, *,
    span: float, origin: float = 0.0,
) -> dict:
    """What one pass's :class:`RunTelemetry` takes from its head and
    master cores, in either engine: ``clusters`` (:func:`cluster_reports`,
    each upload stamped where it landed — at the head for a plan root, at
    its parent master otherwise) and the master cores' counters, summed.
    ``head.core`` is the pass's ``HeadCore``; the rest is as for
    :func:`cluster_reports`."""
    arrivals = dict(head.core.arrivals)
    for master in masters:
        arrivals.update(master.core.arrivals)
    record: dict = {
        name: sum(getattr(master.core, name) for master in masters)
        for name in _MASTER_COUNTERS
    }
    record["clusters"] = cluster_reports(
        masters, crews, scheduler, arrivals, span=span, origin=origin
    )
    return record


@dataclass
class RunTelemetry:
    """One pass's account — or, folded, a whole run's — in any engine.

    Which engine fills what (a field an engine does not measure keeps its
    default):

    * every engine: ``makespan`` (wall-clock seconds in the serial oracle
      and the runtime, virtual seconds in the simulator),
      ``faults_injected``, ``cache_hits`` and ``cache_misses``;
    * the simulator and the runtime: ``global_reduction`` (Table II: the
      simulator models the ship of the combined objects plus the head's
      final merge, the runtime times the head's merges), ``dollars_spent``
      and what :func:`pass_record` reads off the head and master cores:
      ``clusters``, ``slaves_failed``, ``slaves_revoked``,
      ``slaves_added``, ``jobs_reexecuted`` and ``sync_partial_merges``;
    * the simulator only: ``experiment``, ``app`` and ``events_processed``;
    * the serial oracle and the runtime: the reader's and the cache's
      other counters, which :func:`~repro.runtime.telemetry.read_ledger`
      copies out of the components;
    * the runtime only: the other ``sync_*`` counters, ``prefetches`` and,
      for a traced run, ``spans``.

    Per-job durations are the trace's (:func:`repro.obs.spans.build_spans`).
    """

    makespan: float
    experiment: str = ""
    app: str = ""
    global_reduction: float = 0.0
    clusters: dict[str, ClusterReport] = field(default_factory=dict)
    events_processed: int = 0
    slaves_failed: int = 0
    jobs_reexecuted: int = 0
    #: Elastic-bursting accounting (see :mod:`repro.scale`): slaves the
    #: autoscaler attached mid-run, spot instances revoked out from under
    #: their jobs, and the controller's accrued cloud spend in dollars.
    slaves_added: int = 0
    slaves_revoked: int = 0
    dollars_spent: float = 0.0
    #: Data-path recovery accounting (see :mod:`repro.resilience`): filled
    #: from the reader's shared stats when a retry policy is active; all
    #: zero otherwise. The simulator counts the faults it applies.
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    timeouts: int = 0
    circuit_opens: int = 0
    faults_injected: int = 0
    #: Chunk-cache and prefetch accounting (see :mod:`repro.cache`):
    #: filled when a cache/prefetcher is active; all zero otherwise.
    #: ``bytes_saved`` counts remote bytes served from cache instead of
    #: the network.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    bytes_saved: int = 0
    prefetches: int = 0
    #: Global-reduction sync accounting (see :mod:`repro.core.sync`):
    #: filled by the runtime on every pass (serial mode ships nothing;
    #: the simulator counts only ``sync_partial_merges``).
    #: ``sync_uploads``/``sync_bytes_*`` count the uploads that cross a
    #: site boundary, the only ones the codec encodes: the head-site
    #: master hands its object to the head as it is, so a one-site
    #: (local) run reports 0. ``sync_bytes_saved`` is the codec's
    #: ``bytes_saved`` across those uploads — never negative, 0 for dense
    #: uploads; ``sync_partial_merges`` counts streamed slave flushes
    #: folded before the barrier.
    sync_uploads: int = 0
    sync_bytes_sent: int = 0
    sync_bytes_saved: int = 0
    sync_partial_merges: int = 0
    #: Zero-copy data-path accounting (see :mod:`repro.data.dataset`):
    #: ``zero_copy_reads`` counts chunk reads served as read-only views
    #: over an existing buffer (cache hits, in-memory object-store
    #: ranges); ``bytes_copied`` counts the bytes that had to be
    #: materialized (retriever-joined remote reads, non-view backends).
    #: A hot read loop proves itself copy-free when this stays 0.
    #: ``remote_bytes`` counts the cross-site chunk bytes fetched over the
    #: network (cache hits excluded): a warm cached pass reads 0.
    zero_copy_reads: int = 0
    bytes_copied: int = 0
    remote_bytes: int = 0
    #: Causal-span digest (:func:`repro.obs.spans.span_summary`): per-phase
    #: time totals and the critical path through the makespan. Filled by
    #: the runtime when the run was traced; ``None`` otherwise.
    spans: dict | None = None

    def cluster(self, name: str) -> ClusterReport:
        try:
            return self.clusters[name]
        except KeyError:
            raise DataFormatError(
                f"no cluster {name!r} in report (have {sorted(self.clusters)})"
            ) from None

    @property
    def total_jobs(self) -> int:
        return sum(c.jobs_processed for c in self.clusters.values())

    @property
    def total_stolen(self) -> int:
        return sum(c.jobs_stolen for c in self.clusters.values())

    def validate(self) -> None:
        """Internal-consistency checks on one pass: no negative time
        category or global reduction, the makespan covers every cluster's
        processing, and each bar (processing + retrieval + sync) equals
        the makespan."""
        span = self.makespan
        if self.global_reduction < -1e-9:
            raise DataFormatError("negative global reduction time")
        for cluster in self.clusters.values():
            if cluster.mean_processing < -1e-9 or cluster.mean_retrieval < -1e-9:
                raise DataFormatError(f"negative time category in {cluster.name}")
            if cluster.sync < -1e-6:
                raise DataFormatError(f"negative sync in {cluster.name}: {cluster.sync}")
            if cluster.processing_end - 1e-6 > span:
                raise DataFormatError(f"{cluster.name} finished after the makespan")
            if abs(cluster.total - span) > max(1e-6, 1e-9 * span):
                raise DataFormatError(
                    f"{cluster.name}: bar total {cluster.total} != makespan {span}"
                )

    @classmethod
    def fold(cls, passes: Sequence[RunTelemetry]) -> RunTelemetry:
        """Whole-run record of a multi-pass run: every counter summed over
        ``passes``; the rest — ``makespan``, ``global_reduction``,
        ``clusters`` and the labels, which describe one pass — is the last
        pass's, so a folded record still validates. The run's total time
        is the sum of the passes' makespans."""
        sums = {
            f.name: sum(getattr(record, f.name) for record in passes)
            for f in fields(cls)
            if f.type in _CASTS and f.name not in _PER_PASS
        }
        return replace(passes[-1], **sums)

    def to_dict(self) -> dict:
        """Plain-data form for persistence or downstream tooling."""
        return asdict(self)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> RunTelemetry:
        try:
            clusters = {
                name: ClusterReport(**entry)
                for name, entry in doc["clusters"].items()
            }
            # Absent fields keep their defaults; a field without one is
            # required and its absence is a KeyError.
            scalars = {
                f.name: _CASTS.get(f.type, lambda value: value)(doc[f.name])
                for f in fields(cls)
                if f.name != "clusters" and (f.default is MISSING or f.name in doc)
            }
            return cls(clusters=clusters, **scalars)
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"malformed {cls.__name__} document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> RunTelemetry:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{cls.__name__} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
