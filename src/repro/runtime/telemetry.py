"""Wall-clock telemetry for the executable runtime.

The runtime fills the paper's per-cluster split — processing, retrieval,
sync and idle (Figure 3, Table II) — in the same
:class:`~repro.obs.record.ClusterReport` the simulator reports, built by
the same :func:`~repro.obs.record.cluster_reports` from the slave cores'
ledgers and the masters' and receivers' ``perf_counter`` stamps, plus
run totals. These numbers are *measurements* of the in-process run, not
the paper's testbed prediction (that is the simulator's job).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..errors import DataFormatError
from ..obs.record import ClusterReport, PassRecord
from ..resilience.faults import FaultInjector

__all__ = ["RunTelemetry", "read_ledger"]


@dataclass
class RunTelemetry(PassRecord):
    """Whole-run accounting returned alongside the application result.

    Every counter a caller reads about a run is a field here, filled from
    :func:`read_ledger`; per-job durations are the trace's
    (:func:`repro.obs.spans.build_spans`). The serializers are
    :class:`~repro.obs.record.PassRecord`'s, shared with ``SimReport``.
    """

    _span = "wall_seconds"
    _error = DataFormatError

    wall_seconds: float
    clusters: dict[str, ClusterReport] = field(default_factory=dict)
    slaves_failed: int = 0
    jobs_reexecuted: int = 0
    #: Elastic-bursting accounting (see :mod:`repro.scale`): slaves the
    #: autoscaler attached mid-run, spot instances revoked out from under
    #: their jobs, and the controller's accrued cloud spend in dollars.
    slaves_added: int = 0
    slaves_revoked: int = 0
    dollars_spent: float = 0.0
    #: Data-path recovery accounting (see :mod:`repro.resilience`): filled
    #: by the driver from the reader's shared stats when a retry policy is
    #: active; all zero otherwise.
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    timeouts: int = 0
    circuit_opens: int = 0
    faults_injected: int = 0
    #: Chunk-cache and prefetch accounting (see :mod:`repro.cache`):
    #: filled by the driver when a cache/prefetcher is active; all zero
    #: otherwise. ``bytes_saved`` counts remote bytes served from cache
    #: instead of the network.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    bytes_saved: int = 0
    prefetches: int = 0
    #: Global-reduction sync accounting (see :mod:`repro.core.sync`):
    #: filled by the driver on every pass (serial mode ships nothing).
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
    #: the driver when the run was traced; ``None`` otherwise.
    spans: dict | None = None

    @classmethod
    def fold(cls, passes: Sequence["RunTelemetry"]) -> "RunTelemetry":
        """Whole-run record: every counter summed, and the wall clock (a
        numeric field without a default) with them."""
        wall = sum(t.wall_seconds for t in passes)
        return replace(super().fold(passes), wall_seconds=wall)


def read_ledger(
    reader, stores: Mapping[str, object], cache=None, codec=None
) -> dict[str, int]:
    """The components' *cumulative* counters, keyed by the
    :class:`RunTelemetry` field each one fills — the one place a counter
    is copied out of a component. Serial mode reports a whole run from
    it; the driver reads it before and after a pass and reports the
    difference, because injectors, cache and codec outlive a pass."""
    resilience = reader.resilience
    ledger = {
        "retries": resilience.retries,
        "hedges": resilience.hedges,
        "hedge_wins": resilience.hedge_wins,
        "timeouts": resilience.timeouts,
        "circuit_opens": sum(b.opens for b in reader.breakers().values()),
        "faults_injected": sum(
            store.counters.total
            for store in stores.values()
            if isinstance(store, FaultInjector)
        ),
        "zero_copy_reads": reader.zero_copy_reads,
        "bytes_copied": reader.bytes_copied,
        "remote_bytes": reader.remote_bytes,
    }
    if cache is not None:
        stats = cache.stats
        ledger.update(
            cache_hits=stats.hits,
            cache_misses=stats.misses,
            cache_evictions=stats.evictions,
            bytes_saved=stats.bytes_saved,
        )
    if codec is not None:
        stats = codec.stats
        ledger.update(
            sync_uploads=stats.uploads,
            sync_bytes_sent=stats.wire_bytes,
            sync_bytes_saved=stats.bytes_saved,
        )
    return ledger
