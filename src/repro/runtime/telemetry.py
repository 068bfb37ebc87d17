"""Wall-clock telemetry for the executable runtime.

Mirrors the simulator's metric decomposition at functional scale: per-slave
processing and retrieval seconds, per-cluster aggregation, and run totals.
These numbers are *measurements* of the in-process run — useful for the
examples and the API-overhead comparisons — not the paper's testbed
prediction (that is the simulator's job).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Sequence

from ..errors import DataFormatError

__all__ = ["Stopwatch", "SlaveTelemetry", "ClusterTelemetry", "RunTelemetry"]


class Stopwatch:
    """Accumulating timer: ``with watch: ...`` adds the block's duration.

    ``clock`` is injectable so tests can drive a fake time source instead
    of sleeping for real (see :mod:`repro.clock`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.total = 0.0
        self._clock = clock
        self._started: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._started = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._started is not None
        self.total += self._clock() - self._started
        self._started = None


@dataclass
class SlaveTelemetry:
    """One slave's accumulated timings."""

    slave_id: int
    cluster: str
    processing: Stopwatch = field(default_factory=Stopwatch)
    retrieval: Stopwatch = field(default_factory=Stopwatch)
    jobs: int = 0


@dataclass
class ClusterTelemetry:
    """Aggregated per-cluster view."""

    cluster: str
    site: str
    slaves: int
    jobs: int
    stolen: int
    mean_processing: float
    mean_retrieval: float

    @staticmethod
    def aggregate(
        cluster: str, site: str, slaves: list[SlaveTelemetry], stolen: int
    ) -> "ClusterTelemetry":
        n = max(1, len(slaves))
        return ClusterTelemetry(
            cluster=cluster,
            site=site,
            slaves=len(slaves),
            jobs=sum(s.jobs for s in slaves),
            stolen=stolen,
            mean_processing=sum(s.processing.total for s in slaves) / n,
            mean_retrieval=sum(s.retrieval.total for s in slaves) / n,
        )


@dataclass
class RunTelemetry:
    """Whole-run accounting returned alongside the application result.

    ``metrics`` is the :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    taken at the end of the run when the driver was given a registry —
    plain data, so it serializes with the rest.
    """

    wall_seconds: float
    clusters: dict[str, ClusterTelemetry] = field(default_factory=dict)
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
    #: filled by the driver when a :class:`~repro.core.sync.SyncSpec` is
    #: active. ``sync_bytes_saved`` is dense-minus-wire across every
    #: upload this run; ``sync_partial_merges`` counts streamed slave
    #: flushes folded before the barrier.
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
    zero_copy_reads: int = 0
    bytes_copied: int = 0
    metrics: dict | None = None
    #: Causal-span digest (:func:`repro.obs.spans.span_summary`): per-phase
    #: time totals and the critical path through the makespan. Filled by
    #: the driver when the run was traced; ``None`` otherwise.
    spans: dict | None = None

    @property
    def total_jobs(self) -> int:
        return sum(c.jobs for c in self.clusters.values())

    @property
    def total_stolen(self) -> int:
        return sum(c.stolen for c in self.clusters.values())

    @classmethod
    def _numeric_fields(cls) -> list[tuple[str, type]]:
        """``(name, int | float)`` for every counter and timing — the one
        walk the fold and the (de)serializers share, so a counter added to
        the dataclass is summed, written and read back."""
        casts = {"int": int, "float": float}
        return [(f.name, casts[f.type]) for f in fields(cls) if f.type in casts]

    @classmethod
    def fold(cls, passes: Sequence["RunTelemetry"]) -> "RunTelemetry":
        """Whole-run record of a multi-pass run: every numeric field summed
        over ``passes``; clusters, metrics snapshot and span digest are the
        last pass's."""
        sums = {
            name: sum(getattr(t, name) for t in passes)
            for name, _ in cls._numeric_fields()
        }
        return replace(passes[-1], **sums)

    # -- serialization (mirrors SimReport's, so examples and benches can
    # persist runtime measurements the same way they persist sim reports) --

    def to_dict(self) -> dict:
        """Plain-data form for persistence or downstream tooling."""
        doc = {name: getattr(self, name) for name, _ in self._numeric_fields()}
        doc["clusters"] = {name: asdict(c) for name, c in self.clusters.items()}
        doc["metrics"] = self.metrics
        doc["spans"] = self.spans
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunTelemetry":
        try:
            # Absent counters keep their defaults; an absent wall_seconds
            # has none and fails the constructor below.
            numbers = {
                name: cast(doc[name])
                for name, cast in cls._numeric_fields()
                if name in doc
            }
            clusters = {
                name: ClusterTelemetry(**entry)
                for name, entry in doc["clusters"].items()
            }
            return cls(
                clusters=clusters,
                metrics=doc.get("metrics"),
                spans=doc.get("spans"),
                **numbers,
            )
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"malformed telemetry document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"telemetry is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
