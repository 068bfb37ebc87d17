"""The per-pass record both engines report, and its per-cluster entry.

:class:`~repro.sim.metrics.SimReport` and
:class:`~repro.runtime.telemetry.RunTelemetry` are each a dataclass of
scalars plus ``clusters``, a dict of :class:`ClusterReport`; one
``dataclasses.fields`` walk sums, writes and reads back both, so a
counter added to either is covered without touching another line.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, asdict, dataclass, fields, replace
from typing import Sequence

__all__ = ["ClusterReport", "PassRecord"]

_CASTS = {"int": int, "float": float}


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

    @classmethod
    def from_crew(
        cls, name: str, site: str, crew: Sequence[tuple[float, float, int]], *,
        jobs_stolen: int, span: float, last_end: float, processing_end: float,
        combine_done: float, robj_arrival: float,
    ) -> "ClusterReport":
        """The bar from the crew's ``(processing, retrieval, jobs)``;
        ``last_end`` is the latest ``processing_end`` of any cluster. An
        empty crew has zero means."""
        n = max(1, len(crew))
        mean_processing = sum(processing for processing, _, _ in crew) / n
        mean_retrieval = sum(retrieval for _, retrieval, _ in crew) / n
        return cls(
            name=name, site=site, slaves=len(crew),
            jobs_processed=sum(jobs for _, _, jobs in crew), jobs_stolen=jobs_stolen,
            mean_processing=mean_processing, mean_retrieval=mean_retrieval,
            sync=span - mean_processing - mean_retrieval,
            processing_end=processing_end, combine_done=combine_done,
            robj_arrival=robj_arrival, idle=max(0.0, last_end - processing_end),
        )

    @property
    def total(self) -> float:
        """Bar height: processing + retrieval + sync."""
        return self.mean_processing + self.mean_retrieval + self.sync


class PassRecord:
    """Mixin for such a dataclass; it names the field every cluster's bar
    spans and the error a malformed document or report raises."""

    _span: str
    _error: type[Exception]

    def cluster(self, name: str) -> ClusterReport:
        try:
            return self.clusters[name]
        except KeyError:
            raise self._error(
                f"no cluster {name!r} in report (have {sorted(self.clusters)})"
            ) from None

    @property
    def total_jobs(self) -> int:
        return sum(c.jobs_processed for c in self.clusters.values())

    @property
    def total_stolen(self) -> int:
        return sum(c.jobs_stolen for c in self.clusters.values())

    def validate(self) -> None:
        """Internal-consistency checks on every cluster of one pass: no
        negative time category, the span covers the cluster's processing,
        and the bar (processing + retrieval + sync) equals the span."""
        span = getattr(self, self._span)
        for cluster in self.clusters.values():
            if cluster.mean_processing < -1e-9 or cluster.mean_retrieval < -1e-9:
                raise self._error(f"negative time category in {cluster.name}")
            if cluster.sync < -1e-6:
                raise self._error(f"negative sync in {cluster.name}: {cluster.sync}")
            if cluster.processing_end - 1e-6 > span:
                raise self._error(f"{cluster.name} finished after the {self._span}")
            if abs(cluster.total - span) > max(1e-6, 1e-9 * span):
                raise self._error(
                    f"{cluster.name}: bar total {cluster.total} != "
                    f"{self._span} {span}"
                )

    @classmethod
    def _scalar_fields(cls) -> list[Field]:
        return [f for f in fields(cls) if f.name != "clusters"]

    @classmethod
    def fold(cls, passes: Sequence):
        """Whole-run record of a multi-pass run: every counter (a numeric
        field with a default) summed over ``passes``; everything else —
        what describes one pass — is the last pass's."""
        sums = {
            f.name: sum(getattr(record, f.name) for record in passes)
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
    def from_dict(cls, doc: dict):
        try:
            clusters = {
                name: ClusterReport(**entry)
                for name, entry in doc["clusters"].items()
            }
            # Absent fields keep their defaults; a field without one is
            # required and its absence is a KeyError.
            scalars = {
                f.name: _CASTS.get(f.type, lambda value: value)(doc[f.name])
                for f in cls._scalar_fields()
                if f.default is MISSING or f.name in doc
            }
            return cls(clusters=clusters, **scalars)
        except (KeyError, TypeError) as exc:
            raise cls._error(f"malformed {cls.__name__} document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls._error(f"{cls.__name__} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
