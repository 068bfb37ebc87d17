"""Robust straggler / anomaly detection over per-job latencies.

The paper's work-stealing story exists because of stragglers: a slow
worker (contended storage, a lagging WAN path, an injected latency fault)
stretches the makespan unless its work is rebalanced. This module flags
them after (or during) a run with the classic robust outlier rule:

    threshold = median + k * max(1.4826 * MAD, rel_floor * median)

over every job's *execution* latency (``fetch_start -> compute_end``; a
prefetched job counts from when its worker was free for it, if later).
MAD is the median absolute deviation; the 1.4826 factor makes it a
consistent sigma estimate under normality, and the relative floor keeps
a zero-variance fleet (the simulator with variability off) from flagging
everything on nanometer deviations.

:func:`detect_stragglers` returns a :class:`StragglerReport`.
Both substrates feed the same detector — a latency fault injected
through the fault layer is flagged identically in the simulator and
the threaded runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import EventLog
from .spans import JobSpan, build_spans

__all__ = [
    "Straggler",
    "StragglerReport",
    "detect_stragglers",
    "render_stragglers",
]


def _median(values: list[float]) -> float:
    data = sorted(values)
    n = len(data)
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


@dataclass(frozen=True)
class Straggler:
    """One worker flagged as an outlier, with its offending jobs."""

    worker: int
    cluster: str
    jobs: tuple[int, ...]
    worst_latency: float
    median_latency: float

    @property
    def slowdown(self) -> float:
        """Worst flagged latency over the fleet median (>= 1)."""
        if self.median_latency <= 0:
            return float("inf")
        return self.worst_latency / self.median_latency


@dataclass(frozen=True)
class StragglerReport:
    """The detector's verdict over one run."""

    median: float
    mad: float
    threshold: float
    k: float
    jobs_seen: int
    flagged: tuple[JobSpan, ...] = ()
    stragglers: tuple[Straggler, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "median": self.median,
            "mad": self.mad,
            "threshold": self.threshold,
            "k": self.k,
            "jobs_seen": self.jobs_seen,
            "stragglers": [
                {
                    "worker": s.worker,
                    "cluster": s.cluster,
                    "jobs": list(s.jobs),
                    "worst_latency": s.worst_latency,
                    "slowdown": s.slowdown,
                }
                for s in self.stragglers
            ],
        }


def detect_stragglers(
    log: EventLog, *, k: float = 3.0, rel_floor: float = 0.05
) -> StragglerReport:
    """Flag outlier job executions with the median + k*MAD rule.

    ``k`` is the usual robust z-score cut (3 ~ "clearly anomalous");
    ``rel_floor`` floors the spread estimate at a fraction of the median
    so uniform fleets don't flag noise. Needs at least 4 completed jobs
    to say anything.
    """
    spans = build_spans(log)
    latencies = [s.execution for s in spans]
    if len(latencies) < 4:
        return StragglerReport(
            median=_median(latencies) if latencies else 0.0,
            mad=0.0,
            threshold=float("inf"),
            k=k,
            jobs_seen=len(latencies),
        )
    med = _median(latencies)
    mad = _median([abs(x - med) for x in latencies])
    spread = max(1.4826 * mad, rel_floor * med)
    threshold = med + k * spread

    flagged = tuple(s for s in spans if s.execution > threshold)
    per_worker: dict[int, list[JobSpan]] = {}
    for span in flagged:
        per_worker.setdefault(span.worker, []).append(span)
    stragglers = tuple(
        Straggler(
            worker=worker,
            cluster=worst.cluster,
            jobs=tuple(s.job_id for s in spans_w),
            worst_latency=worst.execution,
            median_latency=med,
        )
        for worker, spans_w in sorted(per_worker.items())
        for worst in [max(spans_w, key=lambda s: s.execution)]
    )
    return StragglerReport(
        median=med,
        mad=mad,
        threshold=threshold,
        k=k,
        jobs_seen=len(latencies),
        flagged=flagged,
        stragglers=stragglers,
    )


def render_stragglers(report: StragglerReport) -> str:
    """Report lines: one per straggler, or the all-clear."""
    head = (
        f"straggler detector: median {report.median:.3f}s, "
        f"MAD {report.mad:.3f}s, threshold {report.threshold:.3f}s "
        f"(k={report.k:g}, {report.jobs_seen} jobs)"
    )
    if not report.stragglers:
        return head + "\n  no stragglers flagged"
    lines = [head]
    for s in report.stragglers:
        lines.append(
            f"  w{s.worker:03d} ({s.cluster}): {len(s.jobs)} job(s) flagged, "
            f"worst {s.worst_latency:.3f}s = {s.slowdown:.1f}x median"
        )
    return "\n".join(lines)
