"""The worker timeline: paired intervals, causal per-job spans, and the
critical path through the makespan.

:func:`_pairs` turns each worker's ``fetch_*``/``compute_*`` events into
intervals, once, and every timeline view reads them:

* :func:`worker_intervals`, :func:`utilization` (the per-worker version
  of Figure 3's retrieval/processing/idle decomposition) and
  :func:`render_gantt` (one text row per worker: 'r' = retrieval,
  'P' = processing, '.' = idle);
* :func:`build_spans` — one :class:`JobSpan` per (worker, job cycle),
  with steal and re-execution links: each job's life as the ordered
  phases ``queued -> fetch -> stall -> compute``, chained per worker (a
  job is *queued* from the moment its worker finished the previous job);
* :func:`phase_totals` — per-phase time across all spans;
* :func:`critical_path` — the single causal chain of
  :class:`CriticalSegment` that tiles ``[0, makespan]``: back from the
  final merge through the run's closing phases ``combine -> upload ->
  merge`` (master folds its slaves' objects, ships the result, head
  merges) and the gating worker's job cycles down to time zero;
* :func:`span_summary` — the plain-data form carried on
  :class:`~repro.obs.record.RunTelemetry`.

Both substrates emit the same vocabulary, fetch events included, so a
simulated and a real run of the same app produce spans with identical
phase names. A job's fetch is paired with its compute by job id. On a
prefetching slave the fetch events come from the prefetcher's stage
threads, so a job's fetch can begin — and end — while the worker still
computes an earlier job: the span keeps the fetch's own times, and its
``phases`` show the part of it the worker actually waited for (from
``queued_from`` on), which is what keeps them tiling the lifetime. A
hand-built cycle without fetch events reconstructs with a zero-width
fetch phase anchored at ``compute_start``.

The pairing is strict, so every reader raises the same
:class:`TraceError` on a malformed stream and the runtime's per-pass
:func:`span_summary` checks its own slave loops. It tolerates exactly
the two shapes real runs produce: a crashed slave's open intervals, and
ends whose starts fell off a wrapped ring (see :func:`_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import TraceError
from .events import EventLog

__all__ = [
    "Interval",
    "worker_intervals",
    "utilization",
    "render_gantt",
    "PHASES",
    "Phase",
    "JobSpan",
    "CriticalSegment",
    "build_spans",
    "phase_totals",
    "critical_path",
    "render_critical_path",
    "span_summary",
]

@dataclass(frozen=True)
class Interval:
    """A worker activity interval."""

    start: float
    end: float
    activity: str  # 'retrieval' | 'processing'

    @property
    def duration(self) -> float:
        return self.end - self.start


_PAIRS = {
    "fetch_start": ("fetch_end", "retrieval"),
    "compute_start": ("compute_end", "processing"),
}
_ENDS = {end: activity for end, activity in _PAIRS.values()}


def _blocker(activity: str, job_id: int, open_keys) -> str | None:
    """The open activity that forbids starting ``activity`` for ``job_id``.

    A worker computes one job at a time, and a job's own fetch and compute
    never overlap. Fetches of *other* jobs may overlap anything: a
    prefetching slave keeps several on the wire while it computes.
    """
    if (activity, job_id) in open_keys:
        return activity
    if activity == "processing":
        if ("retrieval", job_id) in open_keys:
            return "retrieval"
        if any(a == "processing" for a, _ in open_keys):
            return "processing"
    elif ("processing", job_id) in open_keys:
        return "processing"
    return None


def _next_placeable(group, open_keys) -> int | None:
    for n, e in enumerate(group):
        if e.kind in _ENDS and (_ENDS[e.kind], e.job_id) in open_keys:
            return n
    startable = [
        n for n, e in enumerate(group)
        if e.kind in _PAIRS
        and _blocker(_PAIRS[e.kind][1], e.job_id, open_keys) is None
    ]
    for n in startable:
        want = (_PAIRS[group[n].kind][0], group[n].job_id)
        if any((e.kind, e.job_id) == want for e in group):
            return n
    return startable[0] if startable else None


def _ordered(events):
    """Sort a worker's events by time, resolving equal-timestamp ties.

    Within one instant a realizable schedule puts the ends that close
    open intervals first, then any zero-width start/end pairs, then the
    starts left open past the instant (intervals are keyed by activity
    and job id; see :func:`_blocker` for which may overlap). Events a tie
    group cannot place (an end with nothing open, a start that is
    blocked) are kept in recorded order so the pairing scan reports them.
    """
    events = sorted(events, key=lambda e: e.time)
    out = []
    open_keys: set[tuple[str, int]] = set()
    i = 0
    while i < len(events):
        j = i
        while j < len(events) and events[j].time == events[i].time:
            j += 1
        group = events[i:j]
        while group:
            k = _next_placeable(group, open_keys)
            if k is None:
                break
            event = group.pop(k)
            out.append(event)
            if event.kind in _PAIRS:
                open_keys.add((_PAIRS[event.kind][1], event.job_id))
            else:
                open_keys.discard((_ENDS[event.kind], event.job_id))
        out.extend(group)
        i = j
    return out


def _pairs(trace: EventLog, worker: int):
    """A worker's ``(start event, end event, activity)`` triples.

    Starts and ends are paired by job id, in the order the ends occur.
    Raises :class:`TraceError` on a malformed stream: an end without its
    start, a start :func:`_blocker` forbids (a second compute while one
    is open, a job computing while its own fetch is), or a start the
    trace never closes. Two shapes are not malformed: a ``slave_failed``
    event for the worker drops the intervals it left open (the master
    re-executes their jobs elsewhere; an end that later closes one is
    skipped), and once a ring log has dropped events, an end whose start
    fell off the front is skipped.
    """
    wrapped = trace.events_dropped > 0
    open_events: dict[tuple[str, int], object] = {}
    abandoned: set[tuple[str, int]] = set()
    out = []
    for event in _ordered(trace.for_worker(worker)):
        if event.kind == "slave_failed":
            abandoned.update(open_events)
            open_events.clear()
        elif event.kind in _PAIRS:
            activity = _PAIRS[event.kind][1]
            blocker = _blocker(activity, event.job_id, open_events)
            if blocker is not None:
                raise TraceError(
                    f"worker {worker}: {event.kind} at {event.time} while "
                    f"{blocker} still open"
                )
            open_events[(activity, event.job_id)] = event
        elif event.kind in _ENDS:
            key = (_ENDS[event.kind], event.job_id)
            start = open_events.pop(key, None)
            if start is None:
                if wrapped or key in abandoned:
                    abandoned.discard(key)
                    continue
                other = next(
                    (a for a, job in open_events if job == event.job_id), None
                )
                if other is not None:
                    raise TraceError(
                        f"worker {worker}: {event.kind} closes a {other} "
                        f"interval"
                    )
                raise TraceError(
                    f"worker {worker}: {event.kind} without a start"
                )
            out.append((start, event, key[0]))
    if open_events:
        activity = next(iter(open_events))[0]
        raise TraceError(f"worker {worker}: trace ends mid-{activity}")
    return out


def worker_intervals(trace: EventLog, worker: int) -> list[Interval]:
    """Reconstruct a worker's busy intervals from its start/end events.

    Events are sorted by timestamp first (see :func:`_ordered`): the
    threaded runtime appends to the shared log in per-worker wall-clock
    order, but a stream read back from disk or merged from several logs
    need not arrive ordered. Start and end are paired by job id, so the
    retrieval intervals of a prefetching slave may overlap its processing
    and each other; intervals come back sorted by start. Raises
    :class:`TraceError` on malformed traces (see :func:`_pairs`) — these
    checks double as an internal consistency check on both substrates'
    slave loops.
    """
    return sorted(
        (
            Interval(start=start.time, end=end.time, activity=activity)
            for start, end, activity in _pairs(trace, worker)
        ),
        key=lambda iv: (iv.start, iv.end),
    )


def utilization(trace: EventLog, makespan: float) -> dict[int, dict[str, float]]:
    """Per-worker time fractions: retrieval / processing / idle."""
    if makespan <= 0:
        raise TraceError("makespan must be positive")
    out: dict[int, dict[str, float]] = {}
    for worker in trace.workers():
        totals = {"retrieval": 0.0, "processing": 0.0}
        for interval in worker_intervals(trace, worker):
            totals[interval.activity] += interval.duration
        busy = totals["retrieval"] + totals["processing"]
        out[worker] = {
            "retrieval": totals["retrieval"] / makespan,
            "processing": totals["processing"] / makespan,
            "idle": max(0.0, 1.0 - busy / makespan),
        }
    return out


def render_gantt(
    trace: EventLog, makespan: float, *, width: int = 72
) -> str:
    """Text Gantt chart: one row per worker, time left to right."""
    if width <= 0:
        raise TraceError("width must be positive")
    if makespan <= 0:
        raise TraceError("makespan must be positive")
    glyph = {"retrieval": "r", "processing": "P"}
    rows = []
    for worker in trace.workers():
        cells = ["."] * width
        for interval in worker_intervals(trace, worker):
            lo = min(width - 1, int(interval.start / makespan * width))
            hi = min(width, max(lo + 1, int(interval.end / makespan * width)))
            for i in range(lo, hi):
                cells[i] = glyph[interval.activity]
        rows.append(f"w{worker:03d} |{''.join(cells)}|")
    header = f"time 0 .. {makespan:.1f}s ({'r'}=retrieval, {'P'}=processing)"
    return header + "\n" + "\n".join(rows)


#: The shared span-phase vocabulary, in causal order.
PHASES = ("queued", "fetch", "stall", "compute", "combine", "upload", "merge")


@dataclass(frozen=True)
class Phase:
    """One contiguous slice of a span's lifetime."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class JobSpan:
    """One job's causal span on one worker.

    ``queued_from`` is when the worker became free for this job (the
    previous cycle's ``compute_end``, or 0.0 for the first cycle) — the
    span's phases tile ``[queued_from, compute_end]`` exactly, so they
    are non-overlapping, cover the lifetime, and sum to the end-to-end
    latency. ``fetch_start``/``fetch_end`` are this job's own fetch
    events; a prefetched fetch may precede ``queued_from``.
    """

    job_id: int
    file_id: int
    worker: int
    cluster: str
    queued_from: float
    fetch_start: float | None
    fetch_end: float | None
    compute_start: float
    compute_end: float
    stolen: bool = False
    attempt: int = 1
    reexecution: bool = False

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The span tiled into its ordered phases (zero-width kept)."""
        if self.fetch_start is None:
            anchor = self.compute_start
            mid: tuple[Phase, ...] = (
                Phase("fetch", anchor, anchor),
                Phase("stall", anchor, anchor),
            )
        else:
            # Only the part of a prefetched fetch past ``queued_from`` is
            # on this worker's timeline; the rest hid behind earlier jobs.
            anchor = max(self.fetch_start, self.queued_from)
            fetched = max(self.fetch_end, anchor)
            mid = (
                Phase("fetch", anchor, fetched),
                Phase("stall", fetched, self.compute_start),
            )
        return (
            Phase("queued", self.queued_from, anchor),
            *mid,
            Phase("compute", self.compute_start, self.compute_end),
        )

    @property
    def latency(self) -> float:
        """End-to-end latency: queued through compute completion."""
        return self.compute_end - self.queued_from

    @property
    def execution(self) -> float:
        """Fetch through compute (the straggler detector's signal), less
        any wait of an already-prefetched chunk behind earlier jobs."""
        if self.fetch_start is None:
            return self.compute_end - self.compute_start
        return self.compute_end - max(self.fetch_start, self.queued_from)


@dataclass(frozen=True)
class CriticalSegment:
    """One link of the critical path's causal chain."""

    phase: str
    start: float
    end: float
    cluster: str = ""
    worker: int = -1
    job_id: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def _worker_cycles(log: EventLog, worker: int) -> list[JobSpan]:
    """Chain one worker's compute intervals into job cycles, attaching
    each job's fetch interval by job id."""
    spans: list[JobSpan] = []
    queued_from = 0.0
    fetched = {}
    for start, end, activity in _pairs(log, worker):
        if activity == "retrieval":
            fetched[end.job_id] = (start, end.time)
            continue
        fetch, fetch_end = fetched.pop(end.job_id, (None, None))
        # Without fetch events the compute_start carries the file.
        origin = fetch if fetch is not None else start
        spans.append(
            JobSpan(
                job_id=end.job_id,
                file_id=origin.file_id,
                worker=worker,
                cluster=origin.cluster or end.cluster,
                queued_from=queued_from,
                fetch_start=fetch.time if fetch is not None else None,
                fetch_end=fetch_end,
                compute_start=start.time,
                compute_end=end.time,
            )
        )
        queued_from = end.time
    return spans


def build_spans(log: EventLog) -> list[JobSpan]:
    """Reconstruct every job's causal span from the event stream.

    Steal links come from the scheduler's ``steal`` events (matched on
    (cluster, file_id) — the whole stolen group is remote work);
    re-execution links from ``job_reexecuted`` (every later attempt of a
    re-executed job id is flagged, and ``attempt`` counts duplicates in
    completion order).
    """
    spans: list[JobSpan] = []
    for worker in log.workers():
        spans.extend(_worker_cycles(log, worker))

    stolen = {
        (e.cluster, e.file_id)
        for e in log.of_kind("steal")
        if e.file_id >= 0
    }
    reexecuted = {e.job_id for e in log.of_kind("job_reexecuted") if e.job_id >= 0}

    by_job: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_job.setdefault(span.job_id, []).append(i)

    out = list(spans)
    for job_id, indexes in by_job.items():
        indexes.sort(key=lambda i: spans[i].compute_end)
        for attempt, i in enumerate(indexes, start=1):
            span = spans[i]
            out[i] = replace(
                span,
                stolen=(span.cluster, span.file_id) in stolen,
                attempt=attempt,
                # A later attempt is a re-execution; so is a sole cycle of
                # a job the master re-issued (the first try died before
                # its compute_end ever hit the log).
                reexecution=attempt > 1
                or (job_id in reexecuted and len(indexes) == 1),
            )
    out.sort(key=lambda s: (s.compute_end, s.worker))
    return out


def phase_totals(spans: list[JobSpan]) -> dict[str, float]:
    """Total seconds per phase across all spans (worker-phases only)."""
    totals = {name: 0.0 for name in ("queued", "fetch", "stall", "compute")}
    for span in spans:
        for phase in span.phases:
            totals[phase.name] += phase.duration
    return totals


def _last_before(events, cursor: float, **match):
    """The latest event at or before ``cursor`` matching the fields."""
    best = None
    for e in events:
        if e.time > cursor + 1e-12:
            continue
        if any(getattr(e, k) != v for k, v in match.items()):
            continue
        if best is None or e.time > best.time:
            best = e
    return best


def critical_path(
    log: EventLog, makespan: float | None = None
) -> list[CriticalSegment]:
    """The causal chain that gates the makespan, tiling ``[0, makespan]``.

    Walk backwards from the run's end: the head's final merge waits on
    the last ``robj_sent`` (merge), which waits on its cluster's
    ``combine_done`` (upload), which waits on that cluster's last
    ``compute_end`` (combine), which chains through the gating worker's
    job cycles — compute, stall, fetch, queued — down to time zero.
    Consecutive segments share boundaries, so the phase durations sum to
    the makespan exactly.
    """
    if not len(log):
        raise TraceError("cannot compute a critical path on an empty trace")
    if makespan is None:
        makespan = log.makespan()
    if makespan <= 0:
        raise TraceError("makespan must be positive")

    events = log.snapshot()
    spans = build_spans(log)
    if not spans:
        raise TraceError("trace has no completed job cycles")

    segments: list[CriticalSegment] = []
    cursor = makespan
    gate_cluster = ""
    gate_worker = -1

    robj = _last_before(
        [e for e in events if e.kind == "robj_sent"], cursor
    )
    if robj is not None and robj.time < cursor:
        segments.append(
            CriticalSegment("merge", robj.time, cursor, cluster=robj.cluster)
        )
        cursor = robj.time
    if robj is not None:
        gate_cluster = robj.cluster
        combine = _last_before(
            [e for e in events if e.kind == "combine_done"],
            cursor,
            cluster=gate_cluster,
        )
        if combine is not None and combine.time < cursor:
            segments.append(
                CriticalSegment(
                    "upload", combine.time, cursor, cluster=gate_cluster
                )
            )
            cursor = combine.time

    # The gating worker: the last compute_end in the gating cluster (or
    # anywhere, when the trace carries no sync tail).
    candidates = [
        s for s in spans
        if s.compute_end <= cursor + 1e-12
        and (not gate_cluster or s.cluster == gate_cluster)
    ] or [s for s in spans if s.compute_end <= cursor + 1e-12] or spans
    last = max(candidates, key=lambda s: s.compute_end)
    gate_worker = last.worker
    if last.compute_end < cursor:
        segments.append(
            CriticalSegment(
                "combine",
                last.compute_end,
                cursor,
                cluster=last.cluster,
                worker=gate_worker,
            )
        )
        cursor = last.compute_end

    # Walk the gating worker's cycles back to time zero.
    cycles = sorted(
        (s for s in spans if s.worker == gate_worker),
        key=lambda s: s.compute_end,
        reverse=True,
    )
    for span in cycles:
        if span.compute_end > cursor + 1e-12:
            continue
        for phase in reversed(span.phases):
            end = min(phase.end, cursor)
            start = min(phase.start, end)
            segments.append(
                CriticalSegment(
                    phase.name,
                    start,
                    end,
                    cluster=span.cluster,
                    worker=span.worker,
                    job_id=span.job_id,
                )
            )
            cursor = start
        if cursor <= 0:
            break
    if cursor > 0:
        # The worker's first cycle started after 0 only if queued_from
        # was clamped; close the chain explicitly.
        segments.append(
            CriticalSegment("queued", 0.0, cursor, worker=gate_worker)
        )

    segments.reverse()
    return segments


def render_critical_path(segments: list[CriticalSegment]) -> str:
    """Text form of the critical path: the chain, then per-phase totals."""
    if not segments:
        raise TraceError("empty critical path")
    total = segments[-1].end - segments[0].start
    lines = [f"critical path: {total:.3f}s in {len(segments)} segments"]
    for seg in segments:
        where = seg.cluster or "head"
        owner = f" w{seg.worker:03d}" if seg.worker >= 0 else ""
        job = f" job {seg.job_id}" if seg.job_id >= 0 else ""
        lines.append(
            f"  {seg.start:>9.3f} .. {seg.end:>9.3f}  "
            f"{seg.phase:<8} {seg.duration:>8.3f}s  {where}{owner}{job}"
        )
    totals: dict[str, float] = {}
    for seg in segments:
        totals[seg.phase] = totals.get(seg.phase, 0.0) + seg.duration
    lines.append("per-phase totals on the path:")
    for name in PHASES:
        if name in totals:
            share = totals[name] / total * 100 if total else 0.0
            lines.append(f"  {name:<8} {totals[name]:>8.3f}s  {share:5.1f}%")
    return "\n".join(lines)


def span_summary(
    log: EventLog, makespan: float | None = None
) -> dict:
    """Plain-data span digest for :class:`RunTelemetry` / JSON export."""
    if makespan is None:
        makespan = log.makespan()
    spans = build_spans(log)
    if not spans:
        return {
            "jobs": 0,
            "makespan": makespan,
            "phase_seconds": {},
            "critical_path": [],
            "critical_path_seconds": {},
            "stolen_jobs": 0,
            "reexecutions": 0,
        }
    path = critical_path(log, makespan)
    path_totals: dict[str, float] = {}
    for seg in path:
        path_totals[seg.phase] = path_totals.get(seg.phase, 0.0) + seg.duration
    return {
        "jobs": len(spans),
        "makespan": makespan,
        "phase_seconds": phase_totals(spans),
        "critical_path": [
            {
                "phase": seg.phase,
                "start": seg.start,
                "end": seg.end,
                "seconds": seg.duration,
                "cluster": seg.cluster,
                "worker": seg.worker,
                "job_id": seg.job_id,
            }
            for seg in path
        ],
        "critical_path_seconds": path_totals,
        "stolen_jobs": sum(1 for s in spans if s.stolen),
        "reexecutions": sum(1 for s in spans if s.attempt > 1),
    }
