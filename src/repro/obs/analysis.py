"""Timeline analyses over an event stream.

These reconstruct the paper's per-worker decomposition from any
:class:`~repro.obs.events.EventLog` — simulated or real:

* :func:`worker_intervals` — per-worker busy intervals by activity;
* :func:`utilization` — fraction of the makespan each worker spent
  retrieving vs computing vs idle (the per-worker version of Figure 3's
  decomposition);
* :func:`render_gantt` — a text Gantt chart of the run, one row per
  worker ('r' = retrieval, 'P' = processing, '.' = idle).

Events are sorted by timestamp before pairing: the threaded runtime
appends to the shared log in wall-clock order per worker but a stream
read back from disk (or merged from several logs) need not be ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TraceError
from .events import EventLog

__all__ = ["Interval", "worker_intervals", "utilization", "render_gantt"]


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


def _ordered(events, worker):
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
    trace never closes.
    """
    open_events: dict[tuple[str, int], object] = {}
    out = []
    for event in _ordered(trace.for_worker(worker), worker):
        if event.kind in _PAIRS:
            activity = _PAIRS[event.kind][1]
            blocker = _blocker(activity, event.job_id, open_events)
            if blocker is not None:
                raise TraceError(
                    f"worker {worker}: {event.kind} at {event.time} while "
                    f"{blocker} still open"
                )
            open_events[(activity, event.job_id)] = event
        elif event.kind in _ENDS:
            activity = _ENDS[event.kind]
            start = open_events.pop((activity, event.job_id), None)
            if start is None:
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
            out.append((start, event, activity))
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
