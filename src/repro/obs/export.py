"""Trace exporters: JSONL, Chrome/Perfetto ``trace_event`` JSON, text report.

Three consumers of the shared event stream:

* :func:`write_jsonl` / :func:`read_jsonl` — one event per line; the
  archival format (`repro report` reads it back, so a trace captured on
  one machine can be analysed on another);
* :func:`to_perfetto` / :func:`write_perfetto` — the Chrome
  ``trace_event`` format (the "JSON Array Format" with thread metadata),
  loadable in https://ui.perfetto.dev or ``chrome://tracing``. One track
  per worker, one per cluster master, one for the head node;
* :func:`render_report` — the plain-text run report (Gantt + utilization
  table + event summary) used by ``repro trace`` and ``repro report``,
  identical for simulated and real runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import TraceError
from .anomaly import detect_stragglers, render_stragglers
from .events import KINDS, EventLog, TraceEvent
from .spans import _ENDS, _PAIRS, PHASES, _pairs, build_spans, critical_path
from .spans import phase_totals, render_critical_path, render_gantt, utilization

__all__ = [
    "event_to_dict",
    "write_jsonl",
    "read_jsonl",
    "to_perfetto",
    "write_perfetto",
    "render_report",
]

_DEFAULTS = TraceEvent(time=0.0, kind="job_done")


def event_to_dict(event: TraceEvent) -> dict:
    """Compact plain-data form: default-valued fields are omitted."""
    out = {"time": event.time, "kind": event.kind}
    for name in ("cluster", "worker", "job_id", "file_id", "detail"):
        value = getattr(event, name)
        if value != getattr(_DEFAULTS, name):
            out[name] = value
    return out


#: Version of the JSONL header record. A file without a header reads as a
#: complete log.
JSONL_SCHEMA = 1


def write_jsonl(log: EventLog, path: str | Path) -> int:
    """Write a header record, then one event per line; returns the number
    of events written.

    The header, ``{"schema": 1, "events_dropped": N}``, carries what a
    capped log lost off its front, so a wrapped ring reads back as one.
    """
    events = log.snapshot()
    header = {"schema": JSONL_SCHEMA, "events_dropped": log.events_dropped}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for event in events:
            fh.write(json.dumps(event_to_dict(event), sort_keys=True))
            fh.write("\n")
    return len(events)


def read_jsonl(path: str | Path) -> EventLog:
    """Load a JSONL trace back into an :class:`EventLog`, restoring its
    ``events_dropped`` from the header record when the file has one."""
    events: list[TraceEvent] = []
    dropped = 0
    first = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if first and isinstance(doc, dict) and "schema" in doc:
                    first = False
                    dropped = _read_header(doc, f"{path}:{lineno}")
                    continue
                first = False
                event = TraceEvent(**doc)
            except (json.JSONDecodeError, TypeError) as exc:
                raise TraceError(f"{path}:{lineno}: bad trace line: {exc}") from exc
            if event.kind not in KINDS:
                raise TraceError(
                    f"{path}:{lineno}: unknown event kind {event.kind!r}"
                )
            events.append(event)
    log = EventLog(events)
    log.events_dropped = dropped
    return log


def _read_header(doc: dict, where: str) -> int:
    """The header's ``events_dropped``; raises on a header it cannot read."""
    if doc["schema"] != JSONL_SCHEMA:
        raise TraceError(f"{where}: unsupported trace schema {doc['schema']!r}")
    dropped = doc.get("events_dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        raise TraceError(f"{where}: bad events_dropped {dropped!r}")
    return dropped


# -- Perfetto ---------------------------------------------------------------

#: Instant events hosted on the head node's track.
_HEAD_KINDS = ("group_acked", "merge_done")

#: Ownerless event families get a named track each instead of landing as
#: anonymous process-scoped instants on the head track: the resilience
#: layer (retry/hedge/circuit/fault events carry only ``detail``), the
#: chunk cache (job/file ids but no worker), and the cross-site reader.
_FAMILY_TRACKS = {
    "retry": "resilience",
    "hedge": "resilience",
    "circuit_open": "resilience",
    "circuit_close": "resilience",
    "fault_injected": "resilience",
    "cache_hit": "cache",
    "cache_miss": "cache",
    "cache_evict": "cache",
    "remote_fetch": "storage",
    "scale_up": "scaling",
    "scale_down": "scaling",
    "provision": "scaling",
    "revocation": "scaling",
}

_US = 1e6  # trace_event timestamps are microseconds


def _thread_meta(pid: int, tid: int, name: str, sort_index: int) -> list[dict]:
    return [
        {
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        },
        {
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": sort_index},
        },
    ]


def to_perfetto(log: EventLog, *, process_name: str = "repro-run") -> dict:
    """Convert a trace to a Chrome ``trace_event`` document (a dict).

    Track layout: tid 0 is the head node, one tid per cluster master, one
    tid per worker, then one tid per ownerless event family present
    (``resilience``, ``cache``, ``storage``). Paired ``fetch``/``compute``
    events become complete ('X') slices named ``retrieval``/``processing``;
    everything else becomes an instant ('i') event on its owner's track.
    """
    events = log.snapshot()
    snapshot = EventLog(events)
    snapshot.events_dropped = log.events_dropped
    pid = 1
    trace_events: list[dict] = [
        {
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": process_name},
        },
        *_thread_meta(pid, 0, "head", 0),
    ]

    clusters = sorted({e.cluster for e in events if e.cluster})
    master_tid = {name: 1 + i for i, name in enumerate(clusters)}
    for name, tid in master_tid.items():
        trace_events.extend(_thread_meta(pid, tid, f"master:{name}", tid))

    worker_tid: dict[int, int] = {}
    base = 1 + len(clusters)
    for i, worker in enumerate(snapshot.workers()):
        tid = base + i
        worker_tid[worker] = tid
        cluster = next(
            (e.cluster for e in events if e.worker == worker and e.cluster), ""
        )
        label = f"w{worker:03d}" + (f" ({cluster})" if cluster else "")
        trace_events.extend(_thread_meta(pid, tid, label, tid))

    family_tid: dict[str, int] = {}
    families = sorted(
        {
            _FAMILY_TRACKS[e.kind]
            for e in events
            if e.kind in _FAMILY_TRACKS and e.worker < 0
        }
    )
    fam_base = base + len(worker_tid)
    for i, family in enumerate(families):
        tid = fam_base + i
        family_tid[family] = tid
        trace_events.extend(_thread_meta(pid, tid, family, tid))

    # Complete slices: each worker's start/end events paired by job id.
    for worker in snapshot.workers():
        for start, end, activity in _pairs(snapshot, worker):
            trace_events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": worker_tid[worker],
                    "ts": start.time * _US,
                    "dur": (end.time - start.time) * _US,
                    "name": activity,
                    "cat": "worker",
                    "args": {
                        "job_id": end.job_id,
                        "file_id": end.file_id,
                    },
                }
            )

    # Instant events on the owning track.
    for event in events:
        if event.kind in _PAIRS or event.kind in _ENDS:
            continue
        if event.worker >= 0 and event.kind not in _HEAD_KINDS:
            tid = worker_tid[event.worker]
            scope = "t"
        elif event.kind in _FAMILY_TRACKS:
            tid = family_tid[_FAMILY_TRACKS[event.kind]]
            scope = "t"
        elif event.cluster and event.kind not in _HEAD_KINDS:
            tid = master_tid[event.cluster]
            scope = "t"
        else:
            tid = 0
            scope = "p"
        args = {
            name: getattr(event, name)
            for name in ("cluster", "worker", "job_id", "file_id", "detail")
            if getattr(event, name) != getattr(_DEFAULTS, name)
        }
        trace_events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": tid,
                "ts": event.time * _US,
                "s": scope,
                "name": event.kind,
                "cat": "middleware",
                "args": args,
            }
        )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_perfetto(
    log: EventLog, path: str | Path, *, process_name: str = "repro-run"
) -> int:
    """Write the Perfetto JSON document; returns the trace-event count."""
    doc = to_perfetto(log, process_name=process_name)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return len(doc["traceEvents"])


# -- text report ------------------------------------------------------------


def render_report(
    log: EventLog,
    makespan: float | None = None,
    *,
    width: int = 72,
    show_critical_path: bool = False,
) -> str:
    """The plain-text run report: summary, Gantt chart, utilization table,
    per-phase span totals, and the straggler verdict.

    ``makespan`` defaults to the last event's timestamp, which is right
    for a trace read back from disk; pass the simulator's reported
    makespan when you have it. ``show_critical_path`` appends the causal
    chain gating the makespan (also: ``repro trace --critical-path``).
    """
    if makespan is None:
        makespan = log.makespan()
    if makespan <= 0 or not len(log):
        raise TraceError("cannot report on an empty trace")

    counts: dict[str, int] = {}
    for event in log.snapshot():
        counts[event.kind] = counts.get(event.kind, 0) + 1
    summary = "  ".join(f"{kind}={counts[kind]}" for kind in KINDS if kind in counts)

    lines = [
        f"{len(log)} events over {makespan:.3f}s "
        f"({len(log.workers())} workers)",
        summary,
        "",
        render_gantt(log, makespan, width=width),
        "",
        "worker  retrieval  processing   idle",
    ]
    util = utilization(log, makespan)
    for worker, parts in util.items():
        lines.append(
            f"w{worker:03d}    {parts['retrieval'] * 100:7.1f}%  "
            f"{parts['processing'] * 100:8.1f}%  {parts['idle'] * 100:5.1f}%"
        )
    if util:
        mean_idle = sum(p["idle"] for p in util.values()) / len(util)
        lines.append(f"mean worker idle fraction: {mean_idle * 100:.1f}%")

    # Zero-copy digest: the driver emits one `data_path` event per pass
    # summarizing how reads were served (views vs. materialized copies).
    data_path = log.of_kind("data_path")
    if data_path:
        lines.append("")
        lines.append("data path:")
        for event in data_path:
            lines.append(f"  {event.detail}")

    # Elastic-bursting timeline: every autoscaler decision, provisioned
    # slave, retirement, and spot revocation, in time order.
    scaling = [
        e
        for kind in ("scale_up", "scale_down", "provision", "revocation")
        for e in log.of_kind(kind)
    ]
    if scaling:
        scaling.sort(key=lambda e: e.time)
        added = sum(1 for e in scaling if e.kind == "provision")
        revoked = sum(1 for e in scaling if e.kind == "revocation")
        lines.append("")
        lines.append(
            f"scaling timeline ({added} slaves added, {revoked} revoked):"
        )
        for event in scaling:
            who = f" w{event.worker:03d}" if event.worker >= 0 else ""
            detail = f"  {event.detail}" if event.detail else ""
            lines.append(
                f"  {event.time:9.3f}s  {event.kind:<10}{who}{detail}"
            )

    spans = build_spans(log)
    if spans:
        totals = phase_totals(spans)
        lines.append("")
        lines.append(
            f"{len(spans)} job spans; per-phase seconds: "
            + "  ".join(
                f"{name}={totals[name]:.3f}" for name in PHASES if name in totals
            )
        )
        stolen = sum(1 for s in spans if s.stolen)
        reexec = sum(1 for s in spans if s.attempt > 1)
        if stolen or reexec:
            lines.append(
                f"{stolen} spans on stolen groups, {reexec} re-execution(s)"
            )
        lines.append(render_stragglers(detect_stragglers(log)))
        if show_critical_path:
            lines.append("")
            lines.append(render_critical_path(critical_path(log, makespan)))
    if getattr(log, "events_dropped", 0):
        # The kept count, not ``max_events``: a capped log read back from
        # JSONL is uncapped, and it must render the same.
        lines.append(
            f"warning: ring buffer dropped {log.events_dropped} oldest "
            f"events ({len(log)} kept)"
        )
    return "\n".join(lines)
