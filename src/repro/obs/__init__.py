"""Unified observability layer shared by the simulator and the runtime.

One event vocabulary, one analysis toolkit, one set of exporters — so a
simulated run and a real :class:`~repro.runtime.driver.CloudBurstingRuntime`
run render identically (Gantt charts, utilization tables, Perfetto
timelines, causal job spans, critical paths, live run-health samples).
See ``docs/OBSERVABILITY.md`` for the event schema and the export
formats.
"""

from .anomaly import detect_stragglers, render_stragglers
from .events import KINDS, RUNTIME_KINDS, SIM_KINDS, EventLog, TraceEvent
from .export import (
    event_to_dict,
    read_jsonl,
    render_report,
    to_perfetto,
    write_jsonl,
    write_perfetto,
)
from .live import RunMonitor, RunSample
from .spans import (
    PHASES,
    build_spans,
    critical_path,
    phase_totals,
    render_critical_path,
    render_gantt,
    span_summary,
    utilization,
    worker_intervals,
)

__all__ = [
    "KINDS",
    "SIM_KINDS",
    "RUNTIME_KINDS",
    "TraceEvent",
    "EventLog",
    "worker_intervals",
    "utilization",
    "render_gantt",
    "event_to_dict",
    "write_jsonl",
    "read_jsonl",
    "to_perfetto",
    "write_perfetto",
    "render_report",
    "PHASES",
    "build_spans",
    "phase_totals",
    "critical_path",
    "render_critical_path",
    "span_summary",
    "RunSample",
    "RunMonitor",
    "detect_stragglers",
    "render_stragglers",
]
