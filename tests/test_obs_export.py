"""Tests for the trace exporters (repro.obs.export)."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceError
from repro.obs import (
    EventLog,
    TraceEvent,
    event_to_dict,
    read_jsonl,
    render_report,
    to_perfetto,
    write_jsonl,
    write_perfetto,
)


def sample_log() -> EventLog:
    log = EventLog()
    log.record(0.0, "group_assigned", cluster="local-cluster", file_id=0,
               detail="group 0 x4")
    log.record(0.1, "fetch_start", cluster="local-cluster", worker=0,
               job_id=1, file_id=0)
    log.record(0.4, "fetch_end", cluster="local-cluster", worker=0,
               job_id=1, file_id=0)
    log.record(0.4, "compute_start", cluster="local-cluster", worker=0, job_id=1)
    log.record(0.9, "compute_end", cluster="local-cluster", worker=0, job_id=1)
    log.record(0.9, "job_done", cluster="local-cluster", worker=0, job_id=1)
    log.record(1.0, "steal", cluster="cloud-cluster", file_id=0, detail="x2")
    log.record(1.2, "combine_done", cluster="local-cluster")
    log.record(1.3, "robj_sent", cluster="local-cluster")
    log.record(1.4, "group_acked", cluster="local-cluster", detail="group 0")
    log.record(1.5, "merge_done", cluster="local-cluster")
    return log


def test_event_to_dict_omits_defaults():
    doc = event_to_dict(TraceEvent(time=1.0, kind="job_done", worker=3))
    assert doc == {"time": 1.0, "kind": "job_done", "worker": 3}


def test_jsonl_round_trip(tmp_path):
    log = sample_log()
    path = tmp_path / "trace.jsonl"
    count = write_jsonl(log, path)
    assert count == len(log)
    back = read_jsonl(path)
    assert back.events == log.events
    # Every line is standalone JSON.
    for line in path.read_text().splitlines():
        json.loads(line)


def test_read_jsonl_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(TraceError, match="bad trace line"):
        read_jsonl(bad)
    bad.write_text('{"time": 0.0, "kind": "galactic_flare"}\n')
    with pytest.raises(TraceError, match="unknown event kind"):
        read_jsonl(bad)
    bad.write_text('{"time": 0.0, "kind": "job_done", "nope": 1}\n')
    with pytest.raises(TraceError):
        read_jsonl(bad)
    bad.write_text('{"schema": 2, "events_dropped": 0}\n')
    with pytest.raises(TraceError, match="unsupported trace schema"):
        read_jsonl(bad)


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"time": 0.0, "kind": "job_done", "worker": 0}\n\n')
    back = read_jsonl(path)
    assert len(back) == 1
    assert back.events_dropped == 0  # no header: a complete log


def test_perfetto_structure():
    doc = to_perfetto(sample_log())
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    # Metadata names one head track, two master tracks, one worker track.
    names = [e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "head" in names
    assert "master:local-cluster" in names and "master:cloud-cluster" in names
    assert any(n.startswith("w000") for n in names)
    # The paired fetch/compute become complete slices with µs timestamps.
    slices = [e for e in events if e["ph"] == "X"]
    assert {s["name"] for s in slices} == {"retrieval", "processing"}
    retrieval = next(s for s in slices if s["name"] == "retrieval")
    assert retrieval["ts"] == pytest.approx(0.1e6)
    assert retrieval["dur"] == pytest.approx(0.3e6)
    assert retrieval["args"]["job_id"] == 1
    # Instants cover the control-plane events.
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert {"group_assigned", "steal", "combine_done", "robj_sent",
            "group_acked", "merge_done", "job_done"} <= instants
    # head-owned kinds land on tid 0.
    acked = next(e for e in events if e["ph"] == "i" and e["name"] == "group_acked")
    assert acked["tid"] == 0
    # The whole document serializes.
    json.dumps(doc)


def test_perfetto_family_tracks():
    """Worker-less events from the resilience/cache/storage families get
    their own named tracks instead of vanishing onto the head track."""
    log = sample_log()
    log.record(0.2, "retry", cluster="local-cluster", file_id=0,
               detail="attempt 2")
    log.record(0.25, "fault_injected", cluster="local-cluster", file_id=0)
    log.record(0.3, "cache_miss", file_id=0)
    log.record(0.6, "cache_hit", file_id=0)
    log.record(0.2, "remote_fetch", cluster="cloud-cluster", file_id=0)
    doc = to_perfetto(log)
    events = doc["traceEvents"]
    tracks = {
        e["args"]["name"]: e["tid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"resilience", "cache", "storage"} <= set(tracks)
    for kind, family in (("retry", "resilience"), ("cache_hit", "cache"),
                         ("remote_fetch", "storage")):
        instant = next(e for e in events if e["ph"] == "i" and e["name"] == kind)
        assert instant["tid"] == tracks[family]
        assert instant["s"] == "t"  # thread-scoped, not process-wide


def test_perfetto_family_kind_with_worker_stays_on_worker_track():
    log = sample_log()
    log.record(0.2, "remote_fetch", worker=0, file_id=0,
               cluster="local-cluster")
    doc = to_perfetto(log)
    events = doc["traceEvents"]
    tracks = {
        e["args"]["name"]: e["tid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "storage" not in tracks  # no worker-less family events
    instant = next(e for e in events if e["ph"] == "i"
                   and e["name"] == "remote_fetch")
    worker_tid = next(tid for name, tid in tracks.items()
                      if name.startswith("w000"))
    assert instant["tid"] == worker_tid


def test_write_perfetto(tmp_path):
    path = tmp_path / "trace.json"
    count = write_perfetto(sample_log(), path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count


def test_perfetto_rejects_malformed_pairs():
    log = EventLog()
    log.record(0.0, "fetch_start", worker=0)
    with pytest.raises(TraceError):
        to_perfetto(log)


def test_render_report_contains_gantt_and_utilization():
    report = render_report(sample_log(), width=20)
    assert "events over" in report
    assert "r" in report and "P" in report
    assert "w000" in report
    assert "mean worker idle fraction" in report
    assert "fetch_start=1" in report


def test_render_report_defaults_makespan_to_last_event():
    report = render_report(sample_log())
    assert "over 1.500s" in report


def test_render_report_rejects_empty_trace():
    with pytest.raises(TraceError):
        render_report(EventLog())


def test_render_report_includes_spans_and_stragglers():
    report = render_report(sample_log())
    assert "job spans; per-phase seconds:" in report
    assert "straggler detector" in report


def test_render_report_optional_critical_path():
    plain = render_report(sample_log())
    assert "critical path" not in plain
    with_path = render_report(sample_log(), show_critical_path=True)
    assert "critical path:" in with_path


def test_render_report_warns_about_dropped_events(tmp_path):
    log = EventLog(max_events=6)
    for event in sample_log().events:
        log.record(event.time, event.kind, cluster=event.cluster,
                   worker=event.worker, job_id=event.job_id,
                   file_id=event.file_id, detail=event.detail)
    assert log.events_dropped > 0
    report = render_report(log)
    assert "ring buffer dropped" in report
    assert f"{log.events_dropped} oldest" in report

    # A cap that cuts a fetch pair and a compute pair in half: the ends
    # whose starts fell off are skipped, and the rest still pairs.
    cut = EventLog(max_events=6)
    cut.record(0.0, "compute_start", worker=0, job_id=0)
    cut.record(0.1, "fetch_start", worker=0, job_id=1, file_id=1)
    cut.record(0.3, "compute_end", worker=0, job_id=0)
    cut.record(0.35, "fetch_end", worker=0, job_id=1, file_id=1)
    cut.record(0.35, "compute_start", worker=0, job_id=1)
    cut.record(0.8, "compute_end", worker=0, job_id=1)
    cut.record(0.8, "fetch_start", worker=0, job_id=2, file_id=2)
    cut.record(0.9, "fetch_end", worker=0, job_id=2, file_id=2)
    assert cut.events_dropped == 2
    report = render_report(cut)
    assert "1 job spans" in report
    assert "ring buffer dropped 2 oldest" in report
    # The JSONL header carries the loss, so the file renders the same.
    path = tmp_path / "cut.jsonl"
    write_jsonl(cut, path)
    back = read_jsonl(path)
    assert back.events_dropped == 2
    assert render_report(back) == report
