"""Tests for simulator tracing and the timeline analyses built on it."""

from __future__ import annotations

import pytest

from repro.bench.configs import env_config
from repro.errors import SimulationError
from repro.obs import EventLog, render_gantt, utilization, worker_intervals
from repro.sim.simulation import CloudBurstSimulation

SCALE = 0.03


@pytest.fixture(scope="module")
def traced_run():
    trace = EventLog()
    config = env_config("knn", "env-50/50", scale=SCALE)
    report = CloudBurstSimulation(config, trace=trace).run()
    return trace, report


def test_trace_event_counts(traced_run):
    trace, report = traced_run
    # One fetch and one compute interval per processed job.
    assert len(trace.of_kind("fetch_start")) == 960
    assert len(trace.of_kind("fetch_end")) == 960
    assert len(trace.of_kind("compute_start")) == 960
    assert len(trace.of_kind("job_done")) == 960
    # Two clusters combine, ship, and get merged.
    assert len(trace.of_kind("combine_done")) == 2
    assert len(trace.of_kind("robj_sent")) == 2
    assert len(trace.of_kind("merge_done")) == 2
    # Group assignments equal head exchanges that returned work.
    assigned = trace.of_kind("group_assigned")
    assert sum(int(e.detail.split("x")[1]) for e in assigned) == 960
    # Every assigned group is eventually acknowledged.
    assert len(trace.of_kind("group_acked")) == len(assigned)


def test_trace_times_ordered_and_within_makespan(traced_run):
    trace, report = traced_run
    times = [e.time for e in trace.events]
    assert all(t >= 0 for t in times)
    assert max(times) <= report.makespan + 1e-6


def test_worker_intervals_alternate_and_nest(traced_run):
    trace, report = traced_run
    workers = trace.workers()
    assert len(workers) == 32  # 16 + 16 cores
    for worker in workers[:4]:
        intervals = worker_intervals(trace, worker)
        assert intervals, f"worker {worker} did nothing"
        # Intervals are disjoint and ordered; activities alternate r, P, r, P...
        for a, b in zip(intervals, intervals[1:]):
            assert a.end <= b.start + 1e-9
        assert [iv.activity for iv in intervals[:2]] == ["retrieval", "processing"]


def test_utilization_sums_to_one(traced_run):
    trace, report = traced_run
    util = utilization(trace, report.makespan)
    assert set(util) == set(trace.workers())
    for worker, parts in util.items():
        total = parts["retrieval"] + parts["processing"] + parts["idle"]
        assert total == pytest.approx(1.0, abs=1e-6)
        assert parts["retrieval"] > 0 and parts["processing"] > 0
    # knn: retrieval dominates processing for every worker.
    assert all(p["retrieval"] > p["processing"] for p in util.values())


def test_utilization_matches_report_means(traced_run):
    trace, report = traced_run
    util = utilization(trace, report.makespan)
    # Cross-check: mean worker processing fraction x makespan equals the
    # report's per-cluster mean processing (averaged over both clusters).
    mean_proc_trace = (
        sum(p["processing"] for p in util.values()) / len(util) * report.makespan
    )
    mean_proc_report = sum(
        c.mean_processing * c.slaves for c in report.clusters.values()
    ) / sum(c.slaves for c in report.clusters.values())
    assert mean_proc_trace == pytest.approx(mean_proc_report, rel=1e-6)


def test_render_gantt(traced_run):
    trace, report = traced_run
    chart = render_gantt(trace, report.makespan, width=40)
    lines = chart.splitlines()
    assert len(lines) == 1 + 32
    assert "r" in chart and "P" in chart
    for line in lines[1:]:
        assert len(line) == len("w000 |") + 40 + 1


def test_trace_validation():
    trace = EventLog()
    with pytest.raises(SimulationError):
        trace.record(0.0, "not-a-kind")
    # Malformed interval streams are rejected.
    bad = EventLog()
    bad.record(1.0, "fetch_end", worker=0)
    with pytest.raises(SimulationError, match="without a start"):
        worker_intervals(bad, 0)
    bad2 = EventLog()
    bad2.record(0.0, "fetch_start", worker=0)
    bad2.record(1.0, "compute_start", worker=0)
    with pytest.raises(SimulationError, match="still open"):
        worker_intervals(bad2, 0)
    bad3 = EventLog()
    bad3.record(0.0, "fetch_start", worker=0)
    with pytest.raises(SimulationError, match="mid-retrieval"):
        worker_intervals(bad3, 0)
    with pytest.raises(SimulationError):
        utilization(EventLog(), 0.0)
    with pytest.raises(SimulationError):
        render_gantt(EventLog(), 1.0, width=0)


def test_empty_trace_has_no_workers_or_intervals():
    empty = EventLog()
    assert empty.workers() == []
    assert worker_intervals(empty, 0) == []
    # A worker absent from the trace simply has no intervals.
    lone = EventLog()
    lone.record(0.0, "fetch_start", worker=3)
    lone.record(0.5, "fetch_end", worker=3)
    assert worker_intervals(lone, 7) == []


def test_render_gantt_width_one():
    trace = EventLog()
    trace.record(0.0, "fetch_start", worker=0)
    trace.record(0.4, "fetch_end", worker=0)
    trace.record(0.4, "compute_start", worker=0)
    trace.record(1.0, "compute_end", worker=0)
    chart = render_gantt(trace, 1.0, width=1)
    lines = chart.splitlines()
    assert len(lines) == 2
    # The single cell shows the dominant activity (processing: 0.6 vs 0.4).
    assert lines[1] == "w000 |P|"


def test_worker_intervals_sorts_out_of_order_events():
    # Threaded emission can append events out of timestamp order; the
    # pairing must sort by time first instead of rejecting the stream.
    trace = EventLog()
    trace.record(0.4, "compute_start", worker=0)
    trace.record(0.1, "fetch_start", worker=0)
    trace.record(0.9, "compute_end", worker=0)
    trace.record(0.4, "fetch_end", worker=0)
    intervals = worker_intervals(trace, 0)
    assert [(iv.activity, iv.start, iv.end) for iv in intervals] == [
        ("retrieval", 0.1, 0.4),
        ("processing", 0.4, 0.9),
    ]


def test_utilization_with_zero_interval_worker():
    # A worker whose start and end coincide is fully idle, not an error.
    trace = EventLog()
    trace.record(0.5, "fetch_start", worker=0)
    trace.record(0.5, "fetch_end", worker=0)
    trace.record(0.0, "fetch_start", worker=1)
    trace.record(1.0, "fetch_end", worker=1)
    util = utilization(trace, 1.0)
    assert util[0]["retrieval"] == 0.0
    assert util[0]["idle"] == pytest.approx(1.0)
    assert util[1]["retrieval"] == pytest.approx(1.0)


def test_disabled_trace_changes_nothing():
    config = env_config("knn", "env-50/50", scale=SCALE)
    plain = CloudBurstSimulation(config).run()
    traced = CloudBurstSimulation(config, trace=EventLog()).run()
    assert plain.makespan == traced.makespan
    assert plain.events_processed == traced.events_processed
