"""Tests for causal job spans and the critical path (repro.obs.spans)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import DatasetSpec
from repro.errors import TraceError
from repro.obs import (
    PHASES,
    EventLog,
    build_spans,
    critical_path,
    phase_totals,
    render_critical_path,
    span_summary,
    worker_intervals,
)


def cycle_log(*, prefetch: bool = False) -> EventLog:
    """Two chained cycles on worker 0, one on worker 1."""
    log = EventLog()
    log.record(0.1, "fetch_start", worker=0, job_id=1, file_id=0, cluster="a")
    log.record(0.3, "fetch_end", worker=0, job_id=1, file_id=0, cluster="a")
    log.record(0.35, "compute_start", worker=0, job_id=1, cluster="a")
    log.record(0.9, "compute_end", worker=0, job_id=1, cluster="a")
    if prefetch:  # second cycle through the pipeline: no fetch events
        log.record(1.1, "compute_start", worker=0, job_id=2, file_id=1,
                   cluster="a")
        log.record(1.6, "compute_end", worker=0, job_id=2, cluster="a")
    else:
        log.record(1.0, "fetch_start", worker=0, job_id=2, file_id=1,
                   cluster="a")
        log.record(1.1, "fetch_end", worker=0, job_id=2, file_id=1,
                   cluster="a")
        log.record(1.1, "compute_start", worker=0, job_id=2, cluster="a")
        log.record(1.6, "compute_end", worker=0, job_id=2, cluster="a")
    log.record(0.2, "fetch_start", worker=1, job_id=3, file_id=2, cluster="b")
    log.record(0.5, "fetch_end", worker=1, job_id=3, file_id=2, cluster="b")
    log.record(0.5, "compute_start", worker=1, job_id=3, cluster="b")
    log.record(1.2, "compute_end", worker=1, job_id=3, cluster="b")
    return log


def test_build_spans_chains_queued_from_per_worker():
    spans = build_spans(cycle_log())
    assert len(spans) == 3
    by_job = {s.job_id: s for s in spans}
    assert by_job[1].queued_from == 0.0
    assert by_job[2].queued_from == by_job[1].compute_end
    assert by_job[3].queued_from == 0.0  # other worker's first cycle
    assert by_job[1].cluster == "a" and by_job[3].cluster == "b"
    assert by_job[1].latency == pytest.approx(0.9)


def test_span_phases_tile_the_lifetime():
    for span in build_spans(cycle_log()):
        phases = span.phases
        assert [p.name for p in phases] == ["queued", "fetch", "stall", "compute"]
        assert phases[0].start == span.queued_from
        assert phases[-1].end == span.compute_end
        for left, right in zip(phases, phases[1:]):
            assert left.end == right.start  # non-overlapping, no gaps
        assert sum(p.duration for p in phases) == pytest.approx(span.latency)


def test_prefetch_cycle_gets_zero_width_fetch_anchored_at_compute():
    spans = build_spans(cycle_log(prefetch=True))
    piped = next(s for s in spans if s.job_id == 2)
    assert piped.fetch_start is None
    fetch = piped.phases[1]
    stall = piped.phases[2]
    assert fetch.name == "fetch" and fetch.duration == 0.0
    assert stall.name == "stall" and stall.duration == 0.0
    assert fetch.start == piped.compute_start
    assert piped.file_id == 1  # carried by compute_start in the pipeline
    # The queued phase absorbs the whole pre-compute wait.
    assert piped.phases[0].duration == pytest.approx(
        piped.compute_start - piped.queued_from
    )


def test_steal_events_mark_spans_stolen():
    log = cycle_log()
    log.record(0.05, "steal", cluster="b", file_id=2, detail="group 9 x1")
    spans = build_spans(log)
    assert [s.job_id for s in spans if s.stolen] == [3]


def test_steal_recorded_after_cycle_still_marks_span():
    """Threaded emission can log the steal after the stolen job's cycle
    has already completed; pairing is by (cluster, file), not order."""
    log = cycle_log()
    log.record(1.5, "steal", cluster="b", file_id=2, detail="group 9 x1")
    spans = build_spans(log)
    assert [s.job_id for s in spans if s.stolen] == [3]


def test_steal_for_other_cluster_does_not_match():
    log = cycle_log()
    log.record(0.05, "steal", cluster="a", file_id=2)  # file 2 ran on "b"
    assert not any(s.stolen for s in build_spans(log))


def test_reexecution_attempts_ordered_by_completion():
    log = cycle_log()
    # Job 1 runs again on worker 1 (recovered from a dead slave).
    log.record(1.3, "fetch_start", worker=1, job_id=1, file_id=0, cluster="b")
    log.record(1.4, "fetch_end", worker=1, job_id=1, file_id=0, cluster="b")
    log.record(1.4, "compute_start", worker=1, job_id=1, cluster="b")
    log.record(1.9, "compute_end", worker=1, job_id=1, cluster="b")
    spans = build_spans(log)
    attempts = sorted(
        (s.attempt, s.reexecution) for s in spans if s.job_id == 1
    )
    assert attempts == [(1, False), (2, True)]


def test_sole_cycle_of_reissued_job_is_a_reexecution():
    log = cycle_log()
    # The first try died before compute_end ever hit the log.
    log.record(0.8, "job_reexecuted", job_id=3, cluster="b")
    spans = build_spans(log)
    span = next(s for s in spans if s.job_id == 3)
    assert span.attempt == 1 and span.reexecution


def test_crashed_worker_leaves_its_open_intervals_behind():
    """At `slave_failed` the dead worker's open compute and in-flight
    prefetch are dropped; the prefetch may still end after it, and the
    worker id may run again (a later pass) without tripping the check."""
    log = EventLog()
    log.record(0.0, "fetch_start", worker=0, job_id=0, file_id=0)
    log.record(0.1, "fetch_end", worker=0, job_id=0, file_id=0)
    log.record(0.1, "compute_start", worker=0, job_id=0)
    log.record(0.15, "fetch_start", worker=0, job_id=1, file_id=1)
    log.record(0.2, "slave_failed", worker=0)
    log.record(0.25, "fetch_end", worker=0, job_id=1, file_id=1)
    log.record(1.0, "fetch_start", worker=0, job_id=0, file_id=0)
    log.record(1.1, "fetch_end", worker=0, job_id=0, file_id=0)
    log.record(1.1, "compute_start", worker=0, job_id=0)
    log.record(1.5, "compute_end", worker=0, job_id=0)
    assert [(iv.start, iv.end) for iv in worker_intervals(log, 0)] == [
        (0.0, 0.1), (1.0, 1.1), (1.1, 1.5),
    ]
    assert [(s.job_id, s.compute_start) for s in build_spans(log)] == [(0, 1.1)]
    # The same stream without the death is malformed.
    alive = EventLog(e for e in log.events if e.kind != "slave_failed")
    with pytest.raises(TraceError, match="worker 0: .* while processing still open"):
        build_spans(alive)


def test_compute_end_without_start_raises():
    log = EventLog()
    log.record(1.0, "compute_end", worker=0, job_id=1)
    with pytest.raises(TraceError, match="without a start"):
        build_spans(log)


def test_phase_totals_sum_per_phase():
    totals = phase_totals(build_spans(cycle_log()))
    assert set(totals) == {"queued", "fetch", "stall", "compute"}
    assert totals["compute"] == pytest.approx(0.55 + 0.5 + 0.7)
    assert totals["fetch"] == pytest.approx(0.2 + 0.1 + 0.3)


def full_run_log() -> EventLog:
    """A complete little run: jobs, combine, upload, merge."""
    log = cycle_log()
    log.record(1.7, "combine_done", cluster="a")
    log.record(1.9, "robj_sent", cluster="a")
    log.record(1.3, "combine_done", cluster="b")
    log.record(1.4, "robj_sent", cluster="b")
    log.record(2.0, "merge_done", cluster="a")
    return log


def test_critical_path_tiles_zero_to_makespan():
    log = full_run_log()
    segments = critical_path(log)
    assert segments[0].start == 0.0
    assert segments[-1].end == pytest.approx(log.makespan())
    for left, right in zip(segments, segments[1:]):
        assert left.end == pytest.approx(right.start)
    total = sum(s.duration for s in segments)
    assert total == pytest.approx(log.makespan())
    assert {s.phase for s in segments} <= set(PHASES)
    # The tail is the causal closing chain.
    assert [s.phase for s in segments[-3:]] == ["combine", "upload", "merge"]
    # The gating worker is the last compute_end in the sending cluster.
    assert segments[-3].worker == 0


def test_critical_path_rejects_empty_or_cycle_free_traces():
    with pytest.raises(TraceError, match="empty trace"):
        critical_path(EventLog())
    log = EventLog()
    log.record(1.0, "group_assigned", cluster="a")
    with pytest.raises(TraceError, match="no completed job cycles"):
        critical_path(log)


def test_render_critical_path_lists_chain_and_totals():
    text = render_critical_path(critical_path(full_run_log()))
    assert "critical path:" in text
    assert "per-phase totals on the path:" in text
    for name in ("compute", "upload", "merge"):
        assert name in text


def test_span_summary_plain_data():
    doc = span_summary(full_run_log())
    assert doc["jobs"] == 3
    assert doc["makespan"] == pytest.approx(2.0)
    assert set(doc["phase_seconds"]) == {"queued", "fetch", "stall", "compute"}
    path_seconds = sum(doc["critical_path_seconds"].values())
    assert path_seconds == pytest.approx(doc["makespan"])
    assert doc["stolen_jobs"] == 0 and doc["reexecutions"] == 0


def test_span_summary_empty_log_is_zeroes():
    doc = span_summary(EventLog())
    assert doc["jobs"] == 0
    assert doc["critical_path"] == []


# -- property suite: span phases always tile ---------------------------------

durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(durations, durations, durations, durations),
             min_size=1, max_size=8)
)
def test_span_phases_property(cycles):
    """For any realizable per-worker schedule: phases are ordered and
    non-overlapping, cover the span's lifetime exactly, and their
    durations sum to the end-to-end latency."""
    log = EventLog()
    t = 0.0
    for job_id, (queued, fetch, stall, compute) in enumerate(cycles):
        t += queued
        log.record(t, "fetch_start", worker=0, job_id=job_id, file_id=0,
                   cluster="c")
        t += fetch
        log.record(t, "fetch_end", worker=0, job_id=job_id, file_id=0,
                   cluster="c")
        t += stall
        log.record(t, "compute_start", worker=0, job_id=job_id, cluster="c")
        t += compute
        log.record(t, "compute_end", worker=0, job_id=job_id, cluster="c")
    spans = build_spans(log)
    assert len(spans) == len(cycles)
    previous_end = 0.0
    for span in spans:
        assert span.queued_from == previous_end  # chained per worker
        phases = span.phases
        assert [p.name for p in phases] == list(PHASES[:4])
        assert phases[0].start == span.queued_from
        assert phases[-1].end == span.compute_end
        for left, right in zip(phases, phases[1:]):
            assert left.end == right.start
            assert right.duration >= 0.0
        assert math.isclose(
            sum(p.duration for p in phases), span.latency,
            rel_tol=1e-9, abs_tol=1e-9,
        )
        previous_end = span.compute_end


# -- cross-substrate acceptance ----------------------------------------------


def _traced_run(mode: str) -> EventLog:
    trace = EventLog()
    dataset = DatasetSpec(
        total_bytes=2048 * 4, num_files=4, chunk_bytes=512, record_bytes=4
    )
    repro.run("wordcount", dataset, repro.RunConfig(mode=mode, trace=trace))
    return trace


def test_both_substrates_produce_identical_span_vocabulary():
    """The acceptance criterion: a simulated and a real run of the same
    app yield critical paths over the same phase vocabulary, each tiling
    its makespan to within 1%."""
    vocabularies = {}
    for mode in ("simulate", "runtime"):
        trace = _traced_run(mode)
        segments = critical_path(trace)
        makespan = trace.makespan()
        total = sum(s.duration for s in segments)
        assert abs(total - makespan) <= 0.01 * makespan, mode
        assert segments[0].start == 0.0
        assert segments[-1].end == pytest.approx(makespan)
        vocabularies[mode] = {s.phase for s in segments}
        spans = build_spans(trace)
        assert len(spans) == 16  # one per chunk job
        assert {p.name for s in spans for p in s.phases} == set(PHASES[:4])
    assert vocabularies["simulate"] == vocabularies["runtime"]
    assert vocabularies["runtime"] <= set(PHASES)
    assert {"compute", "merge"} <= vocabularies["runtime"]
