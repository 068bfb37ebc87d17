"""Tests for the shared event log (repro.obs.events)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import SimulationError, TraceError
from repro.obs import (
    KINDS,
    RUNTIME_KINDS,
    SIM_KINDS,
    EventLog,
    TraceEvent,
)


def test_vocabulary_is_sim_plus_runtime():
    assert KINDS == SIM_KINDS + RUNTIME_KINDS
    assert "fetch_start" in SIM_KINDS
    for kind in ("steal", "slave_failed", "job_reexecuted", "remote_fetch"):
        assert kind in RUNTIME_KINDS


def test_record_and_queries():
    log = EventLog()
    log.record(0.0, "fetch_start", worker=1, job_id=7, file_id=2)
    log.record(1.0, "fetch_end", worker=1, job_id=7, file_id=2)
    log.record(1.5, "group_assigned", cluster="c")
    assert len(log) == 3
    assert log.workers() == [1]
    assert [e.kind for e in log.for_worker(1)] == ["fetch_start", "fetch_end"]
    assert len(log.of_kind("group_assigned")) == 1
    assert log.makespan() == 1.5
    assert EventLog().makespan() == 0.0


def test_unknown_kind_rejected_as_simulation_error():
    log = EventLog()
    with pytest.raises(TraceError):
        log.record(0.0, "nonsense")
    # Backward compatibility: callers that catch SimulationError still work.
    with pytest.raises(SimulationError):
        log.record(0.0, "nonsense")


def test_emit_stamps_monotonic_relative_time():
    log = EventLog()
    log.start()
    log.emit("fetch_start", worker=0)
    log.emit("fetch_end", worker=0)
    a, b = log.events
    assert 0.0 <= a.time <= b.time
    assert b.time < 5.0  # relative to origin, not an absolute clock


def test_emit_without_start_sets_origin():
    log = EventLog()
    log.emit("job_done", worker=0)
    assert log.events[0].time >= 0.0
    assert log.events[0].time < 5.0


def test_origin_is_sticky_across_starts():
    log = EventLog()
    log.start()
    log.emit("job_done", worker=0)
    first = log.events[0].time
    log.start()  # second start must not reset the origin
    log.emit("job_done", worker=0)
    assert log.events[1].time >= first


def test_concurrent_emission_is_safe():
    log = EventLog()
    log.start()
    per_thread = 500

    def worker(wid: int) -> None:
        for i in range(per_thread):
            log.emit("job_done", worker=wid, job_id=i)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(log) == 8 * per_thread
    assert log.workers() == list(range(8))
    for wid in range(8):
        mine = log.for_worker(wid)
        assert len(mine) == per_thread
        # Each thread's own events appear in its emission order.
        assert [e.job_id for e in mine] == list(range(per_thread))


def test_snapshot_is_a_copy():
    log = EventLog()
    log.record(0.0, "job_done", worker=0)
    snap = log.snapshot()
    log.record(1.0, "job_done", worker=0)
    assert len(snap) == 1 and len(log) == 2


def test_construct_from_events():
    events = [TraceEvent(time=0.5, kind="steal", cluster="c", file_id=3)]
    log = EventLog(events)
    assert len(log) == 1
    assert log.of_kind("steal")[0].file_id == 3


def test_unbounded_by_default():
    log = EventLog()
    for i in range(100):
        log.record(float(i), "job_done", worker=0, job_id=i)
    assert len(log) == 100
    assert log.events_dropped == 0


def test_ring_buffer_drops_oldest_and_counts():
    log = EventLog(max_events=4)
    for i in range(10):
        log.record(float(i), "job_done", worker=0, job_id=i)
    assert len(log) == 4
    assert [e.job_id for e in log.events] == [6, 7, 8, 9]
    assert log.events_dropped == 6
    # Queries see only the retained window.
    assert log.makespan() == 9.0
    assert len(log.of_kind("job_done")) == 4


def test_ring_buffer_applies_to_seed_events():
    seed = [
        TraceEvent(time=float(i), kind="job_done", worker=0, job_id=i)
        for i in range(6)
    ]
    log = EventLog(seed, max_events=4)
    assert len(log) == 4
    assert [e.job_id for e in log.events] == [2, 3, 4, 5]
    assert log.events_dropped == 2


def test_ring_capacity_must_be_positive():
    with pytest.raises(TraceError):
        EventLog(max_events=0)
    with pytest.raises(TraceError):
        EventLog(max_events=-5)
