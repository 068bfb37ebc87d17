"""Tests for runtime telemetry and the exception hierarchy."""

from __future__ import annotations

import pytest

import repro.errors as errors
from repro.obs.record import ClusterReport
from repro.runtime.telemetry import RunTelemetry, Stopwatch


def test_stopwatch_accumulates():
    # Injected clock: intervals are exact, no real sleeping.
    now = [0.0]
    watch = Stopwatch(clock=lambda: now[0])
    with watch:
        now[0] = 0.25
    assert watch.total == pytest.approx(0.25)
    with watch:
        now[0] = 1.0
    assert watch.total == pytest.approx(1.0)


def _cluster(name: str, crew, stolen: int = 0, **stamps) -> ClusterReport:
    stamps = {"span": 10.0, "last_end": 8.0, "processing_end": 6.0,
              "combine_done": 7.0, "robj_arrival": 9.0, **stamps}
    return ClusterReport.from_crew(name, "local", crew, jobs_stolen=stolen, **stamps)


def test_cluster_aggregate_means():
    agg = _cluster("c", [(1.0, 2.0, 3), (3.0, 4.0, 5)], stolen=2)
    assert agg.jobs_processed == 8
    assert agg.jobs_stolen == 2
    assert agg.slaves == 2
    assert agg.mean_processing == pytest.approx(2.0)
    assert agg.mean_retrieval == pytest.approx(3.0)
    # The rest of the span is sync; the wait for the last cluster is idle.
    assert agg.sync == pytest.approx(5.0)
    assert agg.total == pytest.approx(10.0)
    assert agg.idle == pytest.approx(2.0)
    assert _cluster("c", [(1.0, 2.0, 3)], processing_end=8.5).idle == 0.0


def test_cluster_aggregate_empty_crew():
    agg = _cluster("c", [])
    assert (agg.slaves, agg.jobs_processed) == (0, 0)
    assert agg.mean_processing == agg.mean_retrieval == 0.0
    assert agg.sync == 10.0


def test_run_telemetry_totals():
    run = RunTelemetry(wall_seconds=1.5)
    run.clusters["a"] = _cluster("a", [(0.1, 0.2, 4), (0.1, 0.2, 6)], stolen=3)
    run.clusters["b"] = _cluster("b", [(0.1, 0.2, 6), (0.1, 0.2, 0)])
    assert run.total_jobs == 16
    assert run.total_stolen == 3
    assert run.slaves_failed == 0


# -- exception hierarchy ------------------------------------------------------


def test_every_error_is_a_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            if obj is errors.ReproError:
                continue
            assert issubclass(obj, errors.ReproError), name


def test_object_not_found_carries_key():
    exc = errors.ObjectNotFoundError("some/key")
    assert exc.key == "some/key"
    assert "some/key" in str(exc)
    assert isinstance(exc, errors.StorageError)


def test_worker_failure_is_catchable_as_repro_error():
    with pytest.raises(errors.ReproError):
        raise errors.WorkerFailure("node down")
