"""Tests for runtime telemetry and the exception hierarchy."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.errors as errors
from repro.core.slave import SlaveCore
from repro.obs.record import cluster_reports
from repro.obs.record import RunTelemetry


def _cluster(name: str, crew, stolen: int = 0, processing_end: float = 6.0,
             origin: float = 0.0):
    """``name``'s entry from :func:`cluster_reports` over a 10 s span,
    beside a cluster that finished processing at 8 s; ``crew`` holds one
    ``(processing, retrieval, jobs)`` ledger per slave, and every stamp is
    taken on a clock that read ``origin`` when the pass started."""
    cores = []
    for processing, retrieval, jobs in crew:
        core = SlaveCore(len(cores))
        core.processing, core.retrieval, core.reduced = processing, retrieval, jobs
        cores.append(core)
    masters = [
        SimpleNamespace(name=name, site="local", combine_done=origin + 7.0,
                        core=SimpleNamespace(processing_end=origin + processing_end)),
        SimpleNamespace(name="last", site="cloud", combine_done=origin + 8.5,
                        core=SimpleNamespace(processing_end=origin + 8.0)),
    ]
    scheduler = SimpleNamespace(clusters={
        name: SimpleNamespace(jobs_stolen=stolen),
        "last": SimpleNamespace(jobs_stolen=0),
    })
    return cluster_reports(
        masters, {name: cores, "last": []}, scheduler,
        {name: origin + 9.0, "last": origin + 9.5}, span=10.0, origin=origin,
    )[name]


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
    assert (agg.processing_end, agg.combine_done, agg.robj_arrival) == (6.0, 7.0, 9.0)
    assert _cluster("c", [(1.0, 2.0, 3)], processing_end=8.5).idle == 0.0
    # Stamps are read relative to the pass's origin.
    crew = [(1.0, 2.0, 3)]
    assert _cluster("c", crew, origin=100.0) == _cluster("c", crew)


def test_cluster_aggregate_empty_crew():
    agg = _cluster("c", [])
    assert (agg.slaves, agg.jobs_processed) == (0, 0)
    assert agg.mean_processing == agg.mean_retrieval == 0.0
    assert agg.sync == 10.0


def test_run_telemetry_totals():
    run = RunTelemetry(makespan=1.5)
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
