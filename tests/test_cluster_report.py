"""One per-cluster record for both engines.

``ClusterReport`` is the ``clusters`` entry of the simulator's
``SimReport`` and of the runtime's ``RunTelemetry``; both check it with
the one ``PassRecord.validate``. The runtime fills every field from
stamps on the clock its slave stopwatches use, so the paper's split —
processing + retrieval + sync = the pass, idle <= sync — holds by
construction on every substrate, topology and failure path, with no
timing assumption.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

import repro
from repro.config import ComputeSpec, DatasetSpec, PlacementSpec
from repro.data.dataset import build_dataset
from repro.errors import DataFormatError, SimulationError, WorkerFailure
from repro.obs.record import ClusterReport
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.telemetry import RunTelemetry
from repro.sim.metrics import SimReport
from repro.storage.objectstore import ObjectStore

# -- validate(): every branch, on both record classes -------------------------

SPAN = 10.0
GOOD = ClusterReport(
    "c", "local", 2, 8, 1, mean_processing=3.0, mean_retrieval=2.0, sync=5.0,
    processing_end=6.0, combine_done=7.0, robj_arrival=8.0, idle=0.0,
)


def _sim(cluster: ClusterReport, global_reduction: float = 0.5) -> SimReport:
    return SimReport("env", "knn", SPAN, global_reduction, {cluster.name: cluster})


def _run(cluster: ClusterReport) -> RunTelemetry:
    return RunTelemetry(wall_seconds=SPAN, clusters={cluster.name: cluster})


BROKEN = {
    "negative processing": (replace(GOOD, mean_processing=-1.0, sync=9.0),
                            "negative time category"),
    "negative retrieval": (replace(GOOD, mean_retrieval=-1.0, sync=8.0),
                           "negative time category"),
    "negative sync": (replace(GOOD, mean_processing=6.0, sync=-1.0,
                              processing_end=9.0), "negative sync"),
    "processing past the span": (replace(GOOD, processing_end=SPAN + 1.0),
                                 "finished after the"),
    "bar total off the span": (replace(GOOD, sync=5.5), "bar total"),
}
CASES = [
    pytest.param(make, lambda make=make, cluster=cluster: make(cluster), match,
                 id=f"{record}-{case}")
    for make, record in ((_sim, "SimReport"), (_run, "RunTelemetry"))
    for case, (cluster, match) in BROKEN.items()
] + [
    pytest.param(_sim, lambda: _sim(GOOD, global_reduction=-1.0),
                 "global reduction", id="SimReport-negative global reduction"),
]


@pytest.mark.parametrize("make, broken, match", CASES)
def test_validate_rejects_each_broken_record(make, broken, match):
    make(GOOD).validate()  # the base record is consistent
    record = broken()
    with pytest.raises(record._error, match=match):
        record.validate()
    assert record._error is {_sim: SimulationError, _run: DataFormatError}[make]


# -- the runtime fills the split ----------------------------------------------

UNITS, CHUNKS = 4096, 16


class _SchedulerSpy:
    """Records every ``HeadScheduler`` a pass builds."""

    def __init__(self, monkeypatch) -> None:
        self.built = []
        real = repro.runtime.driver.HeadScheduler

        def spy(*args, **kwargs):
            self.built.append(real(*args, **kwargs))
            return self.built[-1]

        monkeypatch.setattr("repro.runtime.driver.HeadScheduler", spy)


def _crash_first_job():
    """A fault hook that crashes whichever slave reaches a job first."""
    lock, fired = threading.Lock(), []

    def hook(slave_id, job):
        with lock:
            if fired:
                return
            fired.append(slave_id)
        raise WorkerFailure(f"injected crash of slave {slave_id}")

    return hook


def _runtime(slave_mode, sync, fault_hook=None) -> CloudBurstingRuntime:
    bundle = repro.make_bundle("kmeans", UNITS)
    rb = bundle.schema.record_bytes
    stores = {"local": ObjectStore(), "cloud": ObjectStore()}
    index = build_dataset(
        DatasetSpec(total_bytes=UNITS * rb, num_files=4,
                    chunk_bytes=UNITS // CHUNKS * rb, record_bytes=rb),
        PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores,
    )
    return CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        sync=sync, slave_mode=slave_mode, fault_hook=fault_hook,
        join_timeout=60.0,
    )


SYNCS = {
    "star": None,
    "tree": repro.SyncSpec(topology="tree"),
    "tree+stream": repro.SyncSpec(topology="tree", stream=True, watermark=2),
}
RUNS = [
    pytest.param(mode, topology, False, id=f"{mode}-{topology}")
    for mode in ("thread", "process")
    for topology in SYNCS
] + [pytest.param("thread", "star", True, id="thread-star-crash")]


@pytest.mark.parametrize("slave_mode, topology, crash", RUNS)
def test_runtime_fills_the_paper_split(slave_mode, topology, crash, monkeypatch):
    spy = _SchedulerSpy(monkeypatch)
    runtime = _runtime(
        slave_mode, SYNCS[topology], _crash_first_job() if crash else None
    )
    passes = [runtime.run().telemetry for _ in range(2)]
    assert len(spy.built) == len(passes)
    for telemetry, scheduler in zip(passes, spy.built):
        telemetry.validate()
        wall = telemetry.wall_seconds
        clusters = telemetry.clusters.values()
        assert {c.name for c in clusters} == {"local-cluster", "cloud-cluster"}
        for c in clusters:
            assert 0 <= c.processing_end <= c.combine_done <= c.robj_arrival <= wall
            assert c.mean_processing + c.mean_retrieval + c.sync == pytest.approx(
                wall, rel=1e-9
            )
            assert 0 <= c.idle <= c.sync + 1e-9
            stats = scheduler.clusters[c.name]
            assert c.jobs_stolen == stats.jobs_stolen
            if not telemetry.slaves_failed:
                assert c.jobs_processed == stats.jobs_assigned
        # The last cluster to finish processing waited for nobody.
        assert min(c.idle for c in clusters) == 0
    # The injected crash fires once, in the first pass.
    assert [t.slaves_failed for t in passes] == ([1, 0] if crash else [0, 0])
    assert passes[-1].total_jobs == CHUNKS
