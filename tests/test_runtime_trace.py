"""Runtime observability: real runs produce valid, exportable traces.

The acceptance bar for the unified observability layer: a real
:class:`CloudBurstingRuntime` run with tracing enabled yields a JSONL
event log and a Perfetto-loadable ``trace_event`` document, and the
shared timeline analyses (`worker_intervals`/`utilization`/`render_gantt`)
accept that log and validate it — paired start/end events, no overlaps —
for at least two applications.
"""

from __future__ import annotations

import json
import threading
from unittest import mock

import pytest

import repro
from repro.apps import make_bundle
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import iterate_passes
from repro.core.slave import SlaveCore
from repro.data.dataset import build_dataset
from repro.errors import RuntimeTimeoutError, WorkerFailure
from repro.obs import (
    EventLog,
    MetricsRegistry,
    build_spans,
    read_jsonl,
    render_gantt,
    render_report,
    to_perfetto,
    utilization,
    worker_intervals,
    write_jsonl,
)
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.head import HeadNode
from repro.runtime.telemetry import RunTelemetry
from repro.storage.objectstore import ObjectStore

TOTAL_UNITS = 1024
FILES = 4
CHUNKS_PER_FILE = 4
UNITS_PER_CHUNK = TOTAL_UNITS // (FILES * CHUNKS_PER_FILE)
NUM_JOBS = FILES * CHUNKS_PER_FILE


def materialize(app_key, local_fraction=0.5, **bundle_params):
    bundle = make_bundle(app_key, TOTAL_UNITS, **bundle_params)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=TOTAL_UNITS * rb,
        num_files=FILES,
        chunk_bytes=UNITS_PER_CHUNK * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def traced_run(app_key, *, local_fraction=0.5, metrics=None, **bundle_params):
    bundle, index, stores = materialize(
        app_key, local_fraction=local_fraction, **bundle_params
    )
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        trace=log, metrics=metrics,
    )
    return runtime.run(), log


def assert_valid_trace(log: EventLog, jobs: int = NUM_JOBS) -> None:
    """The acceptance checks: counts, pairing, no overlaps, renderable."""
    assert len(log.of_kind("fetch_start")) == jobs
    assert len(log.of_kind("fetch_end")) == jobs
    assert len(log.of_kind("compute_start")) == jobs
    assert len(log.of_kind("compute_end")) == jobs
    assert len(log.of_kind("job_done")) == jobs
    assert len(log.of_kind("combine_done")) == 2
    assert len(log.of_kind("robj_sent")) == 2
    assert len(log.of_kind("merge_done")) == 2
    makespan = log.makespan()
    assert makespan > 0
    for worker in log.workers():
        intervals = worker_intervals(log, worker)  # raises if unpaired
        for a, b in zip(intervals, intervals[1:]):
            assert a.end <= b.start + 1e-9, "overlapping intervals"
    util = utilization(log, makespan)
    assert set(util) == set(log.workers())
    for parts in util.values():
        total = parts["retrieval"] + parts["processing"] + parts["idle"]
        assert total == pytest.approx(1.0, abs=1e-6)
    chart = render_gantt(log, makespan, width=40)
    assert len(chart.splitlines()) == 1 + len(log.workers())


@pytest.mark.parametrize(
    "app_key,params",
    [("wordcount", {"vocabulary": 64}), ("kmeans", {"dims": 2, "k": 4})],
)
def test_traced_run_validates_and_exports(app_key, params, tmp_path):
    result, log = traced_run(app_key, **params)
    assert result.telemetry.total_jobs == NUM_JOBS
    assert_valid_trace(log)

    # JSONL export round-trips and still validates.
    jsonl = tmp_path / f"{app_key}.jsonl"
    write_jsonl(log, jsonl)
    back = read_jsonl(jsonl)
    assert_valid_trace(back)

    # Perfetto document is loadable JSON with one slice per busy interval.
    doc = to_perfetto(back)
    json.loads(json.dumps(doc))
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    expected = sum(len(worker_intervals(back, w)) for w in back.workers())
    assert len(slices) == expected
    assert all(s["dur"] >= 0 for s in slices)

    # The text report renders from the same stream.
    report = render_report(back)
    assert "mean worker idle fraction" in report


def assert_prefetch_trace_consumers(log: EventLog, spans_digest: dict) -> None:
    """Every trace consumer accepts a prefetching run, and each job's
    fetch phase is its own: paired by job id, start before end."""
    jobs = len(log.of_kind("compute_end"))
    assert spans_digest["jobs"] == jobs
    assert sum(spans_digest["critical_path_seconds"].values()) == pytest.approx(
        spans_digest["makespan"]
    )
    chart = render_gantt(log, log.makespan(), width=40)
    assert len(chart.splitlines()) == 1 + len(log.workers())
    slices = [e for e in to_perfetto(log)["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2 * jobs and all(s["dur"] >= 0 for s in slices)
    fetches = {
        kind: {(e.worker, e.job_id): e.time for e in log.of_kind(kind)}
        for kind in ("fetch_start", "fetch_end")
    }
    spans = build_spans(log)
    assert len(spans) == jobs
    for span in spans:
        key = (span.worker, span.job_id)
        assert span.fetch_start == fetches["fetch_start"][key]
        assert span.fetch_end == fetches["fetch_end"][key]
        assert span.fetch_start <= span.fetch_end <= span.compute_start
        phases = span.phases
        assert phases[0].start == span.queued_from
        for left, right in zip(phases, phases[1:]):
            assert left.start <= left.end == right.start
        assert sum(p.duration for p in phases) == pytest.approx(span.latency)


def test_traced_prefetch_run_through_the_facade():
    """`RunConfig(trace=…, cache=CacheOptions(prefetch=True))`: the next
    job's fetch overlaps the current job's compute on every worker."""
    log = EventLog()
    result = repro.run(
        "kmeans",
        DatasetSpec(
            total_bytes=TOTAL_UNITS * 16, num_files=FILES,
            chunk_bytes=UNITS_PER_CHUNK * 16, record_bytes=16,
        ),
        repro.RunConfig(
            mode="runtime", trace=log,
            cache=repro.CacheOptions(bytes=1 << 22, prefetch=True),
        ),
    )
    assert_prefetch_trace_consumers(log, result.telemetry.spans)


class SignallingLog(EventLog):
    """An event log a test can wait on instead of polling."""

    def __init__(self) -> None:
        super().__init__()
        self.recorded = threading.Condition()

    def record(self, time: float, kind: str, **fields) -> None:
        super().record(time, kind, **fields)
        with self.recorded:
            self.recorded.notify_all()


def test_traced_prefetch_run_with_several_fetches_in_flight():
    bundle, index, stores = materialize("kmeans", dims=2, k=4)
    log = SignallingLog()

    def hold_until_window_fetched(slave_id: int, job) -> None:
        # In-memory fetches are quick; keep both workers from computing
        # until each has four jobs fetched, three of them ahead (neither
        # can then drain the pool before the other has its four).
        with log.recorded:
            assert log.recorded.wait_for(
                lambda: all(
                    sum(e.kind == "fetch_end" for e in log.for_worker(w)) >= 4
                    for w in (0, 1)
                ),
                timeout=30.0,
            )

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(units_per_group=100),
        trace=log, prefetch=True, fault_hook=hold_until_window_fetched,
    )
    with mock.patch.object(SlaveCore, "window", property(lambda self: 4)):
        result = runtime.run()
    assert_prefetch_trace_consumers(log, result.telemetry.spans)
    for worker in log.workers():
        hidden = [
            span for span in build_spans(log)
            if span.worker == worker and span.fetch_end <= span.queued_from
        ]
        # Fetched before the worker was free for them: nothing of the
        # fetch is left on the worker's own timeline.
        assert len(hidden) >= 3
        assert all(span.phases[1].duration == 0.0 for span in hidden)


def test_tracing_disabled_result_identical():
    bundle, index, stores = materialize("histogram", bins=16)
    compute = ComputeSpec(local_cores=2, cloud_cores=2)
    plain = CloudBurstingRuntime(bundle.app, index, stores, compute).run()
    traced = CloudBurstingRuntime(
        bundle.app, index, stores, compute, trace=EventLog()
    ).run()
    import numpy as np

    np.testing.assert_array_equal(plain.value, traced.value)
    assert plain.telemetry.metrics is None


def test_skewed_run_emits_steal_and_remote_fetch():
    bundle, index, stores = materialize("wordcount", local_fraction=0.25,
                                        vocabulary=32)
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=3, cloud_cores=1), trace=log,
    )
    runtime.run()
    steals = log.of_kind("steal")
    assert steals, "3 local cores over 1/4-local data must steal"
    assert all(e.cluster for e in steals)
    remote = log.of_kind("remote_fetch")
    assert remote, "stolen jobs cross sites"
    assert all("<-" in e.detail for e in remote)


def test_metrics_snapshot_lands_in_telemetry():
    registry = MetricsRegistry()
    result, log = traced_run("wordcount", metrics=registry, vocabulary=32)
    snap = result.telemetry.metrics
    assert snap is not None
    assert snap["counters"]["jobs_done"] == NUM_JOBS
    assert snap["counters"]["jobs_stolen"] == result.telemetry.total_stolen
    assert snap["gauges"]["workers"] == 4
    # Dense uploads save exactly nothing, so the saving mirrors as a counter.
    assert snap["counters"]["sync_bytes_saved"] == result.telemetry.sync_bytes_saved == 0
    assert "sync_bytes_saved" not in snap["gauges"]
    fetch = snap["histograms"]["fetch_seconds"]
    compute = snap["histograms"]["compute_seconds"]
    assert fetch["count"] == NUM_JOBS
    assert compute["count"] == NUM_JOBS
    assert fetch["sum"] > 0 and compute["sum"] > 0
    # Histogram totals agree with the stopwatch aggregates.
    stopwatch_retrieval = sum(
        c.mean_retrieval * c.slaves for c in result.telemetry.clusters.values()
    )
    assert fetch["sum"] == pytest.approx(stopwatch_retrieval, rel=1e-6)


def test_iterative_passes_share_one_timeline():
    bundle, index, stores = materialize("kmeans", dims=2, k=3)
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        trace=log,
    )
    iterate_passes(lambda: runtime.run().value, bundle.app.update, iterations=2)
    # Two passes, one continuous (monotone-origin) event stream.
    assert len(log.of_kind("fetch_start")) == 2 * NUM_JOBS
    assert len(log.of_kind("merge_done")) == 4
    for worker in log.workers():
        worker_intervals(log, worker)  # still pairs cleanly across passes


def test_failure_run_emits_slave_failed_and_reexecution():
    bundle, index, stores = materialize("wordcount", vocabulary=32)
    failed = []

    def fault_hook(slave_id, job):
        if slave_id == 0 and not failed:
            failed.append(job)
            raise WorkerFailure("injected")

    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=fault_hook, trace=log,
    )
    result = runtime.run()
    assert result.telemetry.slaves_failed == 1
    assert len(log.of_kind("slave_failed")) == 1
    assert len(log.of_kind("job_reexecuted")) == result.telemetry.jobs_reexecuted


def test_join_timeout_names_alive_components():
    bundle, index, stores = materialize("wordcount", vocabulary=16)
    block = threading.Event()  # never set: one slave hangs forever

    def fault_hook(slave_id, job):
        if slave_id == 0:
            block.wait()

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=fault_hook, join_timeout=0.5,
    )
    with pytest.raises(RuntimeTimeoutError) as info:
        runtime.run()
    message = str(info.value)
    assert "0.5s" in message
    assert "masters still alive" in message and "slaves still alive" in message
    assert "local-cluster" in message  # the hung slave's master is named
    block.set()  # unblock the daemon thread so the interpreter exits cleanly


def test_join_timeout_is_named_after_every_mailbox_deadline_fired(monkeypatch):
    """The head's and the masters' own mailbox deadlines pass before the
    driver looks: the run still ends in the driver's named timeout, and
    the hung slave still names its cluster though its master is gone."""
    bundle, index, stores = materialize("wordcount", vocabulary=16)
    block = threading.Event()  # never set during the run: one slave hangs

    def fault_hook(slave_id, job):
        if slave_id == 0:
            block.wait()

    join = HeadNode.join

    def join_after_deadlines(self, timeout=None):
        masters = [t for t in threading.enumerate() if t.name.startswith("master:")]
        for thread in (self._thread, *masters):
            thread.join(10)
            assert not thread.is_alive(), thread.name
        return join(self, timeout)

    monkeypatch.setattr(HeadNode, "join", join_after_deadlines)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=fault_hook, join_timeout=0.5,
    )
    try:
        with pytest.raises(RuntimeTimeoutError) as info:
            runtime.run()
    finally:
        block.set()
    message = str(info.value)
    assert "run did not complete within 0.5s" in message
    assert "masters still alive: none" in message
    assert "0 (local-cluster)" in message


def test_join_timeout_must_be_positive():
    from repro.errors import ConfigurationError

    bundle, index, stores = materialize("wordcount", vocabulary=16)
    with pytest.raises(ConfigurationError):
        CloudBurstingRuntime(
            bundle.app, index, stores,
            ComputeSpec(local_cores=1, cloud_cores=1),
            join_timeout=0.0,
        )


# -- RunTelemetry serialization (mirrors SimReport's) -----------------------


def test_run_telemetry_round_trip():
    registry = MetricsRegistry()
    result, _ = traced_run("wordcount", metrics=registry, vocabulary=32)
    text = result.telemetry.to_json()
    back = RunTelemetry.from_json(text)
    assert back.wall_seconds == result.telemetry.wall_seconds
    assert back.total_jobs == result.telemetry.total_jobs
    assert back.total_stolen == result.telemetry.total_stolen
    assert set(back.clusters) == set(result.telemetry.clusters)
    assert back.metrics == result.telemetry.metrics
    assert back.to_dict() == result.telemetry.to_dict()


def test_run_telemetry_from_bad_documents():
    from repro.errors import DataFormatError

    with pytest.raises(DataFormatError):
        RunTelemetry.from_json("{not json")
    with pytest.raises(DataFormatError):
        RunTelemetry.from_dict({"clusters": {}})  # no wall_seconds
    with pytest.raises(DataFormatError):
        RunTelemetry.from_dict(
            {"wall_seconds": 1.0, "clusters": {"c": {"bogus": 1}}}
        )
