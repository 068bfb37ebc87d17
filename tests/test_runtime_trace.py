"""Runtime observability: real runs produce valid, exportable traces.

The acceptance bar for the unified observability layer: a real
:class:`CloudBurstingRuntime` run with tracing enabled yields a JSONL
event log and a Perfetto-loadable ``trace_event`` document, and the one
interval builder (:mod:`repro.obs.spans`, read by `worker_intervals`,
`utilization`, `render_gantt` and `build_spans`) accepts that log and
validates it — paired start/end events, no overlaps — for at least two
applications, with or without prefetch, and also when a slave crashed
or the log is a wrapped ring.
"""

from __future__ import annotations

import json
import threading
import time
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
from repro.obs.record import RunTelemetry
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


def traced_run(app_key, *, local_fraction=0.5, **bundle_params):
    bundle, index, stores = materialize(
        app_key, local_fraction=local_fraction, **bundle_params
    )
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        trace=log,
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
    assert plain.telemetry.spans is None
    assert traced.telemetry.spans is not None


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


def test_traced_run_spans_each_job_with_a_fetch_and_a_compute_phase():
    result, log = traced_run("wordcount", vocabulary=32)
    assert result.telemetry.total_jobs == NUM_JOBS
    # Dense uploads save exactly nothing.
    assert result.telemetry.sync_bytes_saved == 0
    # Per-job durations live in the trace: one span per job, each with a
    # fetch and a compute phase in causal order.
    spans = build_spans(log)
    assert sorted(s.job_id for s in spans) == list(range(NUM_JOBS))
    for span in spans:
        assert span.fetch_start is not None
        assert span.fetch_start <= span.fetch_end <= span.compute_start
        assert span.compute_start <= span.compute_end
        assert {"fetch", "compute"} <= {p.name for p in span.phases}


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
    # The dead slave's open compute is dropped, not raised: every reader
    # renders the trace, and the re-run job completes the span count.
    render_report(log)
    to_perfetto(log)
    utilization(log, log.makespan())
    assert len(build_spans(log)) == NUM_JOBS
    died = log.of_kind("slave_failed")[0]
    assert all(iv.end <= died.time for iv in worker_intervals(log, died.worker))


def test_wrapped_ring_runs_and_reports(tmp_path):
    """`EventLog(max_events=N)` keeps the newest events: the driver's
    per-pass span check and the report skip ends whose starts fell off
    the ring, at every cap, and so does the log read back from JSONL."""
    units = 4096
    rb = repro.make_bundle("histogram", units).schema.record_bytes
    spec = DatasetSpec(
        total_bytes=units * rb, num_files=FILES, chunk_bytes=64 * rb,
        record_bytes=rb,
    )
    for cap in range(50, 324, 7):
        log = EventLog(max_events=cap)
        repro.run("histogram", spec, repro.RunConfig(trace=log))
        assert log.events_dropped > 0
        report = render_report(log)
        assert "ring buffer dropped" in report
        write_jsonl(log, tmp_path / "capped.jsonl")
        assert render_report(read_jsonl(tmp_path / "capped.jsonl")) == report


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


def test_the_one_deadline_names_the_hung_slave_and_the_unfinished_master(
    monkeypatch,
):
    """The head and the masters keep no deadline of their own: a hung
    slave ends the run at the driver's join timeout, and its message
    names the slave, its cluster and the one master that never shipped.
    The cloud cluster shipped before the deadline and is named nowhere."""
    bundle, index, stores = materialize("wordcount", vocabulary=16)
    block = threading.Event()  # never set during the run: one slave hangs
    trace = EventLog()

    def fault_hook(slave_id, job):
        if slave_id == 0:
            block.wait()

    join = HeadNode.join

    def join_once_the_cloud_shipped(self, timeout=None):
        deadline = time.monotonic() + 30.0
        while not any(
            e.cluster == "cloud-cluster" for e in trace.of_kind("robj_sent")
        ):
            assert time.monotonic() < deadline, "the cloud cluster never shipped"
            time.sleep(0.005)
        for thread in threading.enumerate():
            if thread.name.startswith("slave:cloud-cluster:"):
                thread.join(10.0)
        return join(self, timeout)

    monkeypatch.setattr(HeadNode, "join", join_once_the_cloud_shipped)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=fault_hook, trace=trace, join_timeout=0.5,
    )
    try:
        with pytest.raises(RuntimeTimeoutError) as info:
            runtime.run()
    finally:
        block.set()
    message = str(info.value)
    assert "run did not complete within 0.5s" in message
    assert "masters still alive: local-cluster;" in message
    assert "0 (local-cluster)" in message
    assert "cloud-cluster" not in message


def test_join_timeout_must_be_positive():
    from repro.errors import ConfigurationError

    bundle, index, stores = materialize("wordcount", vocabulary=16)
    with pytest.raises(ConfigurationError):
        CloudBurstingRuntime(
            bundle.app, index, stores,
            ComputeSpec(local_cores=1, cloud_cores=1),
            join_timeout=0.0,
        )


# -- RunTelemetry serialization ----------------------------------------------


def test_run_telemetry_round_trip():
    result, _ = traced_run("wordcount", vocabulary=32)
    text = result.telemetry.to_json()
    back = RunTelemetry.from_json(text)
    assert back.makespan == result.telemetry.makespan
    assert back.total_jobs == result.telemetry.total_jobs
    assert back.total_stolen == result.telemetry.total_stolen
    assert set(back.clusters) == set(result.telemetry.clusters)
    assert back.to_dict() == result.telemetry.to_dict()


def test_run_telemetry_reads_a_document_with_a_metrics_key():
    # Documents written while RunTelemetry carried a registry snapshot
    # still load: the key is ignored, every counter comes back.
    doc = RunTelemetry(makespan=1.5, retries=3).to_dict()
    doc.pop("remote_bytes")
    doc["metrics"] = {"counters": {"retries": 3}, "gauges": {}, "histograms": {}}
    back = RunTelemetry.from_json(json.dumps(doc))
    assert back == RunTelemetry(makespan=1.5, retries=3)


def test_run_telemetry_from_bad_documents():
    from repro.errors import DataFormatError

    with pytest.raises(DataFormatError):
        RunTelemetry.from_json("{not json")
    with pytest.raises(DataFormatError):
        RunTelemetry.from_dict({"clusters": {}})  # no makespan
    with pytest.raises(DataFormatError):
        RunTelemetry.from_dict(
            {"makespan": 1.0, "clusters": {"c": {"bogus": 1}}}
        )
