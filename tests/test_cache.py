"""Unit and integration tests for the chunk cache + prefetch pipeline.

Covers the :mod:`repro.cache` pieces in isolation (LRU accounting,
oversized rejection, thread safety, the prefetcher's pipelining and
error propagation), the :class:`~repro.clock.FakeClock` the deterministic
tests stand on, and the wiring: reader-level cache hits, runtime-level
prefetching (including crash recovery mid-pipeline), and iterative
facade runs whose second pass fetches zero remote bytes.
"""

from __future__ import annotations

import queue
import threading
from unittest import mock

import numpy as np
import pytest

import repro
from repro.cache import ChunkCache, Prefetcher
from repro.clock import FakeClock, SystemClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.core.messages import SlaveJobReply, SlaveJobRequest
from repro.core.slave import SlaveCore
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import (
    ConfigurationError,
    ReproError,
    RuntimeProtocolError,
    WorkerFailure,
)
from repro.obs.events import EventLog
from repro.runtime.driver import CloudBurstingRuntime
from repro.obs.record import RunTelemetry
from repro.runtime.transport import Mailbox
from repro.storage.objectstore import ObjectStore

from conftest import middleware_threads


# -- ChunkCache unit behavior ------------------------------------------------


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ConfigurationError):
        ChunkCache(0)
    with pytest.raises(ConfigurationError):
        ChunkCache(-5)


def test_cache_round_trip_and_stats():
    cache = ChunkCache(100)
    assert cache.get("a") is None
    assert cache.put("a", b"hello") == 0
    assert cache.get("a") == b"hello"
    s = cache.stats
    assert (s.hits, s.misses, s.insertions) == (1, 1, 1)
    assert s.bytes_saved == 5
    assert cache.bytes_used == 5
    assert "a" in cache and len(cache) == 1


def test_cache_evicts_least_recently_used_first():
    cache = ChunkCache(30)
    cache.put("a", b"x" * 10)
    cache.put("b", b"y" * 10)
    cache.put("c", b"z" * 10)
    cache.get("a")  # refresh a: b is now the LRU entry
    evicted = cache.put("d", b"w" * 10)
    assert evicted == 1
    assert "b" not in cache
    assert "a" in cache and "c" in cache and "d" in cache
    assert cache.stats.evictions == 1
    assert cache.bytes_used == 30


def test_cache_rejects_oversized_entries_whole():
    cache = ChunkCache(10)
    cache.put("small", b"s" * 4)
    assert cache.put("big", b"b" * 11) == 0
    assert "big" not in cache
    assert "small" in cache  # nothing was evicted to make room
    assert cache.stats.rejected == 1


def test_cache_replacing_a_key_reaccounts_bytes():
    cache = ChunkCache(20)
    cache.put("k", b"a" * 8)
    cache.put("k", b"b" * 12)
    assert cache.bytes_used == 12
    assert cache.get("k") == b"b" * 12
    assert len(cache) == 1


def test_cache_clear_resets_contents_not_stats():
    cache = ChunkCache(100)
    cache.put("k", b"data")
    cache.get("k")
    cache.clear()
    assert len(cache) == 0 and cache.bytes_used == 0
    assert cache.stats.hits == 1  # history survives a clear


def test_cache_is_thread_safe_under_contention():
    cache = ChunkCache(512)
    errors: list[BaseException] = []

    def hammer(seed: int) -> None:
        try:
            for i in range(300):
                key = (seed * 7 + i) % 16
                cache.put(key, bytes([seed]) * 32)
                cache.get((i * 3) % 16)
                assert cache.bytes_used <= 512
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.stats.hits + cache.stats.misses == 8 * 300


def test_cache_emits_trace_events_and_metrics():
    trace = EventLog()
    trace.start()
    cache = ChunkCache(100, trace=trace)
    cache.get("k")
    cache.put("k", b"abc")
    cache.get("k")
    cache.put("other", b"d" * 98)  # evicts k
    assert len(trace.of_kind("cache_miss")) == 1
    assert len(trace.of_kind("cache_hit")) == 1
    assert len(trace.of_kind("cache_evict")) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.evictions == 1
    assert cache.stats.bytes_saved == 3


# -- FakeClock ---------------------------------------------------------------


def test_fake_clock_owner_sleep_advances_virtually():
    clock = FakeClock(start=5.0)
    clock.sleep(2.5)
    assert clock.monotonic() == pytest.approx(7.5)
    clock.advance(0.5)
    assert clock.monotonic() == pytest.approx(8.0)


def test_fake_clock_wait_advances_past_sleeping_worker():
    with FakeClock() as clock:
        out: queue.Queue = queue.Queue()

        def worker() -> None:
            clock.sleep(60.0)
            out.put("done")

        clock.spawn(worker)
        assert clock.wait(out, 120.0) == "done"
        # Virtual time jumped straight to the worker's wake-up.
        assert clock.monotonic() == pytest.approx(60.0)


def test_fake_clock_wait_times_out_in_virtual_time():
    with FakeClock() as clock:
        out: queue.Queue = queue.Queue()

        def worker() -> None:
            clock.sleep(100.0)
            out.put("late")

        clock.spawn(worker)
        with pytest.raises(queue.Empty):
            clock.wait(out, 10.0)
        assert clock.monotonic() == pytest.approx(10.0)


def test_fake_clock_wait_refuses_to_block_forever():
    clock = FakeClock()
    # No workers and no deadline: nothing can ever arrive.
    with pytest.raises(ReproError):
        clock.wait(queue.Queue(), None)
    # With a deadline the wait times out in virtual time instead.
    with pytest.raises(queue.Empty):
        clock.wait(queue.Queue(), 5.0)
    assert clock.monotonic() == pytest.approx(5.0)


def test_fake_clock_worker_wait_parks_until_mail_arrives():
    """A worker waiting on an empty queue is parked (time may pass it by);
    one with mail waiting counts as running until it has taken it."""
    with FakeClock() as clock:
        mail: queue.SimpleQueue = queue.SimpleQueue()
        out: queue.SimpleQueue = queue.SimpleQueue()

        def worker() -> None:
            item = clock.wait(mail, None)
            clock.sleep(5.0)
            out.put((item, clock.monotonic()))
            try:
                clock.wait(mail, 2.0)
            except queue.Empty:
                out.put(("timed out", clock.monotonic()))

        clock.spawn(worker)
        # Nothing can happen before the mail does: the wait times out.
        with pytest.raises(queue.Empty):
            clock.wait(out, 10.0)
        mail.put("go")
        assert clock.wait(out, 100.0) == ("go", pytest.approx(15.0))
        assert clock.wait(out, 100.0) == ("timed out", pytest.approx(17.0))


def test_system_clock_wait_maps_to_queue_get():
    clock = SystemClock()
    q: queue.Queue = queue.Queue()
    q.put(41)
    assert clock.wait(q, 1.0) == 41
    assert clock.monotonic() > 0


# -- Prefetcher --------------------------------------------------------------


def test_prefetcher_pipelines_acquire_and_fetch():
    jobs = iter([1, 2, None])
    fetched: list[int] = []

    def fetch(job: int) -> bytes:
        fetched.append(job)
        return bytes([job])

    pf = Prefetcher(lambda: next(jobs), fetch)
    try:
        for _ in range(4):  # the fourth comes after the ``None``: dropped
            pf.request()
        taken = sorted((pf.take(timeout=5.0) for _ in range(3)), key=lambda t: t[0].seq)
        assert [(f.seq, f.job, f.nbytes, raw) for f, raw in taken] == [
            (0, 1, 1, b"\x01"), (1, 2, 1, b"\x02"), (2, None, 0, None),
        ]
        assert sorted(fetched) == [1, 2]
        assert pf.prefetches == 2
    finally:
        pf.close()


def test_prefetcher_propagates_fetch_errors():
    def fetch(job: int) -> bytes:
        raise OSError("disk gone")

    pf = Prefetcher(lambda: 7, fetch)
    pf.request()
    try:
        with pytest.raises(OSError, match="disk gone"):
            pf.take(timeout=5.0)
    finally:
        pf.close()


def test_prefetcher_propagates_acquire_errors():
    def acquire() -> int:
        raise RuntimeProtocolError("master vanished")

    pf = Prefetcher(acquire, lambda job: b"")
    pf.request()
    try:
        with pytest.raises(RuntimeProtocolError, match="master vanished"):
            pf.take(timeout=5.0)
    finally:
        pf.close()


def test_prefetcher_take_times_out_while_acquire_blocks():
    answered = threading.Event()

    def acquire() -> None:
        answered.wait(5.0)  # a request parked at the master

    pf = Prefetcher(acquire, lambda job: b"")
    pf.request()
    try:
        with pytest.raises(RuntimeProtocolError):
            pf.take(timeout=0.05)
    finally:
        answered.set()
        pf.close()


# -- Reader-level cache wiring ----------------------------------------------


def materialize(app_key="histogram", total_units=2048, *, local_fraction=0.5,
                **params):
    bundle = repro.make_bundle(app_key, total_units, **params)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb,
        num_files=4,
        chunk_bytes=(total_units // 16) * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(spec, PlacementSpec(local_fraction), bundle.schema,
                          bundle.block_fn, stores)
    return bundle, index, stores


def test_reader_consults_cache_before_remote_fetch():
    _, index, stores = materialize()
    trace = EventLog()
    trace.start()
    cache = ChunkCache(1 << 20)
    reader = DatasetReader(index, stores, trace=trace, cache=cache)
    job = next(j for j in index.jobs()
               if index.entry(j.file_id).site == CLOUD_SITE)
    first = reader.read_job(job, from_site=LOCAL_SITE)
    second = reader.read_job(job, from_site=LOCAL_SITE)
    assert first == second
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    # The remote fetch happened exactly once: the hit never touched the wire.
    assert len(trace.of_kind("remote_fetch")) == 1
    assert reader.remote_bytes == job.nbytes


def test_reader_ignores_cache_for_local_reads():
    _, index, stores = materialize()
    cache = ChunkCache(1 << 20)
    reader = DatasetReader(index, stores, cache=cache)
    job = next(j for j in index.jobs()
               if index.entry(j.file_id).site == LOCAL_SITE)
    reader.read_job(job, from_site=LOCAL_SITE)
    reader.read_job(job, from_site=LOCAL_SITE)
    assert len(cache) == 0
    assert cache.stats.hits == 0 and cache.stats.misses == 0


def test_reader_without_cache_never_builds_cache_state():
    _, index, stores = materialize()
    reader = DatasetReader(index, stores)
    assert reader.cache is None
    job = index.jobs()[0]
    reader.read_job(job, from_site=LOCAL_SITE)  # no cache machinery involved


# -- Runtime prefetch end-to-end --------------------------------------------


def test_runtime_prefetch_matches_sequential_result():
    bundle, index, stores = materialize(bins=32)
    baseline = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        prefetch=True,
    )
    result = runtime.run()
    np.testing.assert_array_equal(result.value, baseline)
    assert result.telemetry.prefetches > 0


def test_runtime_prefetch_survives_slave_crash():
    bundle, index, stores = materialize(bins=16)
    fired = threading.Event()

    def hook(slave_id: int, job) -> None:
        if slave_id != 1:
            # Held at their first job (two jobs each at most), the others
            # cannot drain the pool before slave 1 has had one to die on.
            assert fired.wait(30.0)
        elif not fired.is_set():
            fired.set()
            raise WorkerFailure("injected crash mid-pipeline")

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        fault_hook=hook,
        prefetch=True,
        join_timeout=60.0,
    )
    result = runtime.run()
    assert fired.is_set()
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 1
    assert result.telemetry.jobs_reexecuted >= 1


def test_runtime_prefetch_crash_reexecutes_every_prefetched_job():
    """A slave dies holding a window of prefetched jobs and with one more
    request parked at the master: the master's ledger re-executes all of
    them, the parked request is answered ``None``, and every stage thread
    is joined."""
    bundle, index, stores = materialize(bins=16)
    total = len(index.jobs())
    posts = threading.Condition()
    # The requests each slave sent, kept by identity: the master re-posts
    # a parked request to its own inbox when its pool refills, and that is
    # the same request delivered again, not one more.
    requests: dict[int, dict[int, SlaveJobRequest]] = {0: {}, 1: {}}
    handed: dict[int, list[int]] = {0: [], 1: []}
    refused = {0: 0, 1: 0}
    crashed = threading.Event()
    real_post = Mailbox.post

    def spy(mailbox: Mailbox, message) -> None:
        with posts:
            if isinstance(message, SlaveJobRequest):
                requests[message.slave_id][id(message)] = message
            elif isinstance(message, SlaveJobReply):
                slave_id = int(mailbox.name.rsplit(":", 1)[1])
                if message.job is None:
                    refused[slave_id] += 1
                else:
                    handed[slave_id].append(message.job.job_id)
            posts.notify_all()
        real_post(mailbox, message)

    def hook(slave_id: int, job) -> None:
        if slave_id == 0:
            # Hold slave 0 at its first job so it cannot drain the pool.
            assert crashed.wait(30.0)
        elif not crashed.is_set():
            with posts:
                # Every job is handed out, and one more request from this
                # slave is already on its way to the master's empty pool.
                assert posts.wait_for(
                    lambda: len(handed[0]) + len(handed[1]) == total
                    and len(requests[1]) == len(handed[1]) + 1,
                    timeout=30.0,
                )
            crashed.set()
            raise WorkerFailure("injected crash with a full window")

    trace = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(units_per_group=100),
        fault_hook=hook, prefetch=True, trace=trace, join_timeout=60.0,
    )
    # In-memory fetches are faster than compute, so the window would stay
    # at 1: pin slave 1's wide open (and slave 0's shut) for the scenario.
    window = property(lambda self: total if self.slave_id == 1 else 1)
    with mock.patch.object(SlaveCore, "window", window), \
            mock.patch.object(Mailbox, "post", spy):
        result = runtime.run()

    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 1
    # The job in hand plus at least three prefetched ones, all re-executed.
    assert len(handed[1]) >= 4
    assert result.telemetry.jobs_reexecuted == len(handed[1])
    assert sorted(e.job_id for e in trace.of_kind("job_reexecuted")) == sorted(
        handed[1]
    )
    assert refused[1] >= 1  # the parked request was cancelled, not served
    assert middleware_threads() == []


@pytest.mark.parametrize("outcome", ["clean", "crashed slave", "raised"])
def test_runtime_run_leaves_no_prefetch_or_retrieval_threads(outcome):
    # All data remote, four retrieval threads: the run builds both the
    # prefetch stages and the reader's standing retrieval pool.
    bundle, index, stores = materialize(bins=16, local_fraction=0.0)
    fired = threading.Event()

    def hook(slave_id: int, job) -> None:
        if outcome == "clean":
            return
        if slave_id != 1:
            assert fired.wait(30.0)  # leave slave 1 a job to fail on
        elif not fired.is_set():
            fired.set()
            if outcome == "raised":
                raise ValueError("a bug in the kernel")
            raise WorkerFailure("injected crash")

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(units_per_group=100),
        fault_hook=hook, prefetch=True, join_timeout=60.0,
    )
    if outcome == "raised":
        with pytest.raises(ValueError, match="a bug in the kernel"):
            runtime.run()
    else:
        result = runtime.run()
        assert result.telemetry.prefetches > 0
    assert stores[CLOUD_SITE].stats.gets >= 4 * len(index.jobs())
    assert middleware_threads() == []


def test_runtime_cache_and_prefetch_together_preserve_result():
    # All data on the cloud, all compute local: every read is cross-site,
    # so the cache traffic is deterministic regardless of scheduling.
    bundle, index, stores = materialize(bins=32, local_fraction=0.0)
    baseline = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    cache = ChunkCache(1 << 22)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(units_per_group=100),
        cache=cache, prefetch=True,
    )
    first = runtime.run()
    second = runtime.run()
    np.testing.assert_array_equal(first.value, baseline)
    np.testing.assert_array_equal(second.value, baseline)
    # Pass 2 found every cross-site chunk already cached.
    assert second.telemetry.cache_misses == 0
    assert second.telemetry.cache_hits >= first.telemetry.cache_misses > 0
    assert first.telemetry.remote_bytes == sum(j.nbytes for j in index.jobs())
    assert second.telemetry.remote_bytes == 0


def test_runtime_remote_bytes_are_the_traced_remote_fetches():
    # All data on the cloud: every job the local cluster takes is a steal.
    bundle, index, stores = materialize(bins=32, local_fraction=0.0)
    nbytes = {j.job_id: j.nbytes for j in index.jobs()}
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        trace=log, cache=ChunkCache(1 << 22),
    )
    totals = []
    for _ in range(2):
        seen = len(log.of_kind("remote_fetch"))
        telemetry = runtime.run().telemetry
        fetched = log.of_kind("remote_fetch")[seen:]
        assert telemetry.remote_bytes == sum(nbytes[e.job_id] for e in fetched)
        totals.append(telemetry.remote_bytes)
    assert totals[0] > 0


# -- Iterative facade --------------------------------------------------------


def test_facade_iterative_second_pass_fetches_zero_remote_bytes():
    rb = 16  # kmeans record size
    dataset = DatasetSpec(
        total_bytes=1024 * rb, num_files=4, chunk_bytes=64 * rb,
        record_bytes=rb,
    )
    config = repro.RunConfig(
        mode="serial", cache=repro.CacheOptions(bytes=1 << 22), iterations=3,
        app_params={"k": 4},
    )
    result = repro.run("kmeans", dataset, config)
    assert result.passes == 3
    t = result.telemetry
    # Pass 1 misses every cloud chunk once; passes 2 and 3 hit them all, so
    # the remote byte counter stops growing after the first pass.
    assert t.cache_misses > 0
    assert t.cache_hits == 2 * t.cache_misses
    assert t.remote_bytes == t.bytes_saved // 2
    assert t.cache_evictions == 0


def test_facade_converge_stops_early():
    rb = 16
    dataset = DatasetSpec(
        total_bytes=1024 * rb, num_files=4, chunk_bytes=64 * rb,
        record_bytes=rb,
    )
    config = repro.RunConfig(
        mode="serial", iterations=50, converge=1e12,  # converges instantly
        app_params={"k": 4},
    )
    result = repro.run("kmeans", dataset, config)
    assert result.passes == 2  # pass 2's result compared against pass 1's


def test_facade_rejects_bad_cache_and_iteration_knobs():
    with pytest.raises(ConfigurationError):
        repro.RunConfig(cache=repro.CacheOptions(bytes=-1))
    with pytest.raises(ConfigurationError):
        repro.RunConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        repro.RunConfig(converge=-0.5)


# -- Telemetry round-trips ---------------------------------------------------


def test_run_telemetry_round_trips_cache_fields():
    t = RunTelemetry(makespan=1.5)
    t.cache_hits = 7
    t.cache_misses = 3
    t.cache_evictions = 2
    t.bytes_saved = 4096
    t.prefetches = 11
    doc = t.to_dict()
    back = RunTelemetry.from_dict(doc)
    assert back.cache_hits == 7
    assert back.cache_misses == 3
    assert back.cache_evictions == 2
    assert back.bytes_saved == 4096
    assert back.prefetches == 11


def test_simulated_record_round_trips_cache_fields():
    report = RunTelemetry(
        experiment="e", app="kmeans", makespan=10.0, global_reduction=1.0,
        cache_hits=5, cache_misses=3,
    )
    back = RunTelemetry.from_json(report.to_json())
    assert back.cache_hits == 5 and back.cache_misses == 3
