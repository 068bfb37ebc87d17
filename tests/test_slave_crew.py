"""The slave crew: slave and retrieval threads start once per owner.

A runtime's second pass and a service's later runs put their slaves on
the threads earlier ones parked, and start none. A parked thread carries
no middleware name, and closing the owner ends every thread it started.
A run whose slave crashes, raises or hangs fails alone: the next run on
the same crew still equals the serial oracle, and a thread still running
a hung slave is never handed another.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import RuntimeProtocolError, RuntimeTimeoutError, WorkerFailure
from repro.facade import RunConfig
from repro.options import ResilienceOptions
from repro.runtime.crew import PARKED, SlaveCrew
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.slave import SlaveWorker
from repro.service import JobService
from repro.storage.objectstore import ObjectStore

from conftest import middleware_threads

WAIT = 30.0  # a bound on every wait; none is ever slept out


def materialize(total_units: int = 2048, local_fraction: float = 0.5):
    bundle = make_bundle("histogram", total_units, bins=16)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb, num_files=4,
        chunk_bytes=(total_units // 16) * rb, record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction), bundle.schema, bundle.block_fn, stores
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    return bundle, index, stores, oracle


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names: list[str] = []
    real_start = threading.Thread.start

    def start(thread: threading.Thread) -> None:
        names.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def test_a_second_pass_starts_no_thread(started):
    bundle, index, stores, oracle = materialize()
    started.clear()  # the dataset build's
    before = set(threading.enumerate())
    # Remote chunks are read on the slaves' own threads: no pool thread.
    with CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(retrieval_threads=1),
    ) as runtime:
        first = runtime.run()
        assert sorted(started) == [
            "slave:cloud-cluster:2", "slave:cloud-cluster:3",
            "slave:local-cluster:0", "slave:local-cluster:1",
        ]
        started.clear()
        second = runtime.run()
        assert started == []
        assert middleware_threads() == []
    np.testing.assert_array_equal(first.value, oracle)
    np.testing.assert_array_equal(second.value, oracle)
    assert set(threading.enumerate()) <= before


def test_the_retrieval_pool_outlives_the_pass(started):
    """All data remote, one slave reading 4-way: its fetches hand three
    sub-ranges each to the crew's pool. The pool grows to what the reads
    overlapped, never past the three a fetch hands off, where a pool per
    pass would start at least one thread every pass."""
    bundle, index, stores, oracle = materialize(local_fraction=0.0)
    started.clear()  # the dataset build's
    before = set(threading.enumerate())
    gets = stores[CLOUD_SITE].stats.gets
    with CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=1, cloud_cores=0),
        tuning=MiddlewareTuning(retrieval_threads=4),
    ) as runtime:
        for _ in range(6):
            np.testing.assert_array_equal(runtime.run().value, oracle)
            assert middleware_threads() == []
        # Every chunk read 4-way, every pass.
        assert stores[CLOUD_SITE].stats.gets - gets == 6 * 4 * len(index.jobs())
    assert started.count("slave:local-cluster:0") == 1
    readers = [name for name in started if name.startswith("crew:retrieval_")]
    assert 1 <= len(readers) <= 3
    assert len(readers) + 1 == len(started)
    assert set(threading.enumerate()) <= before


def test_sequential_service_runs_start_only_the_first_runs_threads(started):
    spec = DatasetSpec(
        total_bytes=2048 * 8, num_files=4, chunk_bytes=1024, record_bytes=8
    )
    # Each cluster reads only its own site's chunks: no pool thread.
    config = RunConfig(
        mode="runtime", compute=ComputeSpec(1, 1), placement=PlacementSpec(0.5),
        tuning=MiddlewareTuning(allow_stealing=False), seed=5,
    )
    before = set(threading.enumerate())
    service = JobService(workers=1)
    try:
        # The serial oracle builds the dataset the runs then share.
        oracle = np.asarray(
            service.submit("histogram", spec, RunConfig(mode="serial", seed=5))
            .result(timeout=WAIT).value
        )
        started.clear()  # the service's own worker, the dataset build's
        for i in range(300):
            value = service.submit("histogram", spec, config).result(timeout=WAIT).value
            np.testing.assert_array_equal(np.asarray(value), oracle)
            if i == 0:
                assert sorted(started) == [
                    "slave:cloud-cluster:1", "slave:local-cluster:0",
                ]
                started.clear()
        assert started == []
        # Between runs only the service's own worker has a middleware name.
        assert middleware_threads() == ["service-worker:repro-service:0"]
    finally:
        service.shutdown()
    assert middleware_threads() == []
    assert set(threading.enumerate()) <= before


def test_parked_threads_keep_nothing_of_the_pass(monkeypatch):
    """A pass's slaves are freed by reference counting alone, though the
    threads that ran them live on: neither a parked thread nor a kept
    shift holds a slave (a 2 MiB pagerank object each, every pass)."""
    bundle, index, stores, oracle = materialize()
    workers: list[weakref.ref] = []
    init = SlaveWorker.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        workers.append(weakref.ref(self))

    monkeypatch.setattr(SlaveWorker, "__init__", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with CloudBurstingRuntime(
            bundle.app, index, stores, ComputeSpec(local_cores=1, cloud_cores=1),
        ) as runtime:
            for _ in range(2):
                np.testing.assert_array_equal(runtime.run().value, oracle)
                assert len(workers) == 2
                assert [ref() for ref in workers] == [None, None]
                workers.clear()
    finally:
        if enabled:
            gc.enable()


def test_close_and_shutdown_end_every_crew_thread():
    bundle, index, stores, oracle = materialize()
    before = set(threading.enumerate())
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
    )
    np.testing.assert_array_equal(runtime.run().value, oracle)
    runtime.close()
    assert middleware_threads() == []
    assert set(threading.enumerate()) <= before

    spec = DatasetSpec(
        total_bytes=2048 * 8, num_files=4, chunk_bytes=1024, record_bytes=8
    )
    service = JobService(workers=2)
    handles = [
        service.submit("histogram", spec, RunConfig(mode="runtime", seed=5))
        for _ in range(4)
    ]
    for handle in handles:
        handle.result(timeout=WAIT)
    service.shutdown()
    assert middleware_threads() == []
    assert set(threading.enumerate()) <= before


def test_close_ends_the_readers_before_the_slave_threads(monkeypatch):
    """Exiting threads hand their malloc arenas to the next threads last
    in, first out; the next crew starts its slaves first, so they must
    find the slave arenas on top (``SlaveCrew.close``)."""
    ended = []
    crew = SlaveCrew()
    crew.retrieval.submit(lambda: None).result(WAIT)
    shift, = crew.start_all([(lambda: None, "slave:close-order:0")])
    assert shift.join(WAIT)
    join = threading.Thread.join

    def join_thread(thread, timeout=None):
        join(thread, timeout)
        ended.append(thread.name)

    monkeypatch.setattr(threading.Thread, "join", join_thread)
    crew.close()
    assert ended == ["crew:retrieval_0", PARKED]


# -- failures ---------------------------------------------------------------


def _runtime_executor(bundle, index, stores):
    """A service executor whose "app" is ``(compute, fault hook)``: each
    run is a fresh runtime over one dataset, on the service's crew."""

    def execute(app, dataset, config):
        compute, hook = app
        with CloudBurstingRuntime(
            bundle.app, index, stores, compute, fault_hook=hook,
            join_timeout=config.resilience.join_timeout,
        ) as runtime:
            return SimpleNamespace(value=runtime.run().value, samples=[])

    return execute


def test_a_failing_slave_fails_only_its_own_run():
    bundle, index, stores, oracle = materialize()
    release = threading.Event()
    hung: list[threading.Thread] = []
    hung_as: list[str] = []
    ran_on: set[threading.Thread] = set()

    def failing(victim: int, error: Exception):
        """``victim`` raises ``error`` at its first job; the others wait
        for that at theirs, so none can drain the victim's jobs first."""
        fired = threading.Event()

        def hook(slave_id, job):
            if slave_id == victim:
                fired.set()
                raise error
            assert fired.wait(WAIT)

        return hook

    def hang(slave_id, job):
        # Whichever slave reaches a job first holds it past the deadline.
        if not hung:
            hung.append(threading.current_thread())
            hung_as.append(threading.current_thread().name)
            assert release.wait(WAIT)

    def clean(slave_id, job):
        ran_on.add(threading.current_thread())

    one_plus_one = ComputeSpec(local_cores=1, cloud_cores=1)
    runs = [
        # The cloud cluster's only slave crashes: its cluster fails.
        (
            (one_plus_one, failing(1, WorkerFailure("injected crash"))),
            RuntimeProtocolError, "every slave failed",
        ),
        # A bug in one of two slaves: the other recovers its jobs, and
        # the join raises the bug.
        (
            (
                ComputeSpec(local_cores=2, cloud_cores=0),
                failing(1, ValueError("a bug in the kernel")),
            ),
            ValueError, "a bug",
        ),
        ((one_plus_one, hang), RuntimeTimeoutError, "did not complete"),
    ]
    held_past = RunConfig(
        mode="runtime", resilience=ResilienceOptions(join_timeout=0.5)
    )
    service = JobService(executor=_runtime_executor(bundle, index, stores))
    try:
        for app, error, match in runs:
            config = held_past if app[1] is hang else RunConfig(mode="runtime")
            with pytest.raises(error, match=match):
                service.submit(app, None, config).result(timeout=WAIT)
            # The next run on the same crew is whole.
            ran_on.clear()
            value = service.submit((one_plus_one, clean), None).result(
                timeout=WAIT
            ).value
            np.testing.assert_array_equal(value, oracle)
        # The thread still holding the hung slave ran nothing after it,
        # and keeps the slave's name while it holds it.
        assert len(hung) == 1 and hung[0].is_alive()
        assert hung[0] not in ran_on
        assert hung[0].name == hung_as[0]
        assert hung_as[0].startswith("slave:")
        release.set()
        deadline = time.monotonic() + WAIT
        while hung[0].name != PARKED and time.monotonic() < deadline:
            time.sleep(0.001)
        # Released, it parks like any other: no thread keeps a slave name.
        assert hung[0].name == PARKED
        assert not [n for n in middleware_threads() if n.startswith("slave:")]
    finally:
        release.set()
        service.shutdown()
    assert middleware_threads() == []


def test_a_process_pass_on_a_service_after_thread_runs():
    """The process pool forks while the service's crew threads are parked."""
    spec = DatasetSpec(
        total_bytes=2048 * 8, num_files=4, chunk_bytes=1024, record_bytes=8
    )
    thread_mode = RunConfig(mode="runtime", seed=5)
    process_mode = RunConfig(mode="runtime", slave_mode="process", seed=5)
    with JobService(workers=1) as service:
        oracle = np.asarray(
            service.submit("histogram", spec, RunConfig(mode="serial", seed=5))
            .result(timeout=WAIT).value
        )
        for config in (thread_mode, thread_mode, process_mode, thread_mode):
            value = service.submit("histogram", spec, config).result(
                timeout=WAIT
            ).value
            np.testing.assert_array_equal(np.asarray(value), oracle)
    assert middleware_threads() == []


# -- the crew under contention ------------------------------------------------


def test_concurrent_starters_run_every_target_once(started):
    """More starters than cores, a short switch interval: every target
    runs exactly once, and the crew never starts more threads than the
    starters asked for at once."""
    starters, rounds, widest = 6, 40, 4
    asked: list[tuple[int, int, int]] = []
    counts: dict[tuple[int, int, int], int] = {}
    lock = threading.Lock()

    def starter(s: int) -> None:
        rng = random.Random(s)
        for r in range(rounds):
            work = []
            for k in range(rng.randint(1, widest)):
                def target(key=(s, r, k)) -> None:
                    with lock:
                        counts[key] = counts.get(key, 0) + 1
                work.append((target, f"slave:stress:{s}.{k}"))
                with lock:
                    asked.append((s, r, k))
            for shift in crew.start_all(work):
                assert shift.join(WAIT)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    crew = SlaveCrew()
    try:
        threads = [
            threading.Thread(target=starter, args=(s,), name=f"starter:{s}")
            for s in range(starters)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        crew.close()
    assert sorted(counts) == sorted(asked)
    assert set(counts.values()) == {1}
    crew_threads = [name for name in started if name.startswith("slave:stress")]
    assert 1 <= len(crew_threads) <= starters * widest
