"""The runtime's core budget (``repro.runtime.corebudget``).

While N slaves compute on this node every BLAS pool in the process is
capped to ``cores // N`` and the size found before is put back on every
exit path. Most tests here swap the pool lookup for a recording fake and
pin the core count, so they assert the same numbers on any machine and
never touch the real library; two go through the real OpenBLAS shim and
skip where numpy carries a different BLAS. Nothing sleeps: overlap is
arranged with events from inside the runs' own fault hooks.
"""

from __future__ import annotations

import sys
import threading
import types

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.apps.kmeans import KMeansApp
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
)
from repro.core.api import GeneralizedReductionApp, run_serial
from repro.core.reduction import ArrayReduction
from repro.data.dataset import DatasetReader, build_dataset
from repro.data.records import VALUE_SCHEMA
from repro.errors import RuntimeProtocolError, WorkerFailure
from repro.runtime import ProcessSlavePool, corebudget
from repro.runtime.driver import CloudBurstingRuntime
from repro.service import JobService
from repro.storage.objectstore import ObjectStore

CORES = 8
WAIT = 30.0  # generous bound on every event wait; none is ever slept out


class FakePool:
    """A BLAS pool that only remembers its size and who resized it."""

    def __init__(self, threads: int = CORES) -> None:
        self.threads = threads
        self.history: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.threads = threads
        self.history.append(threads)


@pytest.fixture
def pool(monkeypatch):
    fake = FakePool()
    monkeypatch.setattr(corebudget, "_blas_pools", lambda: ((fake.get, fake.set),))
    monkeypatch.setattr(corebudget, "available_cores", lambda: CORES)
    return fake


def materialize(total_units=2048):
    bundle = make_bundle("kmeans", total_units, seed=7)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb, num_files=4,
        chunk_bytes=(total_units // 16) * rb, record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(1.0), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def two_thread_slaves(hook=None, **kw):
    bundle, index, stores = materialize()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(2, 0), fault_hook=hook, **kw
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    return runtime, oracle


# -- the guard around a run ----------------------------------------------------


def test_two_thread_slaves_see_half_the_cores_then_it_is_put_back(pool):
    seen = set()
    runtime, oracle = two_thread_slaves(
        lambda slave_id, job: seen.add(corebudget.blas_threads())
    )
    value = runtime.run().value
    assert seen == {CORES // 2}
    assert pool.threads == CORES
    assert pool.history == [CORES // 2, CORES]
    np.testing.assert_allclose(value, oracle, rtol=1e-6)


def test_restored_after_a_slave_crash(pool):
    fired = threading.Event()

    def crash_once(slave_id, job):
        if slave_id == 0:  # the crew cannot finish before slave 1 crashes
            assert fired.wait(30.0)
        if slave_id == 1 and not fired.is_set():
            fired.set()
            raise WorkerFailure("injected crash")

    runtime, oracle = two_thread_slaves(crash_once)
    result = runtime.run()
    assert result.telemetry.slaves_failed == 1
    assert pool.threads == CORES
    np.testing.assert_allclose(result.value, oracle, rtol=1e-6)


def test_restored_when_the_run_raises(pool):
    fired = threading.Event()

    def buggy(slave_id, job):
        if not fired.is_set():
            fired.set()
            raise ValueError("application bug")

    runtime, _ = two_thread_slaves(buggy)
    with pytest.raises(ValueError, match="application bug"):
        runtime.run()
    assert pool.threads == CORES


@pytest.mark.parametrize("first_out", ["a", "b"])
def test_overlapping_service_runs_nest_and_unwind_in_either_order(pool, first_out):
    """Two runs of two slaves each are four slaves on one node."""
    inside = {"a": threading.Event(), "b": threading.Event()}
    release = {"a": threading.Event(), "b": threading.Event()}

    def executor(app, dataset, config):
        name = app

        def gate(slave_id, job):
            inside[name].set()
            assert release[name].wait(WAIT)

        two_thread_slaves(gate, join_timeout=WAIT)[0].run()

    second = "b" if first_out == "a" else "a"
    with JobService(workers=2, executor=executor) as service:
        handles = {}
        for name in ("a", "b"):
            handles[name] = service.submit(name, None)
            assert inside[name].wait(WAIT)
        assert pool.threads == CORES // 4
        release[first_out].set()
        handles[first_out].result(timeout=WAIT)
        assert pool.threads == CORES // 2  # the other run's two slaves remain
        release[second].set()
        handles[second].result(timeout=WAIT)
    assert pool.threads == CORES
    assert pool.history == [CORES // 2, CORES // 4, CORES // 2, CORES]


def test_no_pool_found_means_no_op_and_the_same_result(monkeypatch):
    runtime, oracle = two_thread_slaves()
    with_guard = runtime.run().value
    monkeypatch.setattr(corebudget, "_blas_pools", lambda: ())
    assert corebudget.blas_threads() is None
    corebudget.cap_blas_threads(2)  # nothing to cap: silent
    without = runtime.run().value
    np.testing.assert_allclose(with_guard, oracle, rtol=1e-6)
    np.testing.assert_allclose(without, oracle, rtol=1e-6)


def test_more_slaves_than_cores_still_leaves_one_thread(pool):
    with corebudget.slave_cores(3 * CORES):
        assert pool.threads == 1
    assert pool.threads == CORES


# -- reaching the pools ---------------------------------------------------------


def test_threadpoolctl_is_preferred_when_importable(monkeypatch):
    fake = FakePool(6)
    lib = types.SimpleNamespace(get_num_threads=fake.get, set_num_threads=fake.set)

    class ThreadpoolController:
        def select(self, **kwargs):
            assert kwargs == {"user_api": "blas"}
            return types.SimpleNamespace(lib_controllers=[lib])

    module = types.ModuleType("threadpoolctl")
    module.ThreadpoolController = ThreadpoolController
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    ((get, set_),) = corebudget._blas_pools.__wrapped__()
    set_(3)
    assert get() == 3 and fake.history == [3]


def real_pool_size() -> int:
    found = corebudget.blas_threads()
    if found is None:
        pytest.skip("numpy here carries no OpenBLAS the shim can reach")
    return found


def test_the_shim_resizes_the_openblas_numpy_loaded():
    found = real_pool_size()
    with corebudget.slave_cores(corebudget.available_cores()):
        assert corebudget.blas_threads() == 1
        # The kernel's own BLAS call still works under the cap.
        np.testing.assert_allclose(np.ones((64, 4)) @ np.ones((4, 8)), 4.0)
    assert corebudget.blas_threads() == found


# -- process slaves ---------------------------------------------------------------


class PoolSizeProbe(GeneralizedReductionApp):
    """Sums the BLAS pool size every ``local_reduction`` call saw."""

    def create_reduction_object(self):
        return ArrayReduction((2,))

    def decode_chunk(self, raw):
        return VALUE_SCHEMA.decode(raw)

    def local_reduction(self, robj, units):
        robj.data += (1.0, corebudget.blas_threads())


def test_a_process_worker_caps_its_pool_before_its_first_reduce():
    found = real_pool_size()
    chunk = VALUE_SCHEMA.encode(np.arange(8.0).reshape(-1, 1))
    workers = 2
    with ProcessSlavePool(
        PoolSizeProbe(), workers, max_chunk_bytes=len(chunk), units_per_group=2
    ) as slaves:
        for slave in slaves.slaves:
            slave.reduce(chunk)
        partials = [slave.take().value() for slave in slaves.slaves]
    share = max(1, corebudget.available_cores() // workers)
    for calls, threads in partials:
        assert calls == 4
        assert threads == calls * share  # the first call included
    assert corebudget.blas_threads() == found  # the parent's pool is its own


class Exploding(KMeansApp):
    def local_reduction(self, robj, units) -> None:
        raise ValueError("kernel bug")


def two_process_slaves(kernel=KMeansApp):
    bundle, index, stores = materialize()
    runtime = CloudBurstingRuntime(
        kernel(bundle.app.centroids), index, stores, ComputeSpec(2, 0),
        slave_mode="process", join_timeout=WAIT,
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    return runtime, oracle


def test_a_process_runtime_holds_the_share_from_its_fork_to_close(pool):
    """No resize between passes: the parent's OpenBLAS would restart its
    threads, and with no fork to stop them they spin on the workers' cores."""
    runtime, oracle = two_process_slaves()
    for _ in range(2):
        np.testing.assert_allclose(runtime.run().value, oracle, rtol=1e-6)
        assert pool.history == [CORES // 2]
    runtime.close()
    assert pool.history == [CORES // 2, CORES]


def test_a_process_pass_that_raises_restores_the_found_size(pool):
    runtime, _ = two_process_slaves(Exploding)
    with pytest.raises(RuntimeProtocolError, match="every slave failed"):
        runtime.run()
    assert pool.threads == CORES
    assert pool.history == [CORES // 2, CORES]
