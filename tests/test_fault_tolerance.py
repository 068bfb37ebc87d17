"""Fault-tolerance tests: slave crashes must not change results.

The recovery model (FREERIDE lineage): a dead slave's private reduction
object is lost, so the master re-executes *every* job that slave had
processed, on the surviving slaves. These tests inject deterministic
crashes and check (a) the final result still equals the no-fault oracle
and (b) the accounting reflects the recovery.
"""

from __future__ import annotations

import threading

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
from repro.core.job import Job
from repro.core.jobpool import JobPool
from repro.core.job import JobGroup
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import RuntimeProtocolError, SchedulingError, WorkerFailure
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

from conftest import MIDDLEWARE_THREADS, CrashOnce, hold_others, middleware_threads


def materialize(app_key="histogram", total_units=2048, **params):
    bundle = make_bundle(app_key, total_units, **params)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb,
        num_files=4,
        chunk_bytes=(total_units // 16) * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(spec, PlacementSpec(0.5), bundle.schema,
                          bundle.block_fn, stores)
    return bundle, index, stores


def run_with_fault(bundle, index, stores, hook, cores=(2, 2)):
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=cores[0], cloud_cores=cores[1]),
        tuning=MiddlewareTuning(units_per_group=100),
        fault_hook=hook,
    )
    return runtime.run()


def test_single_crash_mid_run_preserves_result():
    bundle, index, stores = materialize(bins=32)
    hook = CrashOnce(victim=1, after=2)
    held = hold_others(hook, {1}, hook.crashed)
    result = run_with_fault(bundle, index, stores, held)
    assert hook.fired
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 1
    # The victim had processed >= 2 jobs plus one in flight: all redone.
    assert result.telemetry.jobs_reexecuted >= 3


def test_immediate_crash_preserves_result():
    bundle, index, stores = materialize(bins=16)
    hook = CrashOnce(victim=0, after=0)  # dies on its very first job
    held = hold_others(hook, {0}, hook.crashed)
    result = run_with_fault(bundle, index, stores, held)
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 1


def test_crashes_in_both_clusters():
    bundle, index, stores = materialize(bins=16)

    fired: set[int] = set()
    both = threading.Event()
    lock = threading.Lock()

    def hook(slave_id: int, job) -> None:
        # slave 0 is in the local cluster, slave 2 in the cloud cluster.
        if slave_id in (0, 2):
            with lock:
                if slave_id not in fired:
                    fired.add(slave_id)
                    if len(fired) == 2:
                        both.set()
                    raise WorkerFailure(f"crash {slave_id}")

    held = hold_others(hook, {0, 2}, both)
    result = run_with_fault(bundle, index, stores, held)
    assert fired == {0, 2}
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 2


def test_knn_crash_preserves_exact_topk():
    bundle, index, stores = materialize("knn", dims=3, k=7)
    hook = CrashOnce(victim=3, after=1)
    result = run_with_fault(bundle, index, stores, hook)
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    assert result.value == oracle


def test_genuine_bug_recovers_result_but_reraises():
    bundle, index, stores = materialize(bins=16)
    fired = threading.Event()

    def buggy_hook(slave_id: int, job) -> None:
        if slave_id == 1 and not fired.is_set():
            fired.set()
            raise ValueError("application bug")

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=hold_others(buggy_hook, {1}, fired),
    )
    with pytest.raises(ValueError, match="application bug"):
        runtime.run()


def test_a_dead_master_fails_the_run_at_once_and_is_named():
    """Every cloud slave crashes, so the cloud master dies with "every
    slave failed". The head fails the run with that error, naming the
    cluster, instead of waiting out the join timeout; the local crew is
    released and every thread of the run exits."""
    bundle, index, stores = materialize(bins=16)
    crashed: set[int] = set()
    both = threading.Event()
    lock = threading.Lock()

    def hook(slave_id: int, job) -> None:
        if slave_id < 2:  # the local crew, released once both crashed
            return
        with lock:
            crashed.add(slave_id)
            if crashed == {2, 3}:
                both.set()
        raise WorkerFailure(f"crash {slave_id}")

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=hold_others(hook, {2, 3}, both), join_timeout=60.0,
    )
    with pytest.raises(RuntimeProtocolError) as info:
        runtime.run()
    assert "cloud-cluster" in str(info.value)
    assert "every slave failed" in str(info.value)
    for thread in threading.enumerate():
        if thread.name.startswith(MIDDLEWARE_THREADS):
            thread.join(30.0)
    assert middleware_threads() == []


# -- pool-level recovery unit tests ---------------------------------------------


def _group(gid, ids, file_id=0):
    jobs = tuple(
        Job(job_id=j, file_id=file_id, chunk_index=i, offset=i * 8, nbytes=8,
            num_units=1, site=LOCAL_SITE)
        for i, j in enumerate(ids)
    )
    return JobGroup(group_id=gid, cluster="c", jobs=jobs)


def test_pool_requeue_in_flight_job():
    pool = JobPool()
    pool.add_group(_group(0, [1, 2]))
    job = pool.take()
    assert pool.in_flight == 1
    pool.requeue([job])
    assert pool.in_flight == 0
    assert len(pool) == 2
    # Re-take and finish: group completion still fires exactly once.
    done = set()
    while True:
        j = pool.take()
        if j is None:
            break
        gid = pool.mark_done(j.job_id)
        if gid is not None:
            done.add(gid)
    assert done == {0}
    assert pool.drained


def test_pool_requeue_completed_job_uses_recovery_group():
    pool = JobPool()
    pool.add_group(_group(0, [1]))
    job = pool.take()
    assert pool.mark_done(1) == 0  # group complete (and acked upstream)
    pool.requeue([job])
    retaken = pool.take()
    assert retaken.job_id == 1
    # Recovery completion must not re-complete group 0.
    assert pool.mark_done(1) is None
    assert pool.drained


def test_pool_requeue_unknown_job_rejected():
    pool = JobPool()
    stray = Job(job_id=99, file_id=0, chunk_index=0, offset=0, nbytes=8,
                num_units=1, site=LOCAL_SITE)
    with pytest.raises(SchedulingError):
        pool.requeue([stray])
