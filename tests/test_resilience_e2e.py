"""End-to-end resilience: chaos in, bit-identical results out.

The acceptance bar for the resilience layer: a run with seeded fault
injection must complete, produce exactly the fault-free result, recover
transient faults *below* the middleware's slave-failure machinery
(``slaves_failed == 0``), and account for everything it did in
telemetry. ``REPRO_FAULT_RATE`` lets CI sweep the error rate (0 / 0.05 /
0.2) without editing the test.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import ResilienceOptions, RunConfig, run
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.apps import make_bundle
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import WorkerFailure
from repro.obs.events import EventLog
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

#: CI sweeps these (see the `faults` job): 0.0, 0.05, 0.2.
FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.1"))
REVOKE_RATE = float(os.environ.get("REPRO_REVOKE_RATE", "0.05"))

DATASET = DatasetSpec(
    total_bytes=4096 * 8, num_files=4, chunk_bytes=256 * 8, record_bytes=8
)


def materialize(app_key="histogram", dataset=DATASET, **params):
    bundle = make_bundle(app_key, dataset.total_units, seed=2011, **params)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        dataset, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def test_transient_injection_run_is_bit_identical_and_accounted():
    bundle, index, stores = materialize()
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())

    spec = FaultSpec(transient_rate=FAULT_RATE, seed=7)
    trace = EventLog()
    faulted = {
        site: FaultInjector(s, spec, trace=trace) for site, s in stores.items()
    }
    runtime = CloudBurstingRuntime(
        bundle.app, index, faulted,
        ComputeSpec(local_cores=2, cloud_cores=2),
        retry_policy=RetryPolicy(
            max_attempts=8, base_backoff=0.001, max_backoff=0.01
        ),
        trace=trace, join_timeout=60.0,
    )
    result = runtime.run()
    telemetry = result.telemetry

    # Bit-identical to the fault-free oracle.
    np.testing.assert_array_equal(result.value, oracle)

    # Transient faults are absorbed *below* the slave-failure machinery.
    assert telemetry.slaves_failed == 0
    assert telemetry.jobs_reexecuted == 0
    assert telemetry.total_jobs == index.num_chunks

    injected = sum(inj.counters.transient for inj in faulted.values())
    assert telemetry.faults_injected == injected
    if FAULT_RATE > 0:
        assert injected > 0
        assert telemetry.retries > 0
        # Every injected transient was retried (none leaked to a failure).
        assert telemetry.retries >= injected
        assert trace.of_kind("fault_injected")
        assert trace.of_kind("retry")
    else:
        assert injected == 0 and telemetry.retries == 0


def test_hedging_run_with_latency_spikes_still_exact():
    bundle, index, stores = materialize()
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    spec = FaultSpec(
        transient_rate=FAULT_RATE / 2,
        latency_rate=0.3, latency_seconds=0.05, seed=13,
    )
    faulted = {site: FaultInjector(s, spec) for site, s in stores.items()}
    runtime = CloudBurstingRuntime(
        bundle.app, index, faulted,
        ComputeSpec(local_cores=2, cloud_cores=2),
        retry_policy=RetryPolicy(
            max_attempts=8, base_backoff=0.001, max_backoff=0.01,
            hedge_after=0.01,
        ),
        join_timeout=60.0,
    )
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 0
    # Latency spikes (50 ms) dwarf the hedge threshold (10 ms): hedges fire.
    assert result.telemetry.hedges > 0


def test_facade_chaos_run_via_env_rate():
    clean = run("histogram", DATASET, RunConfig(mode="runtime", seed=2011))
    chaotic = run(
        "histogram", DATASET,
        RunConfig(
            mode="runtime", seed=2011,
            resilience=ResilienceOptions(
                faults=FaultSpec(transient_rate=FAULT_RATE, seed=29),
                retry=RetryPolicy(max_attempts=8, base_backoff=0.001,
                                  max_backoff=0.01),
            ),
        ),
    )
    np.testing.assert_array_equal(chaotic.value, clean.value)
    assert chaotic.telemetry.slaves_failed == 0


def test_crash_recovery_telemetry_matches_injected_failures():
    """Satellite: injected whole-slave crashes are fully accounted.

    Combines the two recovery layers: the fault hook kills exactly one
    slave, and the telemetry must show exactly that — one failure, every
    one of the victim's jobs re-executed, final reduction unchanged.
    """
    bundle, index, stores = materialize(bins=32)
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())

    # The victim is whichever slave first starts a third job: 16 jobs on
    # four slaves hand some slave three however the scheduler interleaves.
    started: dict[int, list[int]] = {}
    victim: list[int] = []
    lock = threading.Lock()

    def crash_on_third_job(slave_id: int, job) -> None:
        with lock:
            if victim:
                return
            jobs = started.setdefault(slave_id, [])
            jobs.append(job.job_id)
            if len(jobs) < 3:
                return
            victim.append(slave_id)
        raise WorkerFailure("injected crash")

    trace = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=100),
        fault_hook=crash_on_third_job, trace=trace, join_timeout=60.0,
    )
    result = runtime.run()
    assert victim
    victim_jobs = started[victim[0]]
    np.testing.assert_array_equal(result.value, oracle)

    telemetry = result.telemetry
    assert telemetry.slaves_failed == 1
    # The victim completed two jobs and died holding a third; all of the
    # work it ever touched is re-executed.
    assert telemetry.jobs_reexecuted == len(victim_jobs)
    assert len(trace.of_kind("slave_failed")) == 1
    assert len(trace.of_kind("job_reexecuted")) == telemetry.jobs_reexecuted
    # Jobs the victim *completed* before dying are processed twice; the
    # in-flight one only ever completes on a survivor.
    completed_by_victim = len(victim_jobs) - 1
    assert telemetry.total_jobs == index.num_chunks + completed_by_victim


def test_spot_revocation_sweep_is_bit_identical_and_accounted():
    """Satellite: spot revocations ride the same recovery rails as
    crashes. At any swept ``REPRO_REVOKE_RATE`` the result matches the
    serial oracle bit for bit, every revocation is traced, and the
    ledger separates ``slaves_revoked`` from generic ``slaves_failed``.
    """
    from repro.options import ScaleOptions

    # 128 jobs: at every swept rate the seeded schedule fires well inside
    # each cloud slave's job share, however the scheduler interleaves.
    bundle, index, stores = materialize(
        dataset=DatasetSpec(
            total_bytes=32768 * 8, num_files=4, chunk_bytes=256 * 8,
            record_bytes=8,
        )
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())

    trace = EventLog()
    revoked = threading.Event()

    def hold_local_until_a_revocation(slave_id: int, job) -> None:
        # Slaves 0-1 are local. Held at their first job they cannot drain
        # the pool before a cloud slave has reached its seeded ordinal;
        # the surviving cloud slave releases them at its next job.
        if slave_id < 2:
            assert revoked.wait(30.0)
        elif trace.of_kind("revocation"):
            revoked.set()

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        scale=ScaleOptions(revocation=f"rate={REVOKE_RATE},seed=11"),
        fault_hook=hold_local_until_a_revocation if REVOKE_RATE > 0 else None,
        trace=trace, join_timeout=60.0,
    )
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)

    telemetry = result.telemetry
    assert telemetry.slaves_failed == 0
    assert telemetry.slaves_revoked == len(trace.of_kind("revocation"))
    if REVOKE_RATE > 0:
        # One of the two cloud slaves hits its seeded revocation ordinal;
        # the survivor is the cloud master's last active slave (the floor).
        assert telemetry.slaves_revoked == 1
        assert telemetry.jobs_reexecuted > 0
    else:
        assert telemetry.slaves_revoked == 0
        assert telemetry.jobs_reexecuted == 0


def test_permanent_faults_fail_fast_through_retry_layer():
    """A key that can never be read burns no retry budget: the error
    surfaces immediately (and would escalate to the middleware's
    slave-failure recovery, which cannot conjure unreachable bytes)."""
    from repro.errors import PermanentStorageError

    bundle, index, stores = materialize()
    spec = FaultSpec(permanent_substrings=("part-00000",))
    faulted = {site: FaultInjector(s, spec) for site, s in stores.items()}
    reader = DatasetReader(
        index, faulted, retrieval_threads=4,
        retry=RetryPolicy(max_attempts=5, base_backoff=0.0, max_backoff=0.0),
    )
    bad = next(j for j in index.jobs() if j.file_id == 0)
    with pytest.raises(PermanentStorageError):
        reader.read_job(bad, from_site=CLOUD_SITE)  # remote, 4 connections
    # Not a single retry was spent on it.
    assert reader.resilience.retries == 0
    hit = faulted[LOCAL_SITE].counters
    assert hit.permanent >= 1
