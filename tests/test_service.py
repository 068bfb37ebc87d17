"""JobService: submit/handle lifecycle, admission, fairness, drain.

Real-execution tests use tiny datasets through :func:`repro.run`
(the default executor); scheduling-behavior tests inject stub executors
on a :class:`~repro.clock.FakeClock` so nothing sleeps for real.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (
    DatasetSpec,
    FakeClock,
    JobService,
    MonitorOptions,
    RunConfig,
    RunState,
    TenantSpec,
)
from repro.errors import (
    AdmissionError,
    RunCancelledError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.facade import RunResult

from conftest import middleware_threads

DATASET = DatasetSpec(
    total_bytes=2048 * 4, num_files=4, chunk_bytes=512, record_bytes=4
)
SERIAL = RunConfig(mode="serial", seed=5)


def virtual_executor(clock: FakeClock, seconds: float = 1.0):
    """An executor that 'works' for virtual seconds and echoes its app."""

    def execute(app, dataset, config):
        clock.sleep(seconds)
        return RunResult(value=app, mode="stub", wall_seconds=seconds)

    return execute


# -- the single-run door ------------------------------------------------------


def test_run_is_equivalent_to_run_direct():
    # One function under both names; a service submission returns what it does.
    from repro.facade import run_direct

    assert repro.run is run_direct
    direct = repro.run("wordcount", DATASET, SERIAL)
    with JobService() as service:
        via_service = service.submit("wordcount", DATASET, SERIAL).result()
    assert via_service.value == direct.value
    assert via_service.mode == direct.mode == "serial"


def test_run_reraises_engine_errors_like_run_direct():
    from repro.errors import ConfigurationError

    bad = RunConfig(mode="serial", iterations=3)  # wordcount has no update()
    with pytest.raises(ConfigurationError, match="update"):
        repro.run("wordcount", DATASET, bad)
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, bad)
        with pytest.raises(ConfigurationError, match="update"):
            handle.result()


def test_run_stays_permissive_where_submit_validates():
    # prefetch-with-no-cache is a validate() conflict: run() accepts (and
    # ignores) it, JobService.submit refuses it.
    permissive = RunConfig(
        mode="serial", cache=repro.CacheOptions(prefetch=True)
    )
    assert repro.run("wordcount", DATASET, permissive).value
    with JobService() as service:
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="prefetch"):
            service.submit("wordcount", DATASET, permissive)


# -- inline lifecycle ---------------------------------------------------------


def test_inline_submit_result_and_status_lifecycle():
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, SERIAL)
        status = handle.status()
        assert status.state is RunState.QUEUED
        assert status.started_at is None and status.finished_at is None
        result = handle.result()
        assert result.value is not None
        status = handle.status()
        assert status.state is RunState.DONE
        assert status.finished_at >= status.started_at >= status.submitted_at
        assert handle.done()
        # Terminal handles answer forever, incl. via re-acquired handles.
        assert service.handle(handle.run_id).result().value is not None


def test_cancel_is_idempotent_and_only_true_once():
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, SERIAL)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert handle.status().state is RunState.CANCELLED
        with pytest.raises(RunCancelledError):
            handle.result()
        # A finished run cannot be cancelled.
        done = service.submit("wordcount", DATASET, SERIAL)
        done.result()
        assert done.cancel() is False


def test_failed_run_reraises_original_exception_and_reports_error():
    def boom(app, dataset, config):
        raise ValueError("kaput")

    with JobService(executor=boom) as service:
        handle = service.submit("x", DATASET, SERIAL)
        with pytest.raises(ValueError, match="kaput"):
            handle.result()
        status = handle.status()
        assert status.state is RunState.FAILED
        assert "kaput" in status.error


def test_queued_ahead_counts_same_tenant_dispatch_order():
    with JobService() as service:
        low = service.submit("a", DATASET, SERIAL, priority=0)
        high = service.submit("b", DATASET, SERIAL, priority=5)
        later = service.submit("c", DATASET, SERIAL, priority=0)
        assert high.status().queued_ahead == 0
        assert low.status().queued_ahead == 1  # behind high
        assert later.status().queued_ahead == 2  # behind high and low


# -- admission control --------------------------------------------------------


def test_max_pending_quota_rejects_loudly():
    service = JobService()
    service.register(TenantSpec("t", max_pending=2))
    service.submit("a", DATASET, SERIAL, tenant="t")
    service.submit("b", DATASET, SERIAL, tenant="t")
    with pytest.raises(AdmissionError, match="max_pending"):
        service.submit("c", DATASET, SERIAL, tenant="t")
    # Other tenants are unaffected by t's quota.
    service.submit("d", DATASET, SERIAL, tenant="other")
    service.shutdown(cancel_pending=True)


def test_global_capacity_rejects_across_tenants():
    service = JobService(capacity=2)
    service.submit("a", DATASET, SERIAL, tenant="t1")
    service.submit("b", DATASET, SERIAL, tenant="t2")
    with pytest.raises(AdmissionError, match="capacity"):
        service.submit("c", DATASET, SERIAL, tenant="t3")
    service.shutdown(cancel_pending=True)


def test_cancel_frees_quota_and_capacity():
    service = JobService(capacity=1)
    service.register(TenantSpec("t", max_pending=1))
    first = service.submit("wordcount", DATASET, SERIAL, tenant="t")
    first.cancel()
    second = service.submit("wordcount", DATASET, SERIAL, tenant="t")
    assert second.result().value is not None
    service.shutdown()


def test_max_active_defers_but_never_rejects():
    clock = FakeClock()
    service = JobService(
        workers=2, clock=clock, executor=virtual_executor(clock)
    )
    service.register(TenantSpec("t", max_active=1))
    handles = [
        service.submit(f"app{i}", DATASET, SERIAL, tenant="t")
        for i in range(4)
    ]
    for handle in handles:
        assert handle.result(timeout=1000).value.startswith("app")
    # With max_active=1 on 2 workers the runs serialized: 4 virtual
    # seconds of work means the clock saw at least 4 virtual seconds.
    assert clock.monotonic() >= 4.0
    service.shutdown()
    clock.close()


def test_submitting_after_drain_or_shutdown_raises():
    service = JobService()
    service.drain()
    with pytest.raises(ServiceError, match="draining"):
        service.submit("a", DATASET, SERIAL)
    service.shutdown()
    with pytest.raises(ServiceError, match="stopped"):
        service.submit("a", DATASET, SERIAL)


# -- fairness with real scheduling (virtual time) -----------------------------


def test_weighted_fairness_on_fake_clock():
    clock = FakeClock()
    service = JobService(
        workers=1, clock=clock, executor=virtual_executor(clock)
    )
    service.register(TenantSpec("gold", weight=3))
    service.register(TenantSpec("bronze", weight=1))
    completion: list[str] = []
    handles = []
    for i in range(8):
        for tenant in ("gold", "bronze"):
            handles.append(
                service.submit(f"{tenant}-{i}", DATASET, SERIAL, tenant=tenant)
            )
    for handle in handles:
        handle.result(timeout=10_000)
    # Reconstruct dispatch order from started_at timestamps.
    order = sorted(
        (service.handle(h.run_id)._record() for h in handles),
        key=lambda run: run.started_at,
    )
    first_eight = [run.tenant for run in order[:8]]
    assert first_eight.count("gold") == 6  # 3:1 split while both backlogged
    service.shutdown()
    clock.close()


def test_priority_preempts_queue_order_within_tenant():
    clock = FakeClock()
    service = JobService(
        workers=1, clock=clock, executor=virtual_executor(clock)
    )
    low = service.submit("low", DATASET, SERIAL, priority=0)
    high = service.submit("high", DATASET, SERIAL, priority=10)
    low.result(timeout=1000)
    high.result(timeout=1000)
    low_run, high_run = low._record(), high._record()
    # 'high' was submitted later but dispatched first... unless the lone
    # worker grabbed 'low' before 'high' arrived — tolerate that race by
    # checking dispatch order only when both were queued together.
    if low_run.started_at > low_run.submitted_at:
        assert high_run.started_at <= low_run.started_at
    service.shutdown()
    clock.close()


# -- timeouts and streaming ---------------------------------------------------


def test_result_timeout_abandons_wait_not_work():
    clock = FakeClock()
    service = JobService(
        workers=1, clock=clock, executor=virtual_executor(clock, seconds=50.0)
    )
    handle = service.submit("slow", DATASET, SERIAL)
    with pytest.raises(ServiceTimeoutError, match="still"):
        handle.result(timeout=1.0)
    # The run survives the abandoned wait and completes.
    assert handle.result(timeout=10_000).value == "slow"
    service.shutdown()
    clock.close()


def test_stream_replays_monitor_samples_inline():
    config = RunConfig(
        mode="runtime", seed=5, monitor=MonitorOptions(interval=0.01)
    )
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, config)
        streamed = list(handle.stream())
        assert streamed, "monitored run streamed no samples"
        assert streamed == handle.result().samples
        assert [s.time for s in streamed] == sorted(s.time for s in streamed)


def test_stream_tees_without_stealing_users_callback():
    seen: list = []
    config = RunConfig(
        mode="runtime",
        seed=5,
        monitor=MonitorOptions(interval=0.01, on_sample=seen.append),
    )
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, config)
        streamed = list(handle.stream())
    assert seen == streamed


def test_stream_on_unmonitored_run_yields_nothing():
    with JobService() as service:
        handle = service.submit("wordcount", DATASET, SERIAL)
        assert list(handle.stream()) == []
        assert handle.status().state is RunState.DONE


# -- drain / shutdown hygiene -------------------------------------------------


def test_drain_completes_backlog_and_leaves_no_orphan_threads():
    service = JobService(workers=2, name="hygiene")
    handles = [
        service.submit("wordcount", DATASET, SERIAL, tenant=f"t{i % 3}")
        for i in range(6)
    ]
    service.drain()
    for handle in handles:
        assert handle.status().state is RunState.DONE
    service.shutdown()
    leftover = middleware_threads()
    assert not leftover, f"orphaned threads after shutdown: {leftover}"


def test_shutdown_cancel_pending_spares_nothing_queued():
    service = JobService()
    handles = [service.submit(f"a{i}", DATASET, SERIAL) for i in range(3)]
    service.shutdown(cancel_pending=True)
    assert all(h.status().state is RunState.CANCELLED for h in handles)
    # Idempotent.
    service.shutdown()


def test_runtime_runs_through_threaded_service_match_direct():
    direct = repro.run(
        "histogram",
        DatasetSpec(
            total_bytes=2048 * 8, num_files=4, chunk_bytes=1024,
            record_bytes=8,
        ),
        RunConfig(mode="runtime", seed=5),
    )
    with JobService(workers=2) as service:
        handles = [
            service.submit(
                "histogram",
                DatasetSpec(
                    total_bytes=2048 * 8, num_files=4, chunk_bytes=1024,
                    record_bytes=8,
                ),
                RunConfig(mode="runtime", seed=5),
            )
            for _ in range(4)
        ]
        for handle in handles:
            np.testing.assert_array_equal(
                np.asarray(handle.result(timeout=60).value),
                np.asarray(direct.value),
            )
    assert not middleware_threads()


def test_stats_snapshot_shape():
    service = JobService(capacity=10)
    service.register(TenantSpec("t", weight=2))
    service.submit("a", DATASET, SERIAL, tenant="t")
    stats = service.stats()
    assert stats["queued"] == 1 and stats["running"] == 0
    assert stats["tenants"]["t"]["weight"] == 2
    assert stats["tenants"]["t"]["queued"] == 1
    service.shutdown()
    assert service.stats()["stopped"] is True


# -- the journal on disk ------------------------------------------------------


def test_journal_corruption_reports_path_not_traceback(tmp_path):
    """A journal overwritten with garbage — textual or binary — surfaces
    as a ServiceError naming the file, never a raw decode traceback."""
    from repro.service import ServiceJournal

    path = tmp_path / "state.json"
    path.write_text("{not json", encoding="utf-8")
    journal = ServiceJournal(str(path))
    with pytest.raises(ServiceError, match="not valid JSON") as excinfo:
        journal.read()
    assert str(path) in str(excinfo.value)

    path.write_bytes(b"\xff\xfe\x00garbage\x80")  # invalid UTF-8
    with pytest.raises(ServiceError, match="not valid JSON") as excinfo:
        journal.read()
    assert str(path) in str(excinfo.value)

    path.write_text("[1, 2, 3]", encoding="utf-8")  # valid JSON, wrong shape
    with pytest.raises(ServiceError, match="must hold a JSON object"):
        journal.read()


# -- per-tenant scaling quotas ------------------------------------------------


def test_tenant_cloud_quota_clamps_scale_options():
    """A tenant's ``max_cloud_slaves`` caps how far its runs may burst:
    the dispatched config's ScaleOptions is clamped to the quota (both
    bounds), while unquota'd tenants run their config untouched."""
    from repro.options import ScaleOptions

    config = RunConfig(
        mode="runtime",
        scale=ScaleOptions(autoscale=True, min_slaves=3, max_slaves=8,
                           budget=5.0),
    )
    service = JobService()
    service.register(TenantSpec("capped", max_cloud_slaves=2))
    capped = service.submit("histogram", DATASET, config, tenant="capped")
    free = service.submit("histogram", DATASET, config, tenant="free")
    eff = service._exec_config(service._runs[capped.run_id])
    assert (eff.scale.max_slaves, eff.scale.min_slaves) == (2, 2)
    assert service._exec_config(service._runs[free.run_id]).scale.max_slaves == 8
    # The submitted config object itself is never mutated.
    assert config.scale.max_slaves == 8
    service.shutdown()
    with pytest.raises(ServiceError, match="max_cloud_slaves"):
        TenantSpec("bad", max_cloud_slaves=0)
