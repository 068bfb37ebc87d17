"""Property tests for JobService concurrency invariants.

Every example runs on a :class:`~repro.clock.FakeClock` with stub
executors, so hypothesis can explore hundreds of tenant/weight/sequence
shapes without one real sleep. The invariants pinned here:

* fair-share dispatch matches registered weights within a constant
  per-tenant slack while every tenant is backlogged;
* ``max_pending`` and ``max_active`` quotas are never exceeded, and
  admission rejects exactly at the boundary;
* ``cancel()`` is idempotent — true at most once, cancelled runs never
  execute, everything else completes;
* after ``drain()``/``shutdown()`` no service or middleware thread
  survives and every admitted run is terminal.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FakeClock, JobService, RunState, TenantSpec
from repro.errors import AdmissionError, RunCancelledError
from repro.facade import RunResult

from conftest import middleware_threads

DATASET = None  # stub executors ignore the dataset entirely


def instant_executor(record: list | None = None):
    """Executes in zero time; optionally records (tenant, app) order."""

    def execute(app, dataset, config):
        if record is not None:
            record.append(app)
        return RunResult(value=app, mode="stub", wall_seconds=0.0)

    return execute


def weights_strategy():
    return st.lists(
        st.integers(min_value=1, max_value=8), min_size=2, max_size=4
    )


# -- fairness ----------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(weights=weights_strategy(), backlog=st.integers(4, 10))
def test_dispatch_ratio_tracks_weights_while_backlogged(weights, backlog):
    clock = FakeClock()
    order: list[str] = []
    service = JobService(clock=clock, executor=instant_executor(order))
    tenants = [f"t{i}" for i in range(len(weights))]
    for name, weight in zip(tenants, weights):
        service.register(TenantSpec(name, weight=weight))
    for i in range(backlog):
        for name in tenants:
            service.submit(name, DATASET, tenant=name)
    service.drain()
    service.shutdown()
    clock.close()

    # Window where every tenant provably still had work queued.
    total = sum(weights)
    window = max(
        len(tenants), backlog * total // max(weights) - len(tenants)
    )
    prefix = order[:window]
    for name, weight in zip(tenants, weights):
        expected = window * weight / total
        got = prefix.count(name)
        assert abs(got - expected) <= len(tenants), (
            f"{name} (weight {weight}) got {got} of {window} dispatches, "
            f"expected ~{expected:.1f}"
        )


# -- quotas ------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    max_pending=st.integers(1, 4),
    attempts=st.integers(1, 10),
)
def test_max_pending_never_exceeded_and_rejects_at_boundary(
    max_pending, attempts
):
    clock = FakeClock()
    service = JobService(clock=clock, executor=instant_executor())
    service.register(TenantSpec("t", max_pending=max_pending))
    admitted = 0
    for i in range(attempts):
        backlog = service.stats()["tenants"]["t"]["queued"]
        assert backlog <= max_pending
        if backlog >= max_pending:
            try:
                service.submit(f"a{i}", DATASET, tenant="t")
            except AdmissionError:
                pass
            else:
                raise AssertionError("admission past max_pending")
        else:
            service.submit(f"a{i}", DATASET, tenant="t")
            admitted += 1
    assert admitted == min(attempts, max_pending)
    service.shutdown(cancel_pending=True)
    clock.close()


@settings(deadline=None, max_examples=15)
@given(
    max_active=st.integers(1, 2),
    workers=st.integers(2, 4),
    runs=st.integers(3, 8),
)
def test_max_active_quota_never_exceeded_under_workers(
    max_active, workers, runs
):
    clock = FakeClock()
    gauge_lock = threading.Lock()
    active = {"now": 0, "peak": 0}

    def execute(app, dataset, config):
        with gauge_lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        clock.sleep(0.5)
        with gauge_lock:
            active["now"] -= 1
        return RunResult(value=app, mode="stub", wall_seconds=0.5)

    service = JobService(workers=workers, clock=clock, executor=execute)
    service.register(TenantSpec("t", max_active=max_active))
    handles = [
        service.submit(f"a{i}", DATASET, tenant="t") for i in range(runs)
    ]
    for handle in handles:
        assert handle.result(timeout=10_000).value is not None
    service.shutdown()
    clock.close()
    assert active["peak"] <= max_active
    assert active["now"] == 0


# -- cancellation ------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(
        st.one_of(
            st.none(),  # submit
            st.integers(0, 14),  # cancel handle[i % submitted], twice
        ),
        min_size=1,
        max_size=15,
    )
)
def test_cancel_idempotent_and_cancelled_runs_never_execute(ops):
    clock = FakeClock()
    executed: list[str] = []
    service = JobService(clock=clock, executor=instant_executor(executed))
    handles = []
    cancelled_ids = set()
    for op in ops:
        if op is None:
            handles.append(
                service.submit(f"a{len(handles)}", DATASET)
            )
        elif handles:
            handle = handles[op % len(handles)]
            first = handle.cancel()
            second = handle.cancel()
            assert second is False, "second cancel returned True"
            if first:
                cancelled_ids.add(handle.run_id)
                assert handle.status().state is RunState.CANCELLED
    service.drain()
    service.shutdown()
    clock.close()

    for handle in handles:
        state = handle.status().state
        assert state.terminal
        if handle.run_id in cancelled_ids:
            assert state is RunState.CANCELLED
            try:
                handle.result()
            except RunCancelledError:
                pass
            else:
                raise AssertionError("cancelled run returned a result")
        else:
            assert state is RunState.DONE
    # Exactly the non-cancelled submissions executed, no more, no less.
    assert len(executed) == len(handles) - len(cancelled_ids)


# -- drain hygiene -----------------------------------------------------------


@settings(deadline=None, max_examples=15)
@given(
    workers=st.integers(0, 3),
    weights=weights_strategy(),
    runs=st.integers(1, 8),
    cancel_pending=st.booleans(),
)
def test_drain_leaves_no_orphans_and_all_runs_terminal(
    workers, weights, runs, cancel_pending
):
    clock = FakeClock()

    def execute(app, dataset, config):
        clock.sleep(0.1)
        return RunResult(value=app, mode="stub", wall_seconds=0.1)

    service = JobService(workers=workers, clock=clock, executor=execute)
    tenants = [f"t{i}" for i in range(len(weights))]
    for name, weight in zip(tenants, weights):
        service.register(TenantSpec(name, weight=weight))
    handles = [
        service.submit(f"a{i}", DATASET, tenant=tenants[i % len(tenants)])
        for i in range(runs)
    ]
    service.shutdown(cancel_pending=cancel_pending)
    leftover = middleware_threads()
    clock.close()

    assert not leftover, f"threads survived shutdown: {leftover}"
    states = [h.status().state for h in handles]
    assert all(state.terminal for state in states)
    if not cancel_pending:
        assert all(state is RunState.DONE for state in states)
    stats = service.stats()
    assert stats["queued"] == 0 and stats["running"] == 0
    assert stats["stopped"] is True
