"""The long-lived job service: many runs, many tenants, one cluster.

The paper's middleware owns the whole cluster for one reduction run.
:class:`JobService` generalizes that into a standing service: clients
``submit()`` runs and get :class:`~repro.service.RunHandle` objects back;
a weighted :class:`~repro.core.jobpool.FairShareQueue` picks the next run
to dispatch across tenants (stride scheduling — a weight-4 tenant
dispatches 4 runs per weight-1 run whenever both are backlogged, with
priorities honored within each tenant); admission control bounds
per-tenant backlog and global occupancy up front instead of letting an
overloaded service thrash.

Two execution shapes share one scheduler:

* ``workers=0`` (inline) — nothing executes until someone waits:
  ``handle.result()``, :meth:`JobService.drain` and
  :meth:`JobService.shutdown` drive queued runs on the calling thread in
  fair-share order. Fully deterministic.
* ``workers=N`` (threaded) — N dispatcher threads (spawned through the
  injected :mod:`repro.clock`, so tests drive them in virtual time)
  pull from the queue and execute concurrently; each run's head/master/
  slave machinery lives inside its executor call and is joined before
  the worker takes the next run.

Either way, slaves run on the service's one
:class:`~repro.runtime.crew.SlaveCrew`, installed around each execution:
its threads start with the first runs that need them, stay parked
between runs, and are joined by :meth:`JobService.shutdown`.

``drain()``/``shutdown()`` are deterministic on either clock: they loop
on the service clock (nudging a :class:`~repro.clock.FakeClock` forward
the same way :meth:`repro.obs.live.RunMonitor.stop` does), so a test can
assert "no orphaned slave threads after drain" without one real sleep.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .. import facade
from ..clock import SYSTEM_CLOCK, SystemClock
from ..config import DatasetSpec
from ..core.jobpool import FairShareQueue
from ..data.resident import ResidentDatasets
from ..errors import AdmissionError, ServiceError
from ..facade import RunConfig, RunResult
from ..obs.live import RunSample
from ..options import MonitorOptions
from ..runtime.crew import SlaveCrew
from .handles import RunHandle, RunState, RunStatus
from .journal import ServiceJournal

__all__ = ["TenantSpec", "JobService"]

#: Executor signature: (app, dataset, config) -> RunResult.
Executor = Callable[[Any, DatasetSpec, RunConfig], RunResult]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the service.

    ``weight`` sets the fair-share dispatch ratio relative to other
    tenants. ``max_pending`` bounds the tenant's queued-but-undispatched
    backlog and ``max_active`` its concurrently-executing runs; ``None``
    means unbounded. Admission rejects (never silently drops) past
    ``max_pending``; ``max_active`` merely defers dispatch.
    ``max_cloud_slaves`` caps how far this tenant's autoscaled runs may
    burst: at dispatch the run's ``ScaleOptions.max_slaves`` (and, if
    needed, ``min_slaves``) is clamped down to the quota, so no tenant
    can outspend its share of the cloud however ambitious its config.
    """

    name: str
    weight: float = 1.0
    max_pending: int | None = None
    max_active: int | None = None
    max_cloud_slaves: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant name cannot be empty")
        if self.weight <= 0:
            raise ServiceError(
                f"tenant {self.name!r} weight must be positive, "
                f"got {self.weight}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ServiceError(
                f"tenant {self.name!r} max_pending must be >= 1 or None"
            )
        if self.max_active is not None and self.max_active < 1:
            raise ServiceError(
                f"tenant {self.name!r} max_active must be >= 1 or None"
            )
        if self.max_cloud_slaves is not None and self.max_cloud_slaves < 1:
            raise ServiceError(
                f"tenant {self.name!r} max_cloud_slaves must be >= 1 or None"
            )


class _Run:
    """Service-side record of one submission (internal)."""

    __slots__ = (
        "run_id", "tenant", "priority", "app", "dataset", "config",
        "state", "token", "submitted_at", "started_at", "finished_at",
        "result", "error", "samples",
    )

    def __init__(
        self,
        run_id: str,
        tenant: str,
        priority: int,
        app: Any,
        dataset: DatasetSpec,
        config: RunConfig,
        submitted_at: float,
    ) -> None:
        self.run_id = run_id
        self.tenant = tenant
        self.priority = priority
        self.app = app
        self.dataset = dataset
        self.config = config
        self.state = RunState.QUEUED
        self.token = -1
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: RunResult | None = None
        self.error: BaseException | None = None
        self.samples: list[RunSample] = []


class JobService:
    """Admit, schedule, and execute many runs on one shared cluster.

    Parameters:

    * ``workers`` — dispatcher threads; ``0`` runs inline on whoever
      waits (see module docstring);
    * ``capacity`` — global bound on queued + running submissions;
      admission past it raises :class:`~repro.errors.AdmissionError`;
    * ``clock`` — time source for timestamps, waits, and worker spawning;
      pass a :class:`~repro.clock.FakeClock` to drive everything in
      virtual time;
    * ``executor`` — what actually runs a submission; defaults to
      :func:`repro.run` (tests inject stubs to model
      long-running work without real compute). It runs with the
      service's resident datasets installed, so a run that reaches the
      facade's dataset build over bytes an earlier run built reuses them
      (:mod:`repro.data.resident`; ``stats()["datasets"]``), and with
      the service's slave crew installed, so a runtime it builds runs its
      slaves on parked threads (:mod:`repro.runtime.crew`);
    * ``journal`` — optional path for a JSON state file: every
      transition is persisted and cross-process cancel requests
      (``repro cancel``) are honored at dispatch time.

    Tenants are declared with :meth:`register`; submitting under an
    unknown tenant auto-registers it at weight 1 with no quotas, so the
    single-tenant path needs zero ceremony.
    """

    #: Virtual seconds a FakeClock nudge advances per wait iteration, and
    #: the threaded workers' idle-poll period on that clock.
    _VIRTUAL_POLL = 0.05
    #: Real seconds a SystemClock worker idles before rechecking the queue
    #: (submissions wake it immediately through the condition).
    _REAL_POLL = 0.05

    def __init__(
        self,
        workers: int = 0,
        *,
        capacity: int | None = None,
        clock: Any = SYSTEM_CLOCK,
        executor: Executor = facade.run,
        journal: str | None = None,
        name: str = "repro-service",
    ) -> None:
        if workers < 0:
            raise ServiceError("workers cannot be negative")
        if capacity is not None and capacity < 1:
            raise ServiceError("capacity must be >= 1 or None")
        self.name = name
        self.capacity = capacity
        self._clock = clock
        self._executor = executor
        self._queue = FairShareQueue()
        self._tenants: dict[str, TenantSpec] = {}
        self._runs: dict[str, _Run] = {}
        self._active: dict[str, int] = {}
        self._pending = 0  # queued, not yet dispatched
        self._running = 0
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._draining = False
        self._stopped = False
        self._journal = ServiceJournal(journal) if journal else None
        #: Datasets built by earlier runs, handed to later runs over the
        #: same bytes instead of being rebuilt (:mod:`repro.data.resident`).
        self._datasets = ResidentDatasets()
        #: The threads every run's slaves and retrieval run on.
        self._crew = SlaveCrew()
        weakref.finalize(self, self._crew.close)
        self._threads: list[threading.Thread] = []
        self._workers = workers
        for i in range(workers):
            self._threads.append(
                self._clock.spawn(
                    self._worker_loop, name=f"service-worker:{name}:{i}"
                )
            )

    # -- tenancy -----------------------------------------------------------

    def register(self, tenant: TenantSpec) -> None:
        """Declare (or re-weight) a tenant. Idempotent per name."""
        with self._lock:
            self._tenants[tenant.name] = tenant
            self._queue.register(tenant.name, tenant.weight)
            self._active.setdefault(tenant.name, 0)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        app: Any,
        dataset: DatasetSpec,
        config: RunConfig | None = None,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> RunHandle:
        """Admit one run; returns its handle immediately.

        ``priority`` orders runs *within* the tenant (higher first);
        fairness across tenants is by registered weight. The config is
        checked with :meth:`RunConfig.validate` up front, so a conflicting
        config is the submitter's exception, not a worker-side failure ten
        minutes later.
        """
        config = (config or RunConfig()).validate()
        with self._cond:
            if self._stopped or self._draining:
                raise ServiceError(
                    f"service {self.name!r} is "
                    f"{'stopped' if self._stopped else 'draining'}; "
                    f"no new submissions"
                )
            spec = self._tenants.get(tenant)
            if spec is None:
                spec = TenantSpec(tenant)
                self._tenants[tenant] = spec
                self._queue.register(tenant, spec.weight)
                self._active.setdefault(tenant, 0)
            if (
                spec.max_pending is not None
                and self._queue.backlog(tenant) >= spec.max_pending
            ):
                raise AdmissionError(
                    f"tenant {tenant!r} already has {spec.max_pending} "
                    f"runs pending (max_pending); resubmit after some "
                    f"complete"
                )
            if (
                self.capacity is not None
                and self._pending + self._running >= self.capacity
            ):
                raise AdmissionError(
                    f"service {self.name!r} is at capacity "
                    f"({self.capacity} runs queued or running)"
                )
            run = _Run(
                run_id=f"run-{next(self._ids):05d}",
                tenant=tenant,
                priority=priority,
                app=app,
                dataset=dataset,
                config=config,
                submitted_at=self._clock.monotonic(),
            )
            run.token = self._queue.push(tenant, run, priority=priority)
            self._runs[run.run_id] = run
            self._pending += 1
            self._journal_sync()
            self._cond.notify_all()
        self._nudge()
        return RunHandle(self, run)

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Refuse new submissions and wait until every admitted run is
        terminal. Inline services execute the backlog right here, on the
        calling thread; threaded services wait for their workers (in
        virtual time under a FakeClock)."""
        with self._lock:
            self._draining = True
        deadline = (
            None if timeout is None else self._clock.monotonic() + timeout
        )
        while not self._quiet():
            if deadline is not None and self._clock.monotonic() >= deadline:
                raise ServiceError(
                    f"drain timed out after {timeout}s with "
                    f"{self._pending} queued and {self._running} running"
                )
            self._pump(None)

    def shutdown(self, *, cancel_pending: bool = False) -> None:
        """Drain (or cancel the backlog) and stop every worker thread.

        Idempotent. With ``cancel_pending`` the queued backlog is
        cancelled instead of executed; runs already dispatched always
        finish — the service never kills a live cluster's threads.
        """
        with self._lock:
            if self._stopped:
                return
            self._draining = True
            if cancel_pending:
                for run in list(self._runs.values()):
                    if run.state is RunState.QUEUED:
                        self._cancel_locked(run)
        self.drain()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            while thread.is_alive():
                self._nudge()
                thread.join(timeout=0.01)
        self._threads.clear()
        self._datasets.clear()
        self._crew.close()
        with self._lock:
            self._journal_sync()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Mapping[str, Any]:
        """Service-level snapshot: occupancy plus per-tenant counters."""
        with self._lock:
            per_tenant = {
                name: {
                    "weight": spec.weight,
                    "queued": self._queue.backlog(name),
                    "active": self._active.get(name, 0),
                    "dispatched": self._queue.dispatched.get(name, 0),
                    "submitted": self._queue.pushed.get(name, 0),
                }
                for name, spec in self._tenants.items()
            }
            return {
                "queued": self._pending,
                "running": self._running,
                "total_runs": len(self._runs),
                "draining": self._draining,
                "stopped": self._stopped,
                "tenants": per_tenant,
                "datasets": self._datasets.stats(),
            }

    def handle(self, run_id: str) -> RunHandle:
        """Re-acquire the handle for a known run id."""
        with self._lock:
            run = self._runs.get(run_id)
        if run is None:
            raise ServiceError(f"unknown run id {run_id!r}")
        return RunHandle(self, run)

    # -- scheduling core ---------------------------------------------------

    def _eligible(self, tenant: str) -> bool:
        spec = self._tenants[tenant]
        if spec.max_active is None:
            return True
        return self._active[tenant] < spec.max_active

    def _take_locked(self) -> _Run | None:
        """Pick and mark the next run RUNNING; None when nothing fits."""
        while True:
            picked = self._queue.take(eligible=self._eligible)
            if picked is None:
                return None
            _, run = picked
            # Cancelled runs never come back from take(): cancel discards
            # their queue token before flipping state.
            self._pending -= 1
            if self._journal is not None and self._journal.is_cancel_requested(
                run.run_id
            ):
                self._finish_locked(run, RunState.CANCELLED)
                continue
            run.state = RunState.RUNNING
            run.started_at = self._clock.monotonic()
            self._active[run.tenant] += 1
            self._running += 1
            self._journal_sync()
            return run

    def _execute(self, run: _Run) -> None:
        """Run one submission through the executor (no locks held)."""
        try:
            with self._datasets.active(), self._crew.active():
                result = self._executor(
                    run.app, run.dataset, self._exec_config(run)
                )
        except Exception as exc:  # noqa: BLE001 - report, don't kill worker
            with self._cond:
                run.error = exc
                self._finish_locked(run, RunState.FAILED, dispatched=True)
        else:
            with self._cond:
                run.result = result
                if result is not None and result.samples:
                    # A custom executor may bypass the fan-out callback;
                    # the result's ring is the run's timeline.
                    run.samples = list(result.samples)
                self._finish_locked(run, RunState.DONE, dispatched=True)

    def _exec_config(self, run: _Run) -> RunConfig:
        """Per-dispatch config: clamp the tenant's cloud-burst quota and
        tee monitor samples into the handle."""
        config = run.config
        spec = self._tenants.get(run.tenant)
        quota = spec.max_cloud_slaves if spec is not None else None
        if (
            quota is not None
            and config.scale.enabled
            and config.scale.max_slaves > quota
        ):
            config = dataclasses.replace(
                config,
                scale=dataclasses.replace(
                    config.scale,
                    max_slaves=quota,
                    min_slaves=min(config.scale.min_slaves, quota),
                ),
            )
        if not config.monitor.enabled:
            return config
        user_cb = config.monitor.on_sample

        def fan_out(sample: RunSample) -> None:
            run.samples.append(sample)
            with self._cond:
                self._cond.notify_all()
            if user_cb is not None:
                user_cb(sample)

        return dataclasses.replace(
            config,
            monitor=MonitorOptions(
                interval=config.monitor.interval,
                capacity=config.monitor.capacity,
                on_sample=fan_out,
            ),
        )

    def _finish_locked(
        self, run: _Run, state: RunState, *, dispatched: bool = False
    ) -> None:
        run.state = state
        run.finished_at = self._clock.monotonic()
        if dispatched:
            self._active[run.tenant] -= 1
            self._running -= 1
        self._journal_sync()
        self._cond.notify_all()

    def _cancel(self, run: _Run) -> bool:
        with self._cond:
            return self._cancel_locked(run)

    def _cancel_locked(self, run: _Run) -> bool:
        if run.state is not RunState.QUEUED:
            return False
        self._queue.discard(run.token)
        self._pending -= 1
        self._finish_locked(run, RunState.CANCELLED)
        return True

    def _status_of(self, run: _Run) -> RunStatus:
        with self._lock:
            ahead = 0
            if run.state is RunState.QUEUED:
                # Same-tenant runs that would dispatch before this one:
                # higher priority, or equal priority submitted earlier.
                ahead = sum(
                    1
                    for other in self._runs.values()
                    if other.tenant == run.tenant
                    and other.state is RunState.QUEUED
                    and other is not run
                    and (
                        other.priority > run.priority
                        or (
                            other.priority == run.priority
                            and other.token < run.token
                        )
                    )
                )
            return RunStatus(
                run_id=run.run_id,
                tenant=run.tenant,
                state=run.state,
                priority=run.priority,
                submitted_at=run.submitted_at,
                started_at=run.started_at,
                finished_at=run.finished_at,
                queued_ahead=ahead,
                error=str(run.error) if run.error is not None else None,
            )

    # -- waiting / driving -------------------------------------------------

    def _quiet(self) -> bool:
        with self._lock:
            return self._pending == 0 and self._running == 0

    def _pump(self, run: _Run | None) -> None:
        """Make progress toward ``run`` (or toward quiescence when None).

        Inline services execute the next fair-share pick on this thread;
        threaded services wait a beat for their workers, nudging a
        virtual clock so parked workers actually wake.
        """
        if self._workers == 0:
            with self._cond:
                nxt = self._take_locked()
            if nxt is not None:
                self._execute(nxt)
            elif not self._quiet():
                # Another thread is inline-executing; yield politely.
                self._wait_beat()
            return
        self._wait_beat()

    def _wait_beat(self) -> None:
        """One bounded, clock-appropriate wait for state to change."""
        if isinstance(self._clock, SystemClock):
            with self._cond:
                self._cond.wait(timeout=self._REAL_POLL)
        else:
            # Virtual time: move the clock so parked workers wake, then
            # give them a sliver of real scheduler time to run.
            self._clock.advance(self._VIRTUAL_POLL)
            time.sleep(0.0005)

    def _nudge(self) -> None:
        """Wake idle workers after a state change (no-op inline)."""
        if self._workers == 0:
            return
        if isinstance(self._clock, SystemClock):
            with self._cond:
                self._cond.notify_all()
        else:
            self._clock.advance(self._VIRTUAL_POLL)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                nxt = self._take_locked()
                if nxt is None and self._draining and self._pending == 0:
                    # Nothing left to start; quit once told to stop.
                    if self._stopped:
                        return
            if nxt is not None:
                self._execute(nxt)
                continue
            if isinstance(self._clock, SystemClock):
                with self._cond:
                    if self._stopped:
                        return
                    self._cond.wait(timeout=self._REAL_POLL)
            else:
                self._clock.sleep(self._VIRTUAL_POLL)

    # -- persistence -------------------------------------------------------

    def _journal_sync(self) -> None:
        if self._journal is None:
            return
        self._journal.record(
            {
                run.run_id: {
                    "tenant": run.tenant,
                    "state": run.state.value,
                    "priority": run.priority,
                    "app": run.app if isinstance(run.app, str) else repr(run.app),
                    "submitted_at": run.submitted_at,
                    "started_at": run.started_at,
                    "finished_at": run.finished_at,
                    "error": str(run.error) if run.error else None,
                }
                for run in self._runs.values()
            }
        )
