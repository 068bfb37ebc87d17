"""Simulated middleware nodes: master and slave processes.

These drive the *same* :class:`~repro.core.scheduler.HeadScheduler` and
:class:`~repro.core.jobpool.JobPool` the executable runtime uses — the
simulator only replaces bytes with costs. A master is a passive object
whose fetch logic runs as short-lived processes (one per head exchange,
paying the control round-trip); slaves are long-lived processes that loop
retrieve -> process until the global job supply is exhausted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..core.job import Job
from ..core.jobpool import JobPool
from ..core.scheduler import HeadScheduler
from ..obs import EventLog
from .computemodel import ComputeModel
from .engine import Environment, Event
from .metrics import SlaveMetrics

__all__ = ["SimMaster", "SimSlave", "FetchFn", "LeaseFn"]

#: ``fetch(job, slave_site, retrieval_threads) -> Event``. The callback owns
#: the path choice *and* the connection-count decision (a local disk read is
#: one sequential stream; object-store and cross-site fetches use the
#: configured retrieval threads).
FetchFn = Callable[[Job, str, int], Event]

#: ``lease(worker_id, jobs_processed) -> bool``: checked at every job
#: boundary before the slave asks for more work. ``False`` means the
#: instance is gone — retired by the autoscaler or revoked by the spot
#: market (see :class:`repro.scale.simmodel.ClusterBurst`) — and the slave
#: exits its loop cleanly. Leaving at the boundary loses no job, so the
#: report invariant "jobs processed == jobs assigned" holds unchanged.
LeaseFn = Callable[[int, int], bool]


class SimMaster:
    """Cluster master: keeps the slave-facing job pool filled from the head."""

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str,
        scheduler: HeadScheduler,
        *,
        control_rtt: float,
        low_water: int,
        group_size: int,
        trace: EventLog | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.site = site
        self.scheduler = scheduler
        self.control_rtt = control_rtt
        self.group_size = group_size
        self.trace = trace
        self.pool = JobPool(low_water=low_water)
        self._waiters: deque[Event] = deque()
        self._fetching = False
        self._no_more = False

    # -- static-assignment mode (ablation baseline) ----------------------------

    def preload(self, group) -> None:
        """Add a head-assigned group up front (static-split ablation)."""
        self.pool.add_group(group)

    def close_intake(self) -> None:
        """No further head exchanges: the pool is all this cluster gets.

        Used by the static-assignment baseline, which pre-partitions the
        job pool instead of letting masters request on demand — the
        load-balancing strategy the paper's pooling design replaces.
        """
        self._no_more = True

    # -- observability (the autoscaler's provisioner polls these) ------------

    @property
    def done(self) -> bool:
        """True once the head has no more jobs for us and ours are finished."""
        return self._no_more and self.pool.drained

    @property
    def idle_slaves(self) -> int:
        """Slaves currently parked waiting for the pool to refill."""
        return len(self._waiters)

    # -- slave-facing ---------------------------------------------------------

    def get_job(self):
        """Generator (``yield from``): next job, or ``None`` at end of run."""
        while True:
            job = self.pool.take()
            if job is not None:
                self._maybe_prefetch()
                return job
            if self._no_more:
                return None
            event = self.env.event()
            self._waiters.append(event)
            self._maybe_prefetch()
            yield event

    def job_done(self, job: Job) -> None:
        """Record completion; acknowledges finished groups to the head."""
        group_id = self.pool.mark_done(job.job_id)
        if group_id is not None:
            self.env.process(self._ack(group_id), name=f"ack:{self.name}:{group_id}")

    # -- head exchanges ----------------------------------------------------------

    def _ack(self, group_id: int):
        yield self.env.timeout(self.control_rtt / 2.0)
        self.scheduler.complete_group(group_id)
        if self.trace is not None:
            self.trace.record(
                self.env.now, "group_acked", cluster=self.name,
                detail=f"group {group_id}",
            )

    def _maybe_prefetch(self) -> None:
        if self._fetching or self._no_more:
            return
        if self.pool.needs_refill or self._waiters:
            self._fetching = True
            self.env.process(self._fetch(), name=f"fetch:{self.name}")

    def _fetch(self):
        yield self.env.timeout(self.control_rtt)
        group = self.scheduler.request_jobs(self.name, self.group_size)
        if group is None:
            self._no_more = True
        else:
            self.pool.add_group(group)
            if self.trace is not None:
                self.trace.record(
                    self.env.now, "group_assigned", cluster=self.name,
                    file_id=group.file_id,
                    detail=f"group {group.group_id} x{len(group)}",
                )
        self._fetching = False
        self._wake_waiters()
        self._maybe_prefetch()

    def _wake_waiters(self) -> None:
        while self._waiters:
            self._waiters.popleft().succeed()


class SimSlave:
    """One worker core: retrieve chunk, run local reduction, repeat."""

    def __init__(
        self,
        env: Environment,
        worker_id: int,
        site: str,
        master: SimMaster,
        fetch: FetchFn,
        compute: ComputeModel,
        *,
        retrieval_threads: int,
        trace: EventLog | None = None,
        lease: LeaseFn | None = None,
    ) -> None:
        self.env = env
        self.worker_id = worker_id
        self.site = site
        self.master = master
        self.fetch = fetch
        self.compute = compute
        self.retrieval_threads = retrieval_threads
        self.trace = trace
        #: Optional per-job-boundary liveness check (elastic bursting):
        #: when it answers ``False`` the instance is gone and the loop
        #: exits before taking another job.
        self.lease = lease
        self.metrics = SlaveMetrics(worker_id=worker_id)

    def run(self):
        """The slave process body (pass to ``env.process``)."""
        metrics = self.metrics
        while True:
            if self.lease is not None and not self.lease(
                self.worker_id, metrics.jobs
            ):
                break
            job = yield from self.master.get_job()
            if job is None:
                break
            started = self.env.now
            trace = self.trace
            if trace is not None:
                trace.record(
                    started, "fetch_start", cluster=self.master.name,
                    worker=self.worker_id, job_id=job.job_id,
                    file_id=job.file_id,
                )
            yield self.fetch(job, self.site, self.retrieval_threads)
            metrics.retrieval += self.env.now - started
            if trace is not None:
                trace.record(
                    self.env.now, "fetch_end", cluster=self.master.name,
                    worker=self.worker_id, job_id=job.job_id,
                    file_id=job.file_id,
                )
            seconds = self.compute.job_seconds(
                self.site, self.worker_id, job.num_units
            )
            if trace is not None:
                trace.record(
                    self.env.now, "compute_start", cluster=self.master.name,
                    worker=self.worker_id, job_id=job.job_id,
                )
            yield self.env.timeout(seconds)
            metrics.processing += seconds
            metrics.jobs += 1
            if trace is not None:
                trace.record(
                    self.env.now, "compute_end", cluster=self.master.name,
                    worker=self.worker_id, job_id=job.job_id,
                )
                trace.record(
                    self.env.now, "job_done", cluster=self.master.name,
                    worker=self.worker_id, job_id=job.job_id,
                )
            self.master.job_done(job)
