"""Simulated middleware nodes: master and slave processes.

A master is the executable runtime's own protocol core
(:class:`~repro.core.master.MasterCore`: job pool, one outstanding group
request, acks, the end-of-run rule) stepped from simulation processes,
over the same :class:`~repro.core.scheduler.HeadScheduler` the runtime's
head serves from. :class:`SimMaster` adds only costs: each group request
is a short-lived process paying the control round-trip, each group ack
pays half of it. Slaves are long-lived processes that loop
retrieve -> process until the master answers ``None``. The cluster's
combine and upload are modeled in :mod:`repro.sim.multisite`.
"""

from __future__ import annotations

from typing import Callable

from ..config import MiddlewareTuning
from ..core.job import Job
from ..core.master import Emit, MasterCore
from ..core.messages import (
    GroupComplete,
    JobReply,
    JobRequest,
    SlaveJobDone,
    SlaveJobRequest,
)
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
    """Cluster master: the shared :class:`~repro.core.master.MasterCore`
    plus what its head exchanges cost — the control round-trip per group
    request, half of it per group acknowledgement."""

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str,
        scheduler: HeadScheduler,
        *,
        control_rtt: float,
        cores: int,
        tuning: MiddlewareTuning,
        trace: EventLog | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.site = site
        self.scheduler = scheduler
        self.control_rtt = control_rtt
        self.trace = trace
        self.core = MasterCore(name, cores, tuning)

    def step(self, message) -> None:
        """Step the core with one message and carry out its actions."""
        env = self.env
        for action in self.core.step(message):
            if isinstance(action, Emit):
                if self.trace is not None:
                    self.trace.record(
                        env.now, action.kind, cluster=self.name, **action.fields
                    )
                continue
            message = action.message
            if isinstance(message, JobRequest):
                env.process(self._fetch(message.max_jobs), name=f"fetch:{self.name}")
            elif isinstance(message, GroupComplete):
                env.process(
                    self._ack(message.group_id),
                    name=f"ack:{self.name}:{message.group_id}",
                )
            elif isinstance(message, SlaveJobRequest):
                message.reply_to.succeed(None)  # woken: the slave asks again
            else:
                action.to.succeed(message)  # the slave's reply

    def get_job(self, slave_id: int):
        """Generator (``yield from``): next job, or ``None`` at end of run."""
        while True:
            reply = self.env.event()
            self.step(SlaveJobRequest(slave_id, reply_to=reply))
            if not reply.triggered:
                yield reply  # parked until answered or woken
            if reply.value is not None:
                return reply.value.job

    # -- head exchanges ----------------------------------------------------------

    def _fetch(self, max_jobs: int):
        yield self.env.timeout(self.control_rtt)
        self.step(JobReply(self.scheduler.request_jobs(self.name, max_jobs)))

    def _ack(self, group_id: int):
        yield self.env.timeout(self.control_rtt / 2.0)
        self.scheduler.complete_group(group_id)
        if self.trace is not None:
            self.trace.record(
                self.env.now, "group_acked", cluster=self.name,
                detail=f"group {group_id}",
            )


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
            job = yield from self.master.get_job(self.worker_id)
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
            self.master.step(SlaveJobDone(self.worker_id, job))
