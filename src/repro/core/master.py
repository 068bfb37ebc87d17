"""The cluster master's protocol, shared by the runtime and the simulator.

Section III-B: a master keeps its cluster's job pool filled from the head,
serves slaves one job at a time, acknowledges completed groups, and, once
the global pool is drained, combines its slaves' reduction objects with
its children's uploads. :class:`MasterCore` is that policy as
``step(message) -> actions`` over the :mod:`repro.core.messages`
vocabulary: no threads, no clock reads (a shell passes the time it took
the message, for the cluster report's stamps). The runtime's
:class:`~repro.runtime.master.MasterNode` and the simulator's
:class:`~repro.sim.simnodes.SimMaster` are shells that carry the actions
out; a test can step it directly.

The core also owns the cluster's churn, one rule for both engines: it
retires requesting slaves on a :class:`~repro.core.messages.SlaveDetach`,
rolls a revocable cluster's spot die each time it would hand a slave a
job, and re-executes the uncommitted jobs of a slave that crashed or was
revoked. Neither a retirement nor a revocation takes the last active
slave.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..config import MiddlewareTuning
from ..errors import RuntimeProtocolError
from .job import Job
from .jobpool import JobPool
from .messages import (
    GroupComplete,
    JobReply,
    JobRequest,
    ReductionUpload,
    SlaveAttach,
    SlaveDetach,
    SlaveFailed,
    SlaveJobDone,
    SlaveJobReply,
    SlaveJobRequest,
    SlaveReduction,
)
from .reduction import ReductionObject
from .sync import SyncCodec, UploadReceipts

if TYPE_CHECKING:  # avoid a core <-> scale import cycle
    from ..scale.revocation import RevocationSpec

__all__ = ["Post", "Start", "Emit", "Ship", "MasterCore"]


@dataclass(frozen=True)
class Post:
    """Deliver ``message`` at address ``to``. A parked request is woken by
    posting it back to the master's own inbox: it is asked again."""

    to: Any
    message: Any


@dataclass(frozen=True)
class Start:
    """Start an attached slave worker."""

    worker: Any


@dataclass(frozen=True)
class Emit:
    """One trace event of this cluster."""

    kind: str
    fields: dict


@dataclass(frozen=True)
class Ship:
    """Merge ``parts`` in this order; ship the result, which covers
    ``origins``, to the parent in the sync plan."""

    parts: tuple[ReductionObject, ...]
    origins: tuple[str, ...]


class MasterCore:
    """One master: ``head`` and ``inbox`` are opaque addresses (head-bound
    messages go to ``head``; the head answers at ``inbox``),
    ``children``/``codec``/``stream`` are its slice of the sync plan, and
    ``revocation`` is the spot die of a revocable (cloud) cluster."""

    def __init__(
        self,
        name: str,
        num_slaves: int,
        tuning: MiddlewareTuning | None = None,
        *,
        head: Any = None,
        inbox: Any = None,
        children: tuple[str, ...] = (),
        codec: SyncCodec | None = None,
        stream: bool = False,
        revocation: RevocationSpec | None = None,
    ) -> None:
        if num_slaves <= 0:
            raise RuntimeProtocolError("a cluster needs at least one slave")
        tuning = tuning or MiddlewareTuning()
        self.name = name
        self.head = head
        self.inbox = inbox
        self.group_size = tuning.job_group_size
        # The refill point scales with the slave count (capped) so several
        # files stay in flight at once, while staying shallow enough that
        # a slow cluster does not hoard jobs the other could steal.
        self.pool = JobPool(
            low_water=max(tuning.pool_low_water, min(num_slaves // 2, 8))
        )
        self.stream = stream
        self.revocation = revocation
        self.receipts = UploadReceipts(f"master {name!r}", children, codec)
        self.waiting: deque[SlaveJobRequest] = deque()  # parked requests
        self.fetching = False  # one group request outstanding at a time
        self.exhausted = False  # the head answered ``None``
        self.finished = False  # the combined object was shipped
        # Dead and retired slaves: their requests are answered ``None``. A
        # prefetching slave can have one in flight when it dies, and a job
        # handed to it would strand.
        self.gone: set[int] = set()
        self.retire_pending = 0  # SlaveDetach: retire at the next requests
        self.active = num_slaves  # neither dead nor retired
        self.expected = num_slaves  # final objects still owed
        # Jobs handed to each slave and not committed by a partial: a
        # dead or revoked slave's object is lost, so these are re-executed.
        self.jobs_by_slave: dict[int, list[Job]] = {}
        # Revocable clusters only: jobs handed to each slave (the die's
        # ordinal), and the revoked slaves, whose later messages are void.
        self.handed: dict[int, int] = {}
        self.revoked: set[int] = set()
        self.robjs: list[SlaveReduction] = []
        # Streamed partials (and, streaming, child uploads) fold on
        # arrival; barrier-mode child uploads merge in plan order.
        self.stream_acc: ReductionObject | None = None
        #: Stamps for the cluster report, in the shells' ``now``: the last
        #: slave's final hand-over or failure, each child's upload.
        self.processing_end = 0.0
        self.arrivals: dict[str, float] = {}
        self.slaves_failed = 0
        self.slaves_revoked = 0
        self.slaves_added = 0
        self.jobs_reexecuted = 0
        self.sync_partial_merges = 0

    @property
    def run_over(self) -> bool:
        """No job will ever become available again. While a job is in
        flight its holder may die and the job return, so idle slaves
        park rather than exit (fault tolerance)."""
        return self.exhausted and self.pool.drained

    def step(self, message, now: float = 0.0) -> list:
        """Take one message, taken at ``now``; returns the actions to carry
        out, in order."""
        if isinstance(message, SlaveJobRequest):
            actions = self._request(message)
        elif isinstance(message, SlaveJobDone):
            actions = self._job_done(message)
        elif isinstance(message, JobReply):
            actions = self._refilled(message.group)
        elif isinstance(message, SlaveFailed):
            actions = self._failed(message, now)
        elif isinstance(message, SlaveReduction):
            actions = self._reduction(message, now)
        elif isinstance(message, ReductionUpload):
            actions = self._upload(message, now)
        elif isinstance(message, SlaveAttach):
            actions = self._attach(message.workers)
        elif isinstance(message, SlaveDetach):
            self.retire_pending += message.count
            actions = []
        else:
            raise RuntimeProtocolError(
                f"master {self.name!r} received {type(message).__name__}"
            )
        if not self.finished and len(self.robjs) >= self.expected:
            if not self.receipts.pending:
                actions.append(self._combine())
        return actions

    def _request(self, request: SlaveJobRequest) -> list:
        slave = request.slave_id
        if slave in self.gone:
            return [Post(request.reply_to, SlaveJobReply(None))]
        if self.retire_pending > 0 and self.active > 1:
            # Never retire the last active slave: pooled or in-flight
            # jobs would strand forever.
            self.retire_pending -= 1
            self.active -= 1
            self.gone.add(slave)
            return [
                Post(request.reply_to, SlaveJobReply(None)),
                Emit("scale_down", {"worker": slave, "detail": "slave retired"}),
            ]
        if self.revocation is not None and len(self.pool):
            handed = self.handed.get(slave, 0)
            if self.active > 1 and self.revocation.draw(slave, handed):
                return self._revoke(request, handed)
            self.handed[slave] = handed + 1
        job = self.pool.take()
        if job is not None:
            self.jobs_by_slave.setdefault(slave, []).append(job)
            return [Post(request.reply_to, SlaveJobReply(job)), *self._refill()]
        if self.run_over:
            return [Post(request.reply_to, SlaveJobReply(None))]
        self.waiting.append(request)
        return self._refill()

    def _refill(self) -> list:
        if self.fetching or self.exhausted:
            return []
        if not (self.pool.needs_refill or self.waiting):
            return []
        self.fetching = True
        request = JobRequest(self.name, reply_to=self.inbox, max_jobs=self.group_size)
        return [Post(self.head, request)]

    def _refilled(self, group) -> list:
        actions = []
        if group is None:
            self.exhausted = True
        else:
            self.pool.add_group(group)
            detail = f"group {group.group_id} x{len(group)}"
            actions.append(
                Emit("group_assigned", {"file_id": group.file_id, "detail": detail})
            )
        self.fetching = False
        return actions + self._wake() + self._refill()

    def _wake(self) -> list:
        woken = [Post(self.inbox, request) for request in self.waiting]
        self.waiting.clear()
        return woken

    def _job_done(self, message: SlaveJobDone) -> list:
        if self.revoked and message.slave_id in self.revoked:
            return []  # requeued at the revocation: its re-run reports it
        group_id = self.pool.mark_done(message.job.job_id)
        actions = []
        if group_id is not None:
            actions.append(Post(self.head, GroupComplete(self.name, group_id)))
        if self.run_over:
            actions += self._wake()  # parked slaves may now exit
        return actions

    def _failed(self, message: SlaveFailed, now: float) -> list:
        slave = message.slave_id
        if slave in self.revoked:
            return []  # written off at the revocation
        self.processing_end = now
        self.expected -= 1
        if slave not in self.gone:  # a retired slave left ``active`` already
            self.active -= 1
        self.slaves_failed += 1
        self.gone.add(slave)
        reruns = self._requeue(slave)
        if self.active == 0:  # retired slaves are gone too: nobody reruns
            raise RuntimeProtocolError(f"master {self.name!r}: every slave failed")
        detail = f"{len(reruns)} jobs to re-execute"
        return [
            Emit("slave_failed", {"worker": slave, "detail": detail}),
            *reruns,
            *self._wake(),  # recovered jobs, or a dead slave's end
        ]

    def _revoke(self, request: SlaveJobRequest, handed: int) -> list:
        """The spot market reclaims the requester's instance: the answer is
        ``None``, its object is lost and whatever it sends later is
        dropped, so its uncommitted jobs run again on the others."""
        slave = request.slave_id
        self.expected -= 1
        self.active -= 1
        self.slaves_revoked += 1
        self.gone.add(slave)
        self.revoked.add(slave)
        detail = f"spot instance revoked after {handed} jobs"
        return [
            Post(request.reply_to, SlaveJobReply(None)),
            Emit("revocation", {"worker": slave, "detail": detail}),
            *self._requeue(slave),
        ]

    def _requeue(self, slave: int) -> list:
        """Return ``slave``'s uncommitted jobs to the pool; one
        ``job_reexecuted`` event each."""
        lost = self.jobs_by_slave.pop(slave, [])
        self.pool.requeue(lost)
        self.jobs_reexecuted += len(lost)
        return [
            Emit(
                "job_reexecuted",
                {"worker": slave, "job_id": job.job_id, "file_id": job.file_id},
            )
            for job in lost
        ]

    def _attach(self, workers) -> list:
        # The shell starts the workers as this step's actions, so
        # ``expected`` grows atomically with the workers that satisfy it.
        actions = []
        for worker in workers:
            self.expected += 1
            self.active += 1
            self.slaves_added += 1
            actions.append(Start(worker))
            actions.append(
                Emit("provision", {"worker": worker.slave_id, "detail": "slave attached"})
            )
        return actions

    def _fold(self, robj: ReductionObject) -> None:
        if self.stream_acc is None:
            self.stream_acc = robj
        else:
            self.stream_acc.merge(robj)

    def _reduction(self, message: SlaveReduction, now: float) -> list:
        slave = message.slave_id
        if slave in self.revoked:
            return []  # its jobs were requeued at the revocation
        if message.job_ids and slave in self.jobs_by_slave:
            # These jobs are safe in the delivered object: never re-execute.
            committed = set(message.job_ids)
            self.jobs_by_slave[slave] = [
                job for job in self.jobs_by_slave[slave] if job.job_id not in committed
            ]
        if not message.partial:
            self.processing_end = now
            self.robjs.append(message)
            return []
        self.sync_partial_merges += 1
        self._fold(message.robj)
        detail = f"partial of {len(message.job_ids)} jobs"
        return [Emit("sync_merge", {"worker": slave, "detail": detail})]

    def _upload(self, message: ReductionUpload, now: float) -> list:
        decoded = self.receipts.take(message)
        self.arrivals[message.cluster] = now
        if self.stream:
            self._fold(decoded)
        detail = f"upload from {message.cluster}"
        return [Emit("sync_merge", {"detail": detail})]

    def _combine(self) -> Ship:
        """Streamed accumulator, slave objects in slave-id order, then
        barrier-mode children in plan order: deterministic runs."""
        self.finished = True
        parts = [m.robj for m in sorted(self.robjs, key=lambda m: m.slave_id)]
        if self.stream_acc is not None:
            parts.insert(0, self.stream_acc)
        if not self.stream:
            received = self.receipts.received
            parts += [received[name] for name in self.receipts.senders]
        return Ship(tuple(parts), (self.name, *self.receipts.origins))
