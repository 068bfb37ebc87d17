"""Simulated middleware nodes: head, master and slave processes.

The head and the masters are the executable runtime's own protocol cores
(:class:`~repro.core.head.HeadCore`, :class:`~repro.core.master.MasterCore`:
job requests and acks through the scheduler, the master's pool and
end-of-run rule, the combine order, coverage and the head's merge order)
stepped from simulation processes. The shells add only costs: each
head-bound message arrives after its control latency, a master's
:class:`~repro.core.master.Ship` pays the combine, the child merges and
the hop up the sync plan, and each merge the head names pays
``merge_seconds``. Slaves step the runtime's
:class:`~repro.core.slave.SlaveCore` too, so a streamed run flushes its
partials every ``watermark`` jobs in both engines. Retirement and spot
revocation are the master core's: a retired slave's object counts, a
revoked one's is dropped and its jobs run again, as in the runtime.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..config import MiddlewareTuning
from ..core.head import HeadCore
from ..core.job import Job
from ..core.master import Emit, MasterCore, Post, Ship, Start
from ..core.messages import (
    GroupComplete,
    ReductionUpload,
    SlaveJobRequest,
    SlaveReduction,
)
from ..core.reduction import ScalarReduction, merge_all
from ..core.slave import Fetched, Reduce, Reduced, Request, SlaveCore
from ..core.sync import SyncCodec
from ..obs import EventLog
from ..scale.revocation import RevocationSpec
from .computemodel import ComputeModel
from .engine import Environment, Event

__all__ = ["SimHead", "SimMaster", "SimSlave", "FetchFn"]

#: ``fetch(job, slave_site, retrieval_threads) -> Event``. The callback owns
#: the path choice *and* the connection-count decision (a local disk read is
#: one sequential stream; object-store and cross-site fetches use the
#: configured retrieval threads).
FetchFn = Callable[[Job, str, int], Event]


class SimHead:
    """The head: the shared :class:`~repro.core.head.HeadCore` plus the
    cost of each merge it names, ``merge_seconds`` per object, one merge
    at a time."""

    def __init__(
        self,
        env: Environment,
        core: HeadCore,
        *,
        merge_seconds: float,
        trace: EventLog | None = None,
    ) -> None:
        self.env = env
        self.core = core
        self.merge_seconds = merge_seconds
        self.trace = trace
        #: When the last merge named so far finishes: the run's makespan
        #: once the core is finished.
        self.busy_until = 0.0

    def step(self, message) -> None:
        """Step the core with one message and carry out its actions."""
        env, trace = self.env, self.trace
        for action in self.core.step(message, env.now):
            if isinstance(action, Post):
                action.to.step(action.message)
            elif isinstance(action, Emit):
                self.emit(action.kind, **action.fields)
            else:
                at = max(env.now, self.busy_until)
                for cluster, part in zip(action.clusters, action.parts):
                    action.into.merge(part)
                    at += self.merge_seconds
                    if trace is not None:
                        trace.record(at, "merge_done", cluster=cluster)
                self.busy_until = at

    def emit(self, kind: str, **fields) -> None:
        """One trace event at ``env.now`` (also the scheduler's sink)."""
        if self.trace is not None:
            self.trace.record(self.env.now, kind, **fields)


class SimMaster:
    """Cluster master: the shared :class:`~repro.core.master.MasterCore`
    plus what its exchanges cost — the control round-trip per group
    request, half of it per group acknowledgement — and what its
    :class:`~repro.core.master.Ship` costs: ``combine_seconds(slaves)``
    (the head's ``merge_seconds`` when streaming, whose partials fold
    during compute), ``merge_seconds`` per child upload, then
    ``uplink(self)``, the hop to ``parent`` (``None``: no hop).
    ``cross_site`` says whether that hop crosses a site boundary: only
    then is the combined object encoded. ``revocation`` is the spot die
    of a revocable cluster."""

    def __init__(
        self,
        head: SimHead,
        name: str,
        site: str,
        *,
        control_rtt: float,
        cores: int,
        tuning: MiddlewareTuning,
        children: tuple[str, ...],
        codec: SyncCodec,
        combine_seconds: Callable[[int], float],
        uplink: Callable[["SimMaster"], Event | None],
        cross_site: bool = True,
        revocation: RevocationSpec | None = None,
    ) -> None:
        self.env = head.env
        self.name = name
        self.site = site
        self.head = head
        self.control_rtt = control_rtt
        self.codec = codec
        self.combine_seconds = combine_seconds
        self.uplink = uplink
        self.cross_site = cross_site
        self.trace = head.trace
        self.core = MasterCore(
            name, cores, tuning, head=head, inbox=self, children=children,
            codec=codec, stream=codec.spec.stream, revocation=revocation,
        )
        #: Where the combined object goes: the parent master in the sync
        #: plan (set by the engine), or the head.
        self.parent: Any = head
        #: When the combine finished; the core keeps the other stamps.
        self.combine_done = 0.0

    def step(self, message) -> None:
        """Step the core with one message and carry out its actions."""
        env = self.env
        for action in self.core.step(message, env.now):
            if isinstance(action, Emit):
                self.emit(action.kind, **action.fields)
            elif isinstance(action, Start):
                action.worker.start()
            elif isinstance(action, Ship):
                env.process(self._ship(action), name=f"ship:{self.name}")
            elif action.to is self.head:
                env.process(
                    self._to_head(action.message), name=f"head:{self.name}"
                )
            elif action.to is self:
                action.message.reply_to.succeed(None)  # woken: asked again
            else:
                action.to.succeed(action.message)  # the slave's reply

    def get_job(self, slave_id: int):
        """Generator (``yield from``): next job, or ``None`` at end of run."""
        while True:
            reply = self.env.event()
            self.step(SlaveJobRequest(slave_id, reply_to=reply))
            if not reply.triggered:
                yield reply  # parked until answered or woken
            if reply.value is not None:
                return reply.value.job

    # -- costs -------------------------------------------------------------------

    def _to_head(self, message):
        ack = isinstance(message, GroupComplete)
        yield self.env.timeout(self.control_rtt / 2.0 if ack else self.control_rtt)
        self.head.step(message)

    def _ship(self, ship: Ship):
        """Charge the combine, then the child merges (each on arrival when
        streaming, in a row once all are in at the barrier), then the hop
        up the plan; deliver the upload to the parent's core."""
        env, core = self.env, self.core
        merge = self.head.merge_seconds
        combine = (
            merge if core.stream else self.combine_seconds(len(core.robjs))
        )
        self.combine_done = core.processing_end + combine
        arrivals = [core.arrivals[child] for child in core.receipts.senders]
        ready = max([self.combine_done, *arrivals])
        if core.stream:
            # Each child folded on arrival: the master is free while its
            # slaves compute, so early arrivals cost nothing at the end.
            busy = 0.0
            for at in sorted(arrivals):
                busy = max(busy, at) + merge
        else:
            busy = ready
            for _ in arrivals:
                busy += merge
        if ready > env.now:
            yield env.timeout(ready - env.now)
        self._mark("combine_done", self.combine_done)
        if busy > env.now:
            yield env.timeout(busy - env.now)
        hop = self.uplink(self)
        if hop is not None:
            yield hop
        self._mark("robj_sent", env.now)
        payload = merge_all(ship.parts)
        if self.cross_site:
            payload = self.codec.encode(self.name, payload).blob
        self.parent.step(ReductionUpload(self.name, payload, ship.origins))

    def emit(self, kind: str, **fields) -> None:
        """One trace event of this cluster at ``env.now`` (the fleet
        manager's too)."""
        self._mark(kind, self.env.now, **fields)

    def _mark(self, kind: str, at: float, **fields) -> None:
        if self.trace is not None:
            self.trace.record(at, kind, cluster=self.name, **fields)


class SimSlave:
    """One worker core: the shared :class:`~repro.core.slave.SlaveCore`
    plus what its actions cost — a ``Request`` waits for the master's
    answer and the fetch, a ``Reduce`` the compute model's seconds, each
    reported to the core's ledger on its event. Its
    object is a :class:`~repro.core.reduction.ScalarReduction` of the units
    it folded."""

    def __init__(
        self,
        slave_id: int,
        master: SimMaster,
        fetch: FetchFn,
        compute: ComputeModel,
        *,
        retrieval_threads: int,
    ) -> None:
        self.env = env = master.env
        self.slave_id = slave_id
        self.site = master.site
        self.master = master
        self.fetch = fetch
        self.compute = compute
        self.retrieval_threads = retrieval_threads
        self.trace = master.trace
        self.core = SlaveCore(
            slave_id, watermark=master.codec.spec.slave_watermark, master=master
        )
        self.robj = ScalarReduction("sum")
        #: A provisioned slave waits here until its master starts it.
        self.gate = env.event()

    def start(self) -> None:
        """The master's :class:`~repro.core.master.Start`: open the gate."""
        self.gate.succeed()

    def run(self):
        """The slave process body (pass to ``env.process``)."""
        env, core = self.env, self.core
        todo = deque(core.start(env.now))
        while todo:
            action = todo.popleft()
            if isinstance(action, Request):
                seq = core.requested - 1  # sequential: the one in flight
                job = yield from self.master.get_job(self.slave_id)
                event = Fetched(seq, job)
                if job is not None:
                    started = env.now
                    fetch = {"worker": self.slave_id, "job_id": job.job_id,
                             "file_id": job.file_id}
                    self._mark("fetch_start", **fetch)
                    yield self.fetch(job, self.site, self.retrieval_threads)
                    self._mark("fetch_end", **fetch)
                    seconds = env.now - started
                    event = Fetched(seq, job, seconds, job.nbytes, waited=seconds)
            elif isinstance(action, Reduce):
                job = action.job
                seconds = self.compute.job_seconds(self.site, self.slave_id, job.num_units)
                yield env.timeout(seconds)
                self.robj.add(job.num_units)
                event = Reduced(job, seconds)
            else:
                self._carry_out(action)
                continue
            todo.extendleft(reversed(core.step(event, env.now)))

    def _carry_out(self, action) -> None:
        """The actions that take no simulated time."""
        if isinstance(action, Post):
            action.to.step(action.message)
        elif isinstance(action, Emit):
            self._mark(action.kind, **action.fields)
        else:
            reduction = SlaveReduction(
                self.slave_id, self.robj, action.partial, action.job_ids
            )
            self.master.step(reduction)
            if action.partial:
                self.robj = ScalarReduction("sum")

    def _mark(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, kind, cluster=self.master.name, **fields)
