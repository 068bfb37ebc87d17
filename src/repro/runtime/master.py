"""The per-cluster master node.

Keeps the cluster's job pool filled from the head (on-demand pooling —
the load-balancing mechanism of Section III-B), serves slaves one job at a
time, acknowledges completed groups, and, when its slaves have drained the
global pool, combines their reduction objects and uploads the result to
the head.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from ..config import MiddlewareTuning
from ..core.jobpool import JobPool
from ..core.reduction import ReductionObject, merge_all
from ..core.sync import SyncCodec
from ..errors import RuntimeProtocolError
from ..obs.events import EventLog
from .messages import (
    GroupComplete,
    JobRequest,
    ReductionUpload,
    SlaveAttach,
    SlaveDetach,
    SlaveFailed,
    SlaveJobReply,
    SlaveJobRequest,
    SlaveJobDone,
    SlaveReduction,
)
from .transport import Mailbox

__all__ = ["MasterSync", "MasterNode"]


@dataclass(frozen=True)
class MasterSync:
    """This master's slice of the global-reduction sync plan.

    ``parent_inbox`` is where the combined object goes — another master's
    inbox in tree/ring layouts, the head's for plan roots. ``children``
    are the clusters whose :class:`ReductionUpload` this master must fold
    in before shipping its own. ``stream`` turns on merge-on-arrival for
    slave partials and child uploads instead of the barrier.
    """

    codec: SyncCodec
    parent_inbox: Mailbox
    children: tuple[str, ...] = ()
    stream: bool = False


class MasterNode:
    """Runs as one thread per cluster."""

    def __init__(
        self,
        name: str,
        site: str,
        head_inbox: Mailbox,
        num_slaves: int,
        tuning: MiddlewareTuning | None = None,
        *,
        trace: EventLog | None = None,
        take_timeout: float = 60.0,
        sync: MasterSync | None = None,
    ) -> None:
        if num_slaves <= 0:
            raise RuntimeProtocolError("a cluster needs at least one slave")
        self.name = name
        self.site = site
        self.head_inbox = head_inbox
        self.num_slaves = num_slaves
        self.tuning = tuning or MiddlewareTuning()
        self.trace = trace
        #: Mailbox-receive timeout, threaded from the driver's
        #: ``join_timeout`` (see :class:`~repro.runtime.driver.CloudBurstingRuntime`).
        self.take_timeout = take_timeout
        self.inbox = Mailbox(f"master:{name}")
        self._head_reply = Mailbox(f"master:{name}:head-reply")
        low_water = max(self.tuning.pool_low_water, min(num_slaves // 2, 8))
        self.pool = JobPool(low_water=low_water)
        #: perf_counter stamps for the cluster's report: last slave's final
        #: hand-over or failure taken, combine finished, child uploads taken.
        self.processing_end = 0.0
        self.combine_done = 0.0
        self.arrivals: dict[str, float] = {}
        self.slaves_failed = 0
        self.slaves_revoked = 0
        self.slaves_added = 0
        self.jobs_reexecuted = 0
        self.sync = sync
        self.sync_partials = 0
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name=f"master:{self.name}", daemon=True
        )
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is None:
            raise RuntimeProtocolError(f"master {self.name!r} was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeProtocolError(f"master {self.name!r} did not finish")
        if self._failure is not None:
            raise self._failure

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- protocol loop ------------------------------------------------------------

    def _run(self) -> None:
        try:
            self._serve()
        except BaseException as exc:
            self._failure = exc

    def _fetch_from_head(self) -> bool:
        """Request one group; returns False when the head is exhausted."""
        self.head_inbox.post(
            JobRequest(
                cluster=self.name,
                reply_to=self._head_reply,
                max_jobs=self.tuning.job_group_size,
            )
        )
        reply = self._head_reply.take(timeout=self.take_timeout)
        if reply.group is None:
            return False
        self.pool.add_group(reply.group)
        if self.trace is not None:
            group = reply.group
            self.trace.emit(
                "group_assigned", cluster=self.name, file_id=group.file_id,
                detail=f"group {group.group_id} x{len(group)}",
            )
        return True

    def _serve(self) -> None:
        head_exhausted = False
        waiting: deque[SlaveJobRequest] = deque()
        robjs: list[SlaveReduction] = []
        expected_robjs = self.num_slaves
        sync = self.sync
        stream = sync is not None and sync.stream
        expected_children = len(sync.children) if sync is not None else 0
        # Streamed slave partials (and, in stream mode, child uploads)
        # are folded on arrival into one accumulator; barrier-mode child
        # uploads are held and merged in plan order for determinism.
        stream_acc: ReductionObject | None = None
        child_robjs: dict[str, ReductionObject] = {}
        child_origins: list[str] = []
        children_seen = 0
        # Slaves reported dead. A prefetching slave can have a job request
        # in flight when it crashes; answering it with a job would strand
        # that job forever (nobody will process it), so requests from dead
        # slaves — parked or late-arriving — are answered ``None``.
        dead: set[int] = set()
        # Elastic scaling state: slaves retired by a SlaveDetach (they
        # exit cleanly and still deliver their final reduction object),
        # pending retirements, and the count of slaves still working.
        retired: set[int] = set()
        retire_pending = 0
        active_slaves = self.num_slaves
        # Every job ever handed to each slave: a dead slave's reduction
        # object is lost, so all of this must be re-executed (FREERIDE-style
        # recovery).
        jobs_by_slave: dict[int, list] = {}

        def refill() -> None:
            nonlocal head_exhausted
            while not head_exhausted and (self.pool.needs_refill or waiting):
                if not self._fetch_from_head():
                    head_exhausted = True
                if len(self.pool) > self.pool.low_water and not waiting:
                    break
                if waiting and len(self.pool) >= len(waiting):
                    break

        def run_over() -> bool:
            """No job will ever become available again.

            The in-flight check matters for fault tolerance: while any job
            is still being processed, its holder might die and the job
            return to the pool, so idle slaves park rather than exit.
            """
            return head_exhausted and len(self.pool) == 0 and self.pool.in_flight == 0

        def serve_waiting() -> None:
            while waiting:
                job = self.pool.take()
                if job is None:
                    if run_over():
                        while waiting:
                            waiting.popleft().reply_to.post(SlaveJobReply(None))
                    break
                request = waiting.popleft()
                jobs_by_slave.setdefault(request.slave_id, []).append(job)
                request.reply_to.post(SlaveJobReply(job))

        while len(robjs) < expected_robjs or children_seen < expected_children:
            message = self.inbox.take(timeout=self.take_timeout)
            if isinstance(message, SlaveJobRequest):
                if message.slave_id in dead or message.slave_id in retired:
                    message.reply_to.post(SlaveJobReply(None))
                    continue
                if retire_pending > 0 and active_slaves > 1:
                    # Cooperative scale-down: answer ``None`` so the slave
                    # exits its loop and delivers its final reduction
                    # object. Never retire the last active slave — jobs
                    # pooled or in flight would strand forever.
                    retire_pending -= 1
                    active_slaves -= 1
                    retired.add(message.slave_id)
                    message.reply_to.post(SlaveJobReply(None))
                    if self.trace is not None:
                        self.trace.emit(
                            "scale_down", cluster=self.name,
                            worker=message.slave_id, detail="slave retired",
                        )
                    continue
                waiting.append(message)
                refill()
                serve_waiting()
            elif isinstance(message, SlaveJobDone):
                group_id = self.pool.mark_done(message.job.job_id)
                if group_id is not None:
                    self.head_inbox.post(
                        GroupComplete(cluster=self.name, group_id=group_id)
                    )
                serve_waiting()  # a drained pool may have just become final
            elif isinstance(message, SlaveFailed):
                self.processing_end = time.perf_counter()
                expected_robjs -= 1
                active_slaves -= 1
                if message.revoked:
                    self.slaves_revoked += 1
                else:
                    self.slaves_failed += 1
                dead.add(message.slave_id)
                for _ in range(len(waiting)):
                    request = waiting.popleft()
                    if request.slave_id == message.slave_id:
                        request.reply_to.post(SlaveJobReply(None))
                    else:
                        waiting.append(request)
                lost = jobs_by_slave.pop(message.slave_id, [])
                self.pool.requeue(lost)
                self.jobs_reexecuted += len(lost)
                if self.trace is not None:
                    if not message.revoked:
                        # A revocation already traced itself at raise time.
                        self.trace.emit(
                            "slave_failed", cluster=self.name,
                            worker=message.slave_id,
                            detail=f"{len(lost)} jobs to re-execute",
                        )
                    for job in lost:
                        self.trace.emit(
                            "job_reexecuted", cluster=self.name,
                            worker=message.slave_id, job_id=job.job_id,
                            file_id=job.file_id,
                        )
                if expected_robjs == 0:
                    raise RuntimeProtocolError(
                        f"master {self.name!r}: every slave failed"
                    )
                serve_waiting()  # recovered jobs wake parked slaves
            elif isinstance(message, SlaveReduction):
                if message.job_ids and message.slave_id in jobs_by_slave:
                    # These jobs' contribution is now safe in the delivered
                    # object — never re-execute them for this slave.
                    committed = set(message.job_ids)
                    jobs_by_slave[message.slave_id] = [
                        job
                        for job in jobs_by_slave[message.slave_id]
                        if job.job_id not in committed
                    ]
                if message.partial:
                    self.sync_partials += 1
                    if stream_acc is None:
                        stream_acc = message.robj
                    else:
                        stream_acc.merge(message.robj)
                    if self.trace is not None:
                        self.trace.emit(
                            "sync_merge", cluster=self.name,
                            worker=message.slave_id,
                            detail=f"partial of {len(message.job_ids)} jobs",
                        )
                else:
                    self.processing_end = time.perf_counter()
                    robjs.append(message)
            elif isinstance(message, ReductionUpload):
                if sync is None or message.cluster not in sync.children:
                    raise RuntimeProtocolError(
                        f"master {self.name!r} received an unexpected upload "
                        f"from {message.cluster!r}"
                    )
                self.arrivals[message.cluster] = time.perf_counter()
                children_seen += 1
                decoded = sync.codec.decode(message.cluster, message.blob)
                child_origins.extend(message.covered)
                if stream:
                    if stream_acc is None:
                        stream_acc = decoded
                    else:
                        stream_acc.merge(decoded)
                else:
                    child_robjs[message.cluster] = decoded
                if self.trace is not None:
                    self.trace.emit(
                        "sync_merge", cluster=self.name,
                        detail=f"upload from {message.cluster}",
                    )
            elif isinstance(message, SlaveAttach):
                # Scale-up: start the new workers from inside the protocol
                # loop so expected_robjs grows atomically with the workers
                # that will satisfy it.
                for worker in message.workers:
                    expected_robjs += 1
                    active_slaves += 1
                    self.slaves_added += 1
                    worker.start()
                    if self.trace is not None:
                        self.trace.emit(
                            "provision", cluster=self.name,
                            worker=worker.slave_id, detail="slave attached",
                        )
            elif isinstance(message, SlaveDetach):
                retire_pending += message.count
            else:
                raise RuntimeProtocolError(
                    f"master {self.name!r} received {type(message).__name__}"
                )
        # Intra-cluster combine (plus any tree/ring child contributions),
        # then upload to the parent aggregation point.
        parts: list[ReductionObject] = sorted_robjs(robjs)
        if stream_acc is not None:
            parts = [stream_acc, *parts]
        if sync is not None and not stream:
            parts += [child_robjs[name] for name in sync.children]
        combined = merge_all(parts)
        self.combine_done = time.perf_counter()
        if self.trace is not None:
            self.trace.emit("combine_done", cluster=self.name)
        if sync is None:
            self.head_inbox.post(
                ReductionUpload(cluster=self.name, blob=combined.to_bytes())
            )
        else:
            started = time.perf_counter()
            encoded = sync.codec.encode(self.name, combined)
            encode_ms = (time.perf_counter() - started) * 1e3
            if self.trace is not None:
                self.trace.emit(
                    "sync_upload", cluster=self.name,
                    detail=(
                        f"{encoded.encoding}+{encoded.compression} "
                        f"{len(encoded.blob)}/{len(encoded.dense)}B "
                        f"{encode_ms:.1f}ms"
                    ),
                )
            sync.parent_inbox.post(
                ReductionUpload(
                    cluster=self.name,
                    blob=encoded.blob,
                    origins=(self.name, *child_origins),
                )
            )
        if self.trace is not None:
            self.trace.emit("robj_sent", cluster=self.name)


def sorted_robjs(messages: list[SlaveReduction]):
    """Merge slave objects in slave-id order so runs are deterministic."""
    return [m.robj for m in sorted(messages, key=lambda m: m.slave_id)]
