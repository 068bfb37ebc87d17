"""The head node.

Responsibilities (Section III-B): turn the data index into the job pool,
serve masters' job requests with the locality-aware scheduler, track group
completions for the contention heuristic, and — once every cluster has
uploaded its combined reduction object — perform the global reduction and
publish the final object.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..clock import SYSTEM_CLOCK
from ..core.reduction import ReductionObject
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec
from ..errors import RuntimeProtocolError, RuntimeTimeoutError
from ..obs.events import EventLog
from .messages import GroupComplete, HeadResult, JobReply, JobRequest, ReductionUpload
from .transport import Mailbox

__all__ = ["HeadSync", "UploadReceipts", "HeadNode"]


@dataclass(frozen=True)
class HeadSync:
    """The head's slice of the sync plan: which clusters upload directly
    (the plan roots — all of them under star, fewer under tree) and
    whether to merge on arrival (``stream``) or behind the barrier."""

    codec: SyncCodec
    roots: tuple[str, ...]
    stream: bool = False


@dataclass
class UploadReceipts:
    """How ``node`` takes one :class:`ReductionUpload` from each of
    ``senders`` — the head from the plan roots, a master from its
    children: check the sender, stamp the arrival, record the clusters
    the upload covers, decode. Merging stays with the node."""

    node: str
    senders: tuple[str, ...]
    codec: SyncCodec
    #: ``time.perf_counter()`` at which each sender's upload was taken.
    arrivals: dict[str, float] = field(default_factory=dict)
    #: Every cluster the taken uploads cover, in arrival order.
    origins: list[str] = field(default_factory=list)

    @property
    def pending(self) -> bool:
        return len(self.arrivals) < len(self.senders)

    def take(self, message: ReductionUpload) -> ReductionObject:
        cluster = message.cluster
        if cluster in self.arrivals:
            raise RuntimeProtocolError(f"{self.node}: {cluster!r} uploaded twice")
        if cluster not in self.senders:
            raise RuntimeProtocolError(f"{self.node}: unknown cluster {cluster!r}")
        self.arrivals[cluster] = time.perf_counter()
        self.origins.extend(message.origins)
        return self.codec.decode(cluster, message.blob)


class HeadNode:
    """Runs as one thread; owns the scheduler and the final merge."""

    def __init__(
        self,
        scheduler: HeadScheduler,
        expected_clusters: list[str],
        *,
        sync: HeadSync,
        trace: EventLog | None = None,
        take_timeout: float = 60.0,
        clock=None,
    ) -> None:
        if not expected_clusters:
            raise RuntimeProtocolError("head needs at least one cluster")
        self.scheduler = scheduler
        self.expected = list(expected_clusters)
        self.trace = trace
        #: Timing source for the global-reduction stopwatch — injectable
        #: so tests can pin it (:class:`repro.clock.FakeClock`).
        self.clock = clock or SYSTEM_CLOCK
        self.sync = sync
        #: Mailbox-receive timeout, threaded from the driver's ``join_timeout``.
        self.take_timeout = take_timeout
        self.inbox = Mailbox("head")
        self.result: HeadResult | None = None
        self.global_reduction_seconds = 0.0
        #: The plan roots' uploads (arrival stamps are read after ``join``).
        self.receipts = UploadReceipts("head", sync.roots, sync.codec)
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="head", daemon=True)
        self._thread.start()

    def join(self, timeout: float | None = None) -> HeadResult:
        if self._thread is None:
            raise RuntimeProtocolError("head was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeTimeoutError(f"head did not finish within {timeout}s")
        if self._failure is not None:
            raise self._failure
        assert self.result is not None
        return self.result

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- the protocol loop ----------------------------------------------------

    def _run(self) -> None:
        try:
            self._serve()
        except BaseException as exc:  # surface in join()
            self._failure = exc

    def _serve(self) -> None:
        stream = self.sync.stream
        # Under tree aggregation only the plan roots reach the head; their
        # uploads carry ``origins`` proving descendant coverage.
        receipts = self.receipts
        clock = self.clock
        uploads: dict[str, ReductionObject] = {}
        merged: ReductionObject | None = None
        while receipts.pending:
            message = self.inbox.take(timeout=self.take_timeout)
            if isinstance(message, JobRequest):
                group = self.scheduler.request_jobs(message.cluster, message.max_jobs)
                message.reply_to.post(JobReply(group))
            elif isinstance(message, GroupComplete):
                self.scheduler.complete_group(message.group_id)
                if self.trace is not None:
                    self.trace.emit(
                        "group_acked", cluster=message.cluster,
                        detail=f"group {message.group_id}",
                    )
            elif isinstance(message, ReductionUpload):
                robj = receipts.take(message)
                uploads[message.cluster] = robj
                if stream:
                    started = clock.monotonic()
                    if merged is None:
                        merged = robj.clone_empty()
                    merged.merge(robj)
                    self.global_reduction_seconds += clock.monotonic() - started
                    if self.trace is not None:
                        self.trace.emit("merge_done", cluster=message.cluster)
            else:
                raise RuntimeProtocolError(
                    f"head received unexpected message {type(message).__name__}"
                )
        covered = set(receipts.origins)
        if covered != set(self.expected):
            missing = sorted(set(self.expected) - covered)
            extra = sorted(covered - set(self.expected))
            raise RuntimeProtocolError(
                f"global reduction coverage mismatch: missing {missing}, "
                f"unknown {extra}"
            )
        if merged is None:
            # Barrier: merge in plan order for determinism.
            started = clock.monotonic()
            for cluster in receipts.senders:
                robj = uploads[cluster]
                if merged is None:
                    merged = robj.clone_empty()
                merged.merge(robj)
                if self.trace is not None:
                    self.trace.emit("merge_done", cluster=cluster)
            self.global_reduction_seconds = clock.monotonic() - started
        assert merged is not None
        self.result = HeadResult(
            robj=merged, clusters_reported=tuple(self.expected)
        )
