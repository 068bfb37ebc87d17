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
from dataclasses import dataclass

from ..clock import SYSTEM_CLOCK
from ..core.master import Post
from ..core.messages import (
    GroupComplete,
    HeadResult,
    JobReply,
    JobRequest,
    ReductionUpload,
)
from ..core.reduction import ReductionObject
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec, UploadReceipts
from ..errors import RuntimeProtocolError, RuntimeTimeoutError
from ..obs.events import EventLog
from .transport import Mailbox

__all__ = ["HeadSync", "HeadNode"]


@dataclass(frozen=True)
class HeadSync:
    """The head's slice of the sync plan: which clusters upload directly
    (the plan roots — all of them under star, fewer under tree) and
    whether to merge on arrival (``stream``) or behind the barrier."""

    codec: SyncCodec
    roots: tuple[str, ...]
    stream: bool = False


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
        # Under tree aggregation only the plan roots reach the head; their
        # uploads carry ``origins`` proving descendant coverage.
        self.receipts = UploadReceipts("head", sync.roots, sync.codec)
        #: ``time.perf_counter()`` at which each root's upload was taken.
        self.arrivals: dict[str, float] = {}
        self._merged: ReductionObject | None = None
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

    # -- the protocol loop ----------------------------------------------------

    def _run(self) -> None:
        try:
            while self.result is None:
                for post in self.step(self.inbox.take(timeout=self.take_timeout)):
                    post.to.post(post.message)
        except BaseException as exc:  # surface in join()
            self._failure = exc

    def step(self, message) -> list[Post]:
        """Take one message; returns the replies to post. The last plan
        root's upload completes the global reduction (``result``)."""
        if isinstance(message, JobRequest):
            group = self.scheduler.request_jobs(message.cluster, message.max_jobs)
            return [Post(message.reply_to, JobReply(group))]
        if isinstance(message, GroupComplete):
            self.scheduler.complete_group(message.group_id)
            if self.trace is not None:
                self.trace.emit(
                    "group_acked", cluster=message.cluster,
                    detail=f"group {message.group_id}",
                )
            return []
        if not isinstance(message, ReductionUpload):
            raise RuntimeProtocolError(
                f"head received unexpected message {type(message).__name__}"
            )
        self.arrivals[message.cluster] = time.perf_counter()
        robj = self.receipts.take(message)
        if self.sync.stream:
            started = self.clock.monotonic()
            if self._merged is None:
                self._merged = robj.clone_empty()
            self._merged.merge(robj)
            self.global_reduction_seconds += self.clock.monotonic() - started
            if self.trace is not None:
                self.trace.emit("merge_done", cluster=message.cluster)
        if not self.receipts.pending:
            self._finish()
        return []

    def _finish(self) -> None:
        covered = set(self.receipts.origins)
        if covered != set(self.expected):
            missing = sorted(set(self.expected) - covered)
            extra = sorted(covered - set(self.expected))
            raise RuntimeProtocolError(
                f"global reduction coverage mismatch: missing {missing}, "
                f"unknown {extra}"
            )
        merged = self._merged
        if merged is None:
            # Barrier: merge in plan order for determinism.
            started = self.clock.monotonic()
            for cluster in self.receipts.senders:
                robj = self.receipts.received[cluster]
                if merged is None:
                    merged = robj.clone_empty()
                merged.merge(robj)
                if self.trace is not None:
                    self.trace.emit("merge_done", cluster=cluster)
            self.global_reduction_seconds = self.clock.monotonic() - started
        self.result = HeadResult(robj=merged, clusters_reported=tuple(self.expected))
