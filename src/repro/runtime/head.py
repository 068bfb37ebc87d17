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
from ..core.reduction import ReductionObject, from_bytes
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec
from ..errors import RuntimeProtocolError, RuntimeTimeoutError
from ..obs.events import EventLog
from .messages import GroupComplete, HeadResult, JobReply, JobRequest, ReductionUpload
from .transport import Mailbox

__all__ = ["HeadSync", "HeadNode"]


@dataclass(frozen=True)
class HeadSync:
    """The head's slice of the sync plan: which clusters upload directly
    (the plan roots — all of them under star, fewer under tree/ring) and
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
        trace: EventLog | None = None,
        take_timeout: float = 60.0,
        clock=None,
        sync: HeadSync | None = None,
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
        #: ``time.perf_counter()`` at which each directly uploading
        #: cluster's object was taken off the inbox; read after ``join``.
        self.arrivals: dict[str, float] = {}
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
        sync = self.sync
        stream = sync is not None and sync.stream
        # Under tree/ring aggregation only the plan roots reach the head;
        # their uploads carry ``origins`` proving descendant coverage.
        uploaders = list(sync.roots) if sync is not None else self.expected
        clock = self.clock
        uploads: dict[str, ReductionObject] = {}
        covered: set[str] = set()
        merged: ReductionObject | None = None
        while len(uploads) < len(uploaders):
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
                self.arrivals[message.cluster] = time.perf_counter()
                if message.cluster in uploads:
                    raise RuntimeProtocolError(
                        f"cluster {message.cluster!r} uploaded twice"
                    )
                if message.cluster not in uploaders:
                    raise RuntimeProtocolError(
                        f"upload from unknown cluster {message.cluster!r}"
                    )
                if sync is not None:
                    robj = sync.codec.decode(message.cluster, message.blob)
                else:
                    robj = from_bytes(message.blob)
                covered.update(message.covered)
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
            for cluster in uploaders:
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
