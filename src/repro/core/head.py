"""The head's protocol, shared by the runtime and the simulator.

Section III-B: the head serves the masters' job requests with the
locality-aware scheduler, tracks group completions, and, once every
cluster's combined object has arrived, performs the global reduction.
:class:`HeadCore` is that policy as ``step(message) -> actions``, beside
:class:`~repro.core.master.MasterCore`: no threads, no clock reads (a
shell passes the time it took the message, for the arrival stamps). It
decides which uploads it takes, whether they cover every cluster, and
which objects merge in which order; it names each merge as a
:class:`Merge` and leaves the work, and its cost, to the shell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RuntimeProtocolError
from .master import Emit, Post
from .messages import GroupComplete, JobReply, JobRequest, ReductionUpload
from .reduction import ReductionObject
from .scheduler import HeadScheduler
from .sync import SyncCodec, UploadReceipts

__all__ = ["Merge", "HeadCore"]


@dataclass(frozen=True)
class Merge:
    """Fold ``parts``, the uploads of ``clusters``, into ``into`` (the
    global object) in this order."""

    into: ReductionObject
    clusters: tuple[str, ...]
    parts: tuple[ReductionObject, ...]


class HeadCore:
    """The head over ``scheduler``: ``clusters`` is every cluster the
    global object must cover; ``roots``/``codec``/``stream`` are the
    head's slice of the sync plan — the clusters that upload to it (all
    of them under star, fewer under tree) and whether to merge each on
    arrival or all of them behind the barrier."""

    def __init__(
        self,
        scheduler: HeadScheduler,
        clusters: list[str] | tuple[str, ...],
        *,
        roots: tuple[str, ...],
        codec: SyncCodec,
        stream: bool = False,
    ) -> None:
        if not clusters:
            raise RuntimeProtocolError("head needs at least one cluster")
        self.scheduler = scheduler
        self.clusters = tuple(clusters)
        self.stream = stream
        # Under tree aggregation only the plan roots reach the head; their
        # uploads carry ``origins`` proving descendant coverage.
        self.receipts = UploadReceipts("head", tuple(roots), codec)
        #: The shell's ``now`` at which each root's upload was taken.
        self.arrivals: dict[str, float] = {}
        #: The global object; complete once ``finished``.
        self.merged: ReductionObject | None = None
        self.finished = False

    def step(self, message, now: float = 0.0) -> list:
        """Take one message, taken at ``now``; returns the actions to carry
        out, in order. The last root's upload names the final merge."""
        if isinstance(message, JobRequest):
            group = self.scheduler.request_jobs(message.cluster, message.max_jobs)
            return [Post(message.reply_to, JobReply(group))]
        if isinstance(message, GroupComplete):
            self.scheduler.complete_group(message.group_id)
            detail = f"group {message.group_id}"
            return [Emit("group_acked", {"cluster": message.cluster, "detail": detail})]
        if not isinstance(message, ReductionUpload):
            raise RuntimeProtocolError(
                f"head received unexpected message {type(message).__name__}"
            )
        self.arrivals[message.cluster] = now
        robj = self.receipts.take(message)
        if self.merged is None:
            self.merged = robj.clone_empty()
        actions = []
        if self.stream:
            actions.append(Merge(self.merged, (message.cluster,), (robj,)))
        if not self.receipts.pending:
            self._check_coverage()
            if not self.stream:
                # Barrier: merge in plan order for determinism.
                roots = self.receipts.senders
                received = self.receipts.received
                parts = tuple(received[root] for root in roots)
                actions.append(Merge(self.merged, roots, parts))
            self.finished = True
        return actions

    def _check_coverage(self) -> None:
        covered = set(self.receipts.origins)
        if covered != set(self.clusters):
            missing = sorted(set(self.clusters) - covered)
            extra = sorted(covered - set(self.clusters))
            raise RuntimeProtocolError(
                f"global reduction coverage mismatch: missing {missing}, "
                f"unknown {extra}"
            )
