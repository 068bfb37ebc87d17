"""The per-cluster master node: the shell around
:class:`~repro.core.master.MasterCore`.

The core holds the master's protocol (Section III-B: on-demand pooling,
group acks, the end-of-run rule, failure recovery, the combine order).
This shell owns the master's mailbox: whichever thread posts to it (a
slave, a child master, the head's reply, the autoscaler) steps the core
with the time it took each message (see :mod:`repro.runtime.transport`)
and carries out the core's actions: posts, worker starts, trace events,
and the merge, encode and upload of the combined object (the head-site
master hands it to the head unencoded). A step that raises fails the
cluster: the error is kept here and posted to the head, never raised in
the thread that posted the message.
"""

from __future__ import annotations

import time

from ..config import MiddlewareTuning
from ..core.master import Emit, MasterCore, Post, Ship, Start
from ..core.messages import ReductionUpload
from ..core.reduction import merge_all
from ..core.sync import SyncCodec
from ..errors import RuntimeProtocolError
from ..obs.events import EventLog
from ..scale.revocation import RevocationSpec
from .transport import Mailbox

__all__ = ["MasterNode"]


class MasterNode:
    """One per cluster, stepped by the threads that message it.
    ``parent_inbox``/``codec``/``children``/``stream`` are its slice of
    the sync plan: where the combined object goes (another master's inbox
    in a tree layout, the head's for plan roots), the clusters whose
    uploads it folds in before shipping its own, and merge-on-arrival
    instead of the barrier. ``cross_site`` says whether the hop to the
    parent crosses a site boundary: only then is the combined object
    encoded; the head-site master posts it to the head as it is.
    ``revocation`` is the spot die of a cloud crew, rolled by the core."""

    def __init__(
        self,
        name: str,
        site: str,
        head_inbox: Mailbox,
        num_slaves: int,
        tuning: MiddlewareTuning | None = None,
        *,
        parent_inbox: Mailbox,
        codec: SyncCodec,
        children: tuple[str, ...] = (),
        stream: bool = False,
        cross_site: bool = True,
        trace: EventLog | None = None,
        revocation: RevocationSpec | None = None,
    ) -> None:
        self.name = name
        self.site = site
        self.num_slaves = num_slaves
        self.trace = trace
        self.inbox = Mailbox(f"master:{name}", handler=self._deliver)
        self.parent_inbox = parent_inbox
        self.codec = codec
        self.cross_site = cross_site
        self.core = MasterCore(
            name, num_slaves, tuning, head=head_inbox, inbox=self.inbox,
            children=children, codec=codec, stream=stream, revocation=revocation,
        )
        #: perf_counter at which the combine finished; the core keeps the
        #: report's other stamps, in the same clock.
        self.combine_done = 0.0
        self._failure: Exception | None = None

    def _deliver(self, message) -> None:
        """The mailbox's handler; void once the cluster shipped or failed."""
        if self.core.finished or self._failure is not None:
            return
        try:
            self.step(message)
        except Exception as exc:
            self._failure = exc
            # The run cannot finish without this cluster: the head fails it
            # now, naming the cluster, rather than at the driver's deadline.
            failure = RuntimeProtocolError(f"cluster {self.name!r} failed: {exc}")
            failure.__cause__ = exc
            self.core.head.post(failure)

    def step(self, message) -> None:
        """Step the core with one message and carry out its actions."""
        for action in self.core.step(message, time.perf_counter()):
            if isinstance(action, Post):
                action.to.post(action.message)
            elif isinstance(action, Emit):
                self.emit(action.kind, **action.fields)
            elif isinstance(action, Start):
                action.worker.start()
            else:
                self._ship(action)

    def emit(self, kind: str, **fields) -> None:
        """One trace event of this cluster (the fleet manager's too)."""
        if self.trace is not None:
            self.trace.emit(kind, cluster=self.name, **fields)

    def _ship(self, ship: Ship) -> None:
        combined = merge_all(ship.parts)
        self.combine_done = time.perf_counter()
        self.emit("combine_done")
        payload = combined
        if self.cross_site:
            started = time.perf_counter()
            encoded = self.codec.encode(self.name, combined)
            encode_ms = (time.perf_counter() - started) * 1e3
            if self.trace is not None:
                self.emit(
                    "sync_upload",
                    detail=(
                        f"{encoded.encoding}+{encoded.compression} "
                        f"{len(encoded.blob)}/{len(encoded.dense)}B "
                        f"{encode_ms:.1f}ms"
                    ),
                )
            payload = encoded.blob
        self.parent_inbox.post(
            ReductionUpload(cluster=self.name, blob=payload, origins=ship.origins)
        )
        self.emit("robj_sent")
