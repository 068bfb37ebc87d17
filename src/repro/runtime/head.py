"""The head node: the thread shell around :class:`~repro.core.head.HeadCore`.

The core holds the head's protocol (Section III-B: job requests through
the scheduler, group acks, the uploads it takes, their coverage and the
merge order). This shell takes messages off the head's mailbox, steps
the core with the time it took each one, and carries out the core's
actions: replies, trace events, and the merges, timed on its clock. A
master that dies posts its failure here, and the shell raises it: the
run fails at once, naming the cluster.
"""

from __future__ import annotations

import threading
import time

from ..clock import SYSTEM_CLOCK
from ..core.head import HeadCore, Merge
from ..core.master import Emit, Post
from ..core.reduction import ReductionObject
from ..errors import RuntimeProtocolError, RuntimeTimeoutError
from ..obs.events import EventLog
from .transport import Mailbox

__all__ = ["HeadNode"]


class HeadNode:
    """Runs as one thread; ``join`` returns the core's global object."""

    def __init__(
        self,
        core: HeadCore,
        *,
        trace: EventLog | None = None,
        take_timeout: float = 60.0,
        clock=None,
    ) -> None:
        self.core = core
        self.trace = trace
        #: Timing source for the global-reduction stopwatch — injectable
        #: so tests can pin it (:class:`repro.clock.FakeClock`).
        self.clock = clock or SYSTEM_CLOCK
        #: Mailbox-receive timeout, threaded from the driver's ``join_timeout``.
        self.take_timeout = take_timeout
        self.inbox = Mailbox("head")
        #: The global object, once the core has named its last merge.
        self.result: ReductionObject | None = None
        self.global_reduction_seconds = 0.0
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="head", daemon=True)
        self._thread.start()

    def join(self, timeout: float | None = None) -> ReductionObject:
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
                message = self.inbox.take(timeout=self.take_timeout)
                if isinstance(message, BaseException):
                    raise message  # a master died: the run fails now
                self.step(message)
        except BaseException as exc:  # surface in join()
            self._failure = exc

    def step(self, message) -> None:
        """Step the core with one message (stamped with ``perf_counter``)
        and carry out its actions; the final merge sets ``result``."""
        core = self.core
        for action in core.step(message, time.perf_counter()):
            if isinstance(action, Post):
                action.to.post(action.message)
            elif isinstance(action, Emit):
                if self.trace is not None:
                    self.trace.emit(action.kind, **action.fields)
            else:
                self._merge(action)
        if core.finished:
            self.result = core.merged

    def _merge(self, merge: Merge) -> None:
        started = self.clock.monotonic()
        for cluster, part in zip(merge.clusters, merge.parts):
            merge.into.merge(part)
            if self.trace is not None:
                self.trace.emit("merge_done", cluster=cluster)
        self.global_reduction_seconds += self.clock.monotonic() - started
