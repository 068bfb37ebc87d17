"""The head node: the shell around :class:`~repro.core.head.HeadCore`.

The core holds the head's protocol (Section III-B: job requests through
the scheduler, group acks, the uploads it takes, their coverage and the
merge order). This shell owns the head's mailbox: whichever thread posts
to it steps the core with the time it took each message (see
:mod:`repro.runtime.transport`) and carries out the core's actions:
replies, trace events, and the merges, timed on its clock. A master that
dies posts its failure here, and the head records it: the run fails at
once, naming the cluster.
"""

from __future__ import annotations

import threading
import time

from ..clock import SYSTEM_CLOCK
from ..core.head import HeadCore, Merge
from ..core.master import Emit, Post
from ..core.reduction import ReductionObject
from ..errors import RuntimeTimeoutError
from ..obs.events import EventLog
from .transport import Mailbox

__all__ = ["HeadNode"]


class HeadNode:
    """Stepped by the threads that message it; ``join`` returns the
    core's global object, or raises what failed the run."""

    def __init__(
        self,
        core: HeadCore,
        *,
        trace: EventLog | None = None,
        clock=None,
    ) -> None:
        self.core = core
        self.trace = trace
        #: Timing source for the global-reduction stopwatch — injectable
        #: so tests can pin it (:class:`repro.clock.FakeClock`).
        self.clock = clock or SYSTEM_CLOCK
        self.inbox = Mailbox("head", handler=self._deliver)
        #: The global object, once the core has named its last merge.
        self.result: ReductionObject | None = None
        self.global_reduction_seconds = 0.0
        self._done = threading.Event()  # the core finished or failed
        self._failure: Exception | None = None

    def join(self, timeout: float | None = None) -> ReductionObject:
        if not self._done.wait(timeout):
            raise RuntimeTimeoutError(f"head did not finish within {timeout}s")
        if self._failure is not None:
            raise self._failure
        assert self.result is not None
        return self.result

    def _deliver(self, message) -> None:
        """The mailbox's handler. A failure ends the run; later messages are void."""
        if self._done.is_set():
            return
        try:
            if isinstance(message, Exception):
                raise message  # a master died: the run fails now
            self.step(message)
        except Exception as exc:  # surface in join()
            self._failure = exc
            self._done.set()

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
            self._done.set()

    def _merge(self, merge: Merge) -> None:
        started = self.clock.monotonic()
        for cluster, part in zip(merge.clusters, merge.parts):
            merge.into.merge(part)
            if self.trace is not None:
                self.trace.emit("merge_done", cluster=cluster)
        self.global_reduction_seconds += self.clock.monotonic() - started
