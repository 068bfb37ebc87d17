"""Queue transport between runtime components.

Every node owns a :class:`Mailbox`: a locked FIFO with a name and two
message counters, whose ``post`` never sleeps. A slave's reply mailbox is
taken by its thread. The head's and each master's have an owner handler
instead, so the thread that posts steps the node and neither needs a
thread of its own: one thread at a time drains such a mailbox, in FIFO
order, and a post that arrives meanwhile, or from inside the handler,
is only queued for the drainer. A node is never stepped re-entrantly or
by two threads at once. Replacing this module with real sockets is the
intended extension point for a multi-process deployment.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import Any, Callable

from ..errors import RuntimeTimeoutError

__all__ = ["Mailbox"]


class Mailbox:
    """A named FIFO message endpoint. ``handler`` is the owner's bound
    method and must not raise. The owner holds its mailbox, so the
    mailbox holds the handler weakly: a pass's nodes are freed when the
    pass drops them, not at a full garbage collection; once the owner is
    gone, what is posted is dropped."""

    def __init__(self, name: str, handler: Callable[[Any], None] | None = None) -> None:
        self.name = name
        self._handler = weakref.WeakMethod(handler) if handler is not None else None
        self._messages: deque[Any] = deque()
        self._arrived = threading.Condition(threading.Lock())
        self._draining = False
        self.sent = 0
        self.received = 0

    def post(self, message: Any) -> None:
        """Deliver a message; with a handler, drain the mailbox on this
        thread unless a thread already is."""
        with self._arrived:
            self.sent += 1
            self._messages.append(message)
            if self._handler is None:
                self._arrived.notify()
                return
            if self._draining:
                return
            self._draining = True
        handler = self._handler()
        while True:
            with self._arrived:
                if not self._messages:
                    self._draining = False
                    return
                message = self._messages.popleft()
                self.received += 1
            if handler is not None:
                handler(message)

    def take(self, timeout: float | None = None) -> Any:
        """Blocking receive; raises :class:`RuntimeTimeoutError` on timeout."""
        with self._arrived:
            if not self._arrived.wait_for(lambda: self._messages, timeout):
                raise RuntimeTimeoutError(
                    f"mailbox {self.name!r}: no message within {timeout}s"
                )
            self.received += 1
            return self._messages.popleft()

    def __len__(self) -> int:
        return len(self._messages)
