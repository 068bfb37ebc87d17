"""Queue transport between runtime components.

Every node owns a :class:`Mailbox`. The executable runtime runs all nodes
as threads in one process, so a mailbox is a :class:`queue.Queue` with a
name and two message counters — ``post`` never sleeps. Replacing this
module with real sockets is the intended extension point for a
multi-process deployment.
"""

from __future__ import annotations

import queue
from typing import Any

from ..errors import RuntimeTimeoutError

__all__ = ["Mailbox"]


class Mailbox:
    """A named FIFO message endpoint."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self.sent = 0
        self.received = 0

    def post(self, message: Any) -> None:
        """Deliver a message."""
        self.sent += 1
        self._queue.put(message)

    def take(self, timeout: float | None = None) -> Any:
        """Blocking receive; raises :class:`RuntimeTimeoutError` on timeout."""
        try:
            message = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeTimeoutError(
                f"mailbox {self.name!r}: no message within {timeout}s"
            ) from None
        self.received += 1
        return message

    def __len__(self) -> int:
        return self._queue.qsize()
