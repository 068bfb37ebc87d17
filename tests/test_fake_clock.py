"""``FakeClock.wait`` on the owner's thread: a queue that fills while the
owner looks.

The owner finds the queue empty; a worker then puts its item and exits
before the owner takes the clock's lock. No worker is left to count as
busy, so a wait that judged only the workers would call every one of
them parked: with no timeout it would raise "would block forever", with
one it would jump virtual time to the deadline and raise ``queue.Empty``
while the item sat in the queue. The wait re-checks the queue under the
lock instead.
"""

from __future__ import annotations

import queue
import threading

import pytest

from repro.clock import FakeClock


class _FilledWhileLooking(queue.SimpleQueue):
    """A queue whose first ``get_nowait`` lets ``worker`` put its item and
    exit, then reports the queue empty: the race, made certain."""

    def __init__(self, release: threading.Event) -> None:
        super().__init__()
        self.release = release
        self.worker: threading.Thread | None = None
        self.looked = False

    def get_nowait(self):
        if not self.looked:
            self.looked = True
            self.release.set()
            self.worker.join(timeout=10.0)
            assert not self.worker.is_alive()
            raise queue.Empty
        return super().get_nowait()


@pytest.mark.parametrize("timeout", [None, 5.0])
def test_wait_takes_an_item_put_by_a_worker_that_already_exited(timeout):
    with FakeClock() as clock:
        release = threading.Event()
        q = _FilledWhileLooking(release)

        def producer() -> None:
            release.wait(timeout=10.0)
            q.put("item")

        q.worker = clock.spawn(producer, name="producer")
        assert clock.wait(q, timeout) == "item"
        assert q.looked
        # The item was there: no virtual time passed waiting for it.
        assert clock.monotonic() == 0.0
