"""Injectable clocks: real time for production, virtual time for tests.

Every component that waits on time — the retry loop's backoff, the hedged
fetch's straggler race, the prefetch stages, the run monitor's sampling
interval — reads it through an injected clock instead of calling
:mod:`time` directly. Production code
never notices (:data:`SYSTEM_CLOCK` delegates straight through), but the
test suite can substitute a :class:`FakeClock` and assert on retries,
hedges and timeouts without a single real ``sleep`` in any assertion.

The contract a clock provides:

* ``monotonic()`` — the current time (seconds, arbitrary origin);
* ``sleep(seconds)`` — block the calling thread for that long;
* ``spawn(target, name=...)`` — launch a daemon worker thread, so a
  virtual clock knows which threads it is coordinating;
* ``wait(q, timeout)`` — a ``queue`` rendezvous: return the next item or
  raise :class:`queue.Empty` once ``timeout`` has elapsed *on this clock*.
  Any thread may call it; ``q`` needs ``get``, ``get_nowait`` and
  ``empty``.

:class:`FakeClock` implements virtual time with one rule: the thread
driving the test owns the clock, and virtual time only advances when every
spawned worker is parked — in :meth:`FakeClock.sleep`, or in
:meth:`FakeClock.wait` on a queue that is empty. A worker that is
actually computing gets real scheduler time (a tiny poll, liveness only —
no assertion ever depends on it); a worker parked at a virtual deadline is
woken exactly when the owner's ``wait``/``sleep``/``advance`` moves the
clock past it, and one parked on a queue counts as running again the
moment an item is put there. That makes straggler races deterministic:
the straggling request *cannot* deliver before the hedge threshold,
because its wake-up time is a number, not a scheduler coincidence.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from typing import Any, Callable

from .errors import ReproError

__all__ = ["SystemClock", "SYSTEM_CLOCK", "FakeClock"]


class SystemClock:
    """The real thing: thin delegation to :mod:`time`/:mod:`threading`."""

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)

    def wait(self, q: "queue.SimpleQueue[Any]", timeout: float | None) -> Any:
        return q.get(timeout=timeout)

    def spawn(
        self, target: Callable[[], None], *, name: str = "clock-worker"
    ) -> threading.Thread:
        thread = threading.Thread(target=target, daemon=True, name=name)
        thread.start()
        return thread


#: Shared default instance — stateless, safe to share everywhere.
SYSTEM_CLOCK = SystemClock()


class FakeClock:
    """Deterministic virtual clock for multi-threaded timing tests.

    The constructing (owner) thread drives time: its ``sleep`` advances the
    clock immediately, and its ``wait`` advances the clock whenever every
    spawned worker is parked at a virtual deadline. Worker threads (those
    launched through :meth:`spawn`) park in ``sleep`` until the owner moves
    time past their deadline.

    ``close()`` releases any still-parked workers (abandoned stragglers)
    so a test never leaks a blocked thread past its scope.
    """

    def __init__(self, start: float = 0.0, *, poll: float = 0.0005) -> None:
        self._now = start
        self._cond = threading.Condition()
        #: Spawned worker threads still running.
        self._workers: set[threading.Thread] = set()
        #: Worker thread -> virtual deadline it is parked until.
        self._sleepers: dict[threading.Thread, float] = {}
        #: Worker thread -> the queue it is parked on in :meth:`wait`.
        self._waiting: dict[threading.Thread, Any] = {}
        self._closed = False
        #: Real-time yield between liveness polls while a worker computes.
        self._poll = poll

    # -- clock interface ----------------------------------------------------

    def monotonic(self) -> float:
        with self._cond:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        me = threading.current_thread()
        with self._cond:
            if me not in self._workers:
                # The owner thread's sleeps (e.g. retry backoff) advance
                # virtual time directly — nobody else will.
                self._advance_locked(self._now + seconds)
                return
            deadline = self._now + seconds
            self._sleepers[me] = deadline
            self._cond.notify_all()
            while not self._closed and self._now < deadline:
                self._cond.wait()
            self._sleepers.pop(me, None)
            self._cond.notify_all()

    def spawn(
        self, target: Callable[[], None], *, name: str = "fake-clock-worker"
    ) -> threading.Thread:
        def tracked() -> None:
            try:
                target()
            finally:
                with self._cond:
                    self._workers.discard(threading.current_thread())
                    self._cond.notify_all()

        thread = threading.Thread(target=tracked, daemon=True, name=name)
        with self._cond:
            self._workers.add(thread)
        thread.start()
        return thread

    def wait(self, q: "queue.SimpleQueue[Any]", timeout: float | None) -> Any:
        deadline = None if timeout is None else self.monotonic() + timeout
        if threading.current_thread() in self._workers:
            return self._worker_wait(q, deadline)
        while True:
            try:
                return q.get_nowait()
            except queue.Empty:
                pass
            advanced = False
            with self._cond:
                if not q.empty():
                    # Filled since the look above, by a worker that may
                    # have exited already: it counts as neither busy nor
                    # parked, so only the queue itself tells.
                    continue
                # A worker counts as parked only while its deadline is
                # still ahead; one just woken (deadline reached but not yet
                # resumed) is treated as busy so we give it real time to
                # deliver before judging the queue empty again.
                parked = [
                    d for t, d in self._sleepers.items()
                    if d > self._now and not self._has_mail(t)
                ]
                busy = len(self._workers) - len(parked)
                if busy == 0:
                    wake = min(
                        (d for d in parked if d != math.inf), default=None
                    )
                    if deadline is not None and (wake is None or wake >= deadline):
                        self._advance_locked(deadline)
                        raise queue.Empty
                    if wake is not None:
                        self._advance_locked(wake)
                        advanced = True
                    elif deadline is None:
                        raise ReproError(
                            "FakeClock.wait would block forever: no worker "
                            "is running or parked, and no timeout was given"
                        )
            if not advanced:
                time.sleep(self._poll)

    def _has_mail(self, worker: threading.Thread) -> bool:
        q = self._waiting.get(worker)
        return q is not None and not q.empty()

    def _worker_wait(self, q: Any, deadline: float | None) -> Any:
        """A worker's ``wait``: parked for as long as ``q`` stays empty.

        Workers never move the clock; they poll ``q`` in real time (a
        liveness poll, like the owner's) until an item arrives, their
        virtual deadline passes, or the clock is closed.
        """
        me = threading.current_thread()
        with self._cond:
            self._waiting[me] = q
            self._sleepers[me] = math.inf if deadline is None else deadline
            self._cond.notify_all()
            try:
                while True:
                    try:
                        return q.get_nowait()
                    except queue.Empty:
                        pass
                    if self._closed or self._now >= self._sleepers[me]:
                        raise queue.Empty
                    self._cond.wait(self._poll)
            finally:
                del self._waiting[me]
                del self._sleepers[me]
                self._cond.notify_all()

    # -- test helpers -------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Move virtual time forward, waking workers whose deadlines pass."""
        if seconds < 0:
            raise ReproError("cannot advance a clock backwards")
        with self._cond:
            self._advance_locked(self._now + seconds)

    def close(self) -> None:
        """Release every parked worker (their sleeps return immediately)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "FakeClock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _advance_locked(self, target: float) -> None:
        if target > self._now:
            self._now = target
            self._cond.notify_all()
