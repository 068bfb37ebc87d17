"""The slave crew: the threads slaves and their retrieval run on.

The paper's slaves are long-lived workers: each retrieves chunks with
several retrieval threads and processes them. A :class:`SlaveCrew`
keeps those threads between runs. :meth:`SlaveCrew.start_all` hands
each slave's loop to a parked crew thread and starts a new thread only
for a slave no parked thread is left for, so the crew grows to the peak
number of slaves running at once. ``retrieval`` is the one sub-range
read pool the crew's slaves share through their
:class:`~repro.data.dataset.DatasetReader`.

Starting a thread is slow inside a busy runtime: ``Thread.start`` waits
until the new thread runs, and it cannot run until it gets the
interpreter lock, which the run's first slave may already hold. Starting
a 1+1 run's two slave threads took 0.5 ms (median) one run at a time
and 1.4 ms with two runs outstanding through one ``JobService`` on a
2-core VM; handing them to parked threads took 0.03 ms.

Names carry the census: a crew thread is ``slave:<cluster>:<id>`` only
while it runs that slave and a pool thread ``retrieval_<n>`` only while
it reads; parked, both go by ``crew:*`` names that no middleware prefix
matches.

Who owns a crew follows the lifetimes around it. A
:class:`~repro.service.JobService` owns one for its life and installs it
(:meth:`SlaveCrew.active`) around each execution; a
:class:`~repro.runtime.driver.CloudBurstingRuntime` borrows the
installed crew, or owns one of its own when none is installed and reaps
it with its process pool. :meth:`SlaveCrew.close` joins every parked
thread. A thread still running a slave that never ends (a hung fault
hook) is never handed another.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from ..storage.retrieval import POOL_THREAD_PREFIX, POOL_THREADS

__all__ = ["SlaveCrew", "Shift", "current", "PARKED"]

#: Name of a crew thread that runs no slave.
PARKED = "crew:parked"
#: Name prefix of a parked retrieval thread; reading, it is
#: ``retrieval_<n>``.
_PARKED_READER = "crew:retrieval"

_ACTIVE: ContextVar["SlaveCrew | None"] = ContextVar("slave_crew", default=None)


def current() -> "SlaveCrew | None":
    """The crew installed for this context, or ``None`` outside a service."""
    return _ACTIVE.get()


class Shift:
    """One target handed to a crew thread. ``join`` and ``is_alive``
    follow the target, not the thread, which outlives it. It holds no
    reference to the target, so a worker that keeps its shift is still
    freed by reference counting once its pass drops it."""

    __slots__ = ("_done",)

    def __init__(self) -> None:
        self._done = threading.Event()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the target to return; ``False`` if it has not."""
        return self._done.wait(timeout)

    def is_alive(self) -> bool:
        return not self._done.is_set()


def _reading(fn, args, kwargs):
    """Run one sub-range read under the ``retrieval_<n>`` name."""
    thread = threading.current_thread()
    parked = thread.name
    thread.name = POOL_THREAD_PREFIX + parked[len(_PARKED_READER):]
    try:
        return fn(*args, **kwargs)
    finally:
        thread.name = parked


class _RetrievalPool(ThreadPoolExecutor):
    """The crew's sub-range readers: a bounded pool whose threads start as
    work arrives and stay parked between reads."""

    def __init__(self) -> None:
        super().__init__(
            max_workers=POOL_THREADS, thread_name_prefix=_PARKED_READER
        )

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_reading, fn, args, kwargs)


class SlaveCrew:
    """Parked daemon threads that run slaves, plus the retrieval pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Parked threads, each with the queue it waits on for a shift.
        self._parked: list[tuple[threading.Thread, queue.SimpleQueue]] = []
        self._closed = False
        #: Sub-range reads of every slave on this crew.
        self.retrieval = _RetrievalPool()

    @contextmanager
    def active(self) -> Iterator[None]:
        """Make this crew :func:`current` for the calling context."""
        token = _ACTIVE.set(self)
        try:
            yield
        finally:
            _ACTIVE.reset(token)

    def start_all(self, work: list[tuple[Callable[[], None], str]]) -> list[Shift]:
        """Run each ``(target, name)`` on a parked thread renamed ``name``,
        or on a new thread of that name when none is parked. A thread is
        held for every target before any runs: a target that ends at once
        frees no thread for a later one of the same call, so the crew
        grows to the slaves a pass runs together, not to how many happened
        to overlap. A target should not raise: one that does ends its
        thread."""
        shifts = [Shift() for _ in work]
        with self._lock:
            taken = min(len(shifts), len(self._parked))
            parked = [self._parked.pop() for _ in range(taken)]
        for (thread, inbox), (target, name), shift in zip(parked, work, shifts):
            thread.name = name
            inbox.put((target, shift))
        for (target, name), shift in zip(work[taken:], shifts[taken:]):
            # Handed over through the queue too: a thread's own arguments
            # live as long as the thread does.
            inbox = queue.SimpleQueue()
            inbox.put((target, shift))
            threading.Thread(
                target=self._serve, args=(inbox,), name=name, daemon=True
            ).start()
        return shifts

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        thread = threading.current_thread()
        target, shift = inbox.get()
        while target is not None:
            try:
                # A fresh context per shift, as a new thread would have.
                contextvars.Context().run(target)
            except BaseException:
                shift._done.set()  # the thread ends, and its shift with it
                raise
            # Parked, the thread keeps nothing of the pass alive.
            target = None
            thread.name = PARKED
            # Parked before the shift reads as done, so whoever joined it
            # finds this thread idle.
            with self._lock:
                closed = self._closed
                if not closed:
                    self._parked.append((thread, inbox))
            shift._done.set()
            if closed:
                return
            target, shift = inbox.get()

    def close(self) -> None:
        """Join the retrieval pool, then every parked thread. A thread
        still running a slave exits once it returns. Idempotent.

        The order keeps peak RSS steady. An exiting thread puts its
        malloc arena on glibc's free list, last in first out, and the
        next crew's slaves start before its readers. Slave threads that
        end last hand their arenas, which hold a pass's worth of free
        2 MiB buffers, to the next slaves. Readers that ended last would
        hand over their small arenas instead. The next slaves would grow
        those, and the big arenas would sit idle: about 30 MB more
        resident on ``pagerank_sync`` after each crew whose slaves
        fetched a remote chunk.
        """
        with self._lock:
            self._closed = True
            parked, self._parked = self._parked, []
        me = threading.current_thread()
        # A reader cannot join its own pool (a finalizer may run anywhere).
        self.retrieval.shutdown(
            wait=me not in self.retrieval._threads, cancel_futures=True
        )
        for _, inbox in parked:
            inbox.put((None, None))
        for thread, _ in parked:
            if thread is not me:
                thread.join()

    def __enter__(self) -> "SlaveCrew":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
