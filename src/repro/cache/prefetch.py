"""The stage threads that carry a slave's job requests out ahead of compute.

A prefetching slave's :class:`~repro.core.slave.SlaveCore` sizes a window
of jobs requested ahead of the one its owner thread reduces; a
:class:`Prefetcher` carries those requests out on stage threads (acquire
from the master, then fetch, cache first), so the owner computes job *N*
while jobs *N+1 … N+W* are on the wire — the overlap of "multiple
retrieval threads" with compute that Section III-B intends.

Acquisitions are serialized, numbered in grant order, and stop at the
first ``None`` (or error). The request that draws the ``None`` is the one
the master parks on an empty pool until the owner's own ``SlaveJobDone``
messages drain it, so the pipeline terminates by itself; the master
cancels parked requests from a slave it has seen fail.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from ..clock import SYSTEM_CLOCK
from ..core.slave import Fetched
from ..errors import RuntimeProtocolError
from ..obs.events import EventLog

__all__ = ["Prefetcher"]

_EXIT = object()


class Prefetcher:
    """The acquisition-and-fetch stages running ahead of one slave worker.

    ``acquire()`` blocks until the master hands out the next job (or
    ``None``); ``fetch(job)`` returns the job's chunk bytes. Both run on
    stage threads named ``prefetch:{cluster}:{worker}:{i}``, started as
    requests outrun them and joined by :meth:`close`; any exception they
    raise re-raises on the owner's :meth:`take`. ``request``, ``take`` and
    ``close`` belong to the one owning thread.
    """

    def __init__(
        self,
        acquire: Callable[[], Any],
        fetch: Callable[[Any], bytes],
        *,
        cluster: str = "",
        worker: int = -1,
        trace: EventLog | None = None,
        clock=SYSTEM_CLOCK,
    ) -> None:
        self._acquire = acquire
        self._fetch = fetch
        self.cluster = cluster
        self.worker = worker
        self.trace = trace
        #: Jobs acquired ahead of the owner asking.
        self.prefetches = 0
        self._clock = clock
        # One permit lets one stage acquire one job; ``False`` stops a stage.
        self._permits: "queue.SimpleQueue[bool]" = queue.SimpleQueue()
        # (Fetched, raw, error) in completion order.
        self._results: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._turn = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._acquired = 0  # next grant number; guarded by ``_turn``
        self._exhausted = False
        self._closed = False
        self._outstanding = 0  # owner-side: requests not yet taken

    def request(self) -> None:
        """Acquire the next job and fetch its bytes on a stage thread."""
        if self._exhausted or self._closed:
            return
        self._outstanding += 1
        self._permits.put(True)
        if len(self._threads) < self._outstanding:
            self._threads.append(
                self._clock.spawn(
                    self._stage,
                    name=f"prefetch:{self.cluster}:{self.worker}:{len(self._threads)}",
                )
            )

    def take(self, timeout: float | None = None) -> tuple[Fetched, bytes | None]:
        """Block until a stage finishes a request: its
        :class:`~repro.core.slave.Fetched` and bytes, in completion order.
        A failure raised on a stage re-raises here, on the owner's thread.
        """
        try:
            fetched, raw, error = self._clock.wait(self._results, timeout)
        except queue.Empty:
            raise RuntimeProtocolError(
                f"prefetcher for worker {self.worker}: no job within {timeout}s"
            ) from None
        self._outstanding -= 1
        if error is not None:
            raise error
        return fetched, raw

    def close(self) -> None:
        """Stop and join every stage (after any fetch in flight finishes)."""
        self._closed = True
        for _ in self._threads:
            self._permits.put(False)
        exits = 0
        while exits < len(self._threads):
            # Dropping what is still queued also drops its chunk bytes.
            if self._clock.wait(self._results, None) is _EXIT:
                exits += 1
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    # -- stage threads ------------------------------------------------------

    def _stage(self) -> None:
        clock = self._clock
        results = self._results
        while clock.wait(self._permits, None):
            with self._turn:
                if self._exhausted or self._closed:
                    continue
                seq = self._acquired
                self._acquired += 1
                error = None
                try:
                    job = self._acquire()
                except BaseException as exc:
                    job, error = None, exc
                if job is None:
                    self._exhausted = True
                    results.put((Fetched(seq, None), None, error))
                    continue
                self.prefetches += 1
            if self._closed:
                # The owner is gone; the master re-executes this job, so
                # its bytes would be fetched for nobody.
                continue
            if self.trace is not None:
                self.trace.emit(
                    "prefetch", cluster=self.cluster, worker=self.worker,
                    job_id=job.job_id, file_id=job.file_id,
                    detail=f"{job.nbytes}B ahead of compute",
                )
            started = clock.monotonic()
            try:
                raw = self._fetch(job)
            except BaseException as exc:
                results.put((Fetched(seq, job), None, exc))
                continue
            seconds = clock.monotonic() - started
            results.put((Fetched(seq, job, seconds, memoryview(raw).nbytes), raw, None))
        results.put(_EXIT)
