"""A self-sizing prefetch window for slave workers.

Without prefetch a slave is strictly sequential: request a job, fetch its
chunk, compute, repeat — retrieval and compute never overlap. A
:class:`Prefetcher` keeps up to *W* jobs acquired-and-fetching ahead of
its owner. Each of its stage threads runs the caller's ``acquire``
closure (post a ``SlaveJobRequest``, wait for the master's reply), then
the ``fetch`` closure (cache first, then the multi-threaded retriever),
and hands the ``(job, bytes)`` pair over; the owning slave thread
computes job *N* while jobs *N+1 … N+W* are on the wire — the overlap of
"multiple retrieval threads" with compute that Section III-B intends.

*W* sizes itself: ``clamp(ceil(fetch_time / compute_time), 1, cap)`` from
two running estimates the prefetcher takes on its own clock — a stage's
fetch duration, and the owner's gap between one :meth:`~Prefetcher.take`
returning and the next being called. It starts at 1 and cannot grow
before both have been observed, so a site-local read or an all-hits warm
pass (fetch ≈ 0) never runs more than one job ahead, and what a slave
holds back from the shared pool is at most one fetch-time's worth of its
own compute — the bound on the end-of-run idle the window can add to the
paper's pooling-based load balancing. ``cap`` is a byte budget over the
size of the chunks being delivered and a fixed job ceiling
(:data:`WINDOW_BYTES`, :data:`MAX_WINDOW_JOBS`;
``benchmarks/bench_cache.py`` holds the sweep that justifies them).

Order and liveness: acquisitions are serialized, and jobs are delivered
in acquisition order however their fetches finish, so a slave's reduction
is a function of its job assignment alone. Acquisition stops at the first
``None`` (or error); a stage that has not posted its request by then
never does. The request that draws the ``None`` is the one the master
parks on an empty pool until the in-flight count drains — the owner's
own ``SlaveJobDone`` messages drain it — so the pipeline terminates by
itself. Fault tolerance holds because every job a stage is handed is
recorded against the slave in the master's re-execution ledger, and the
master cancels parked requests from a slave it has seen fail.

The class is deliberately transport-agnostic (two closures in, ordered
pairs out) so the cache layer does not depend on the runtime's message
types.
"""

from __future__ import annotations

import math
import queue
import threading
from typing import Any, Callable

from ..clock import SYSTEM_CLOCK
from ..errors import RuntimeProtocolError
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry

__all__ = ["Prefetcher", "MAX_WINDOW_JOBS", "WINDOW_BYTES"]

#: Most jobs one slave keeps in flight. On the shaped-WAN cold pass of
#: ``benchmarks/e2e`` (fetch ~10x compute, two slaves) ceilings of
#: 1 / 2 / 4 / 8 / 16 read 432 / 243 / 160 / 130 / 137 ms: eight is where
#: it stops paying, and every job held here is one another slave cannot
#: take. ``bench_cache.py`` prints the same sweep in virtual time.
MAX_WINDOW_JOBS = 8

#: Most chunk bytes one slave holds ahead of its compute: with the paper's
#: tens-of-megabytes chunks the window stays at one or two jobs instead
#: of pinning eight chunks per slave beside the chunk cache.
WINDOW_BYTES = 32 * 1024 * 1024

#: Weight of the newest sample in the two running estimates.
_SMOOTHING = 0.5

_EXIT = object()


def _blend(estimate: float | None, sample: float) -> float:
    if estimate is None:
        return sample
    return estimate + _SMOOTHING * (sample - estimate)


class Prefetcher:
    """The acquisition-and-fetch stages running ahead of one slave worker.

    ``acquire()`` blocks until the master hands out the next job (or
    ``None`` when the run is over); ``fetch(job)`` returns the job's chunk
    bytes. Both run on stage threads named ``prefetch:{cluster}:{worker}:{i}``
    — the first started by the first :meth:`take`, the rest as the window
    grows, all joined by :meth:`close`. Any exception they raise is
    re-delivered to the owner's :meth:`take` in the failed job's turn,
    exactly as the synchronous path would have surfaced it.

    ``take`` and ``close`` belong to the one owning thread.
    """

    def __init__(
        self,
        acquire: Callable[[], Any],
        fetch: Callable[[Any], bytes],
        *,
        cluster: str = "",
        worker: int = -1,
        trace: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
        clock=SYSTEM_CLOCK,
    ) -> None:
        self._acquire = acquire
        self._fetch = fetch
        self.cluster = cluster
        self.worker = worker
        self.trace = trace
        #: Jobs whose bytes were fetched ahead of the owner asking.
        self.prefetches = 0
        self._counter = metrics.counter("prefetches") if metrics else None
        self._clock = clock
        # One permit lets one stage acquire one job; ``False`` stops a stage.
        self._permits: "queue.SimpleQueue[bool]" = queue.SimpleQueue()
        # (seq, job, raw, error, fetch seconds) in completion order.
        self._results: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._turn = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._acquired = 0  # next sequence number; guarded by ``_turn``
        self._exhausted = False
        self._closed = False
        # Owner-side state: no other thread touches it.
        self._permitted = 0
        self._delivered = 0
        self._stash: dict[int, tuple] = {}
        self._fetch_s: float | None = None
        self._compute_s: float | None = None
        self._chunk_bytes = 0
        self._returned_at: float | None = None

    @property
    def window(self) -> int:
        """Jobs the owner currently allows in flight ahead of itself."""
        fetch, compute = self._fetch_s, self._compute_s
        if fetch is None or compute is None or fetch <= compute:
            return 1
        cap = MAX_WINDOW_JOBS
        if self._chunk_bytes > 0:
            cap = min(cap, max(1, WINDOW_BYTES // self._chunk_bytes))
        if compute <= 0:
            return cap
        return min(cap, math.ceil(fetch / compute))

    def take(self, timeout: float | None = None) -> tuple[Any, bytes | None]:
        """Block until the next ``(job, bytes)`` pair, in acquisition order.

        ``job`` is ``None`` when the master reported the run over. A
        failure raised on a stage re-raises here, on the owner's thread.
        """
        clock = self._clock
        if self._returned_at is not None:
            self._compute_s = _blend(
                self._compute_s, clock.monotonic() - self._returned_at
            )
        self._refill()
        while self._delivered not in self._stash:
            try:
                seq, *rest = clock.wait(self._results, timeout)
            except queue.Empty:
                raise RuntimeProtocolError(
                    f"prefetcher for worker {self.worker}: no job within "
                    f"{timeout}s"
                ) from None
            self._stash[seq] = rest
        job, raw, error, fetch_s = self._stash.pop(self._delivered)
        self._delivered += 1
        if error is not None:
            raise error
        if job is not None:
            self._fetch_s = _blend(self._fetch_s, fetch_s)
            self._chunk_bytes = memoryview(raw).nbytes
            self._refill()
        self._returned_at = clock.monotonic()
        return job, raw

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
        self._stash.clear()

    def _refill(self) -> None:
        """Issue permits (and start stages) up to the current window."""
        if self._exhausted or self._closed:
            return
        window = self.window
        while self._permitted - self._delivered < window:
            self._permitted += 1
            self._permits.put(True)
            if len(self._threads) < self._permitted - self._delivered:
                self._threads.append(
                    self._clock.spawn(
                        self._stage,
                        name=f"prefetch:{self.cluster}:{self.worker}:"
                        f"{len(self._threads)}",
                    )
                )

    # -- stage threads ------------------------------------------------------

    def _stage(self) -> None:
        clock = self._clock
        results = self._results
        trace = self.trace
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
                    results.put((seq, None, None, error, 0.0))
                    continue
                self.prefetches += 1
            if self._closed:
                # The owner is gone; the master re-executes this job, so
                # its bytes would be fetched for nobody.
                continue
            if self._counter is not None:
                self._counter.inc()
            if trace is not None:
                trace.emit(
                    "prefetch", cluster=self.cluster, worker=self.worker,
                    job_id=job.job_id, file_id=job.file_id,
                    detail=f"{job.nbytes}B ahead of compute",
                )
                trace.emit(
                    "fetch_start", cluster=self.cluster, worker=self.worker,
                    job_id=job.job_id, file_id=job.file_id,
                )
            started = clock.monotonic()
            try:
                raw = self._fetch(job)
            except BaseException as exc:
                results.put((seq, job, None, exc, 0.0))
                continue
            elapsed = clock.monotonic() - started
            if trace is not None:
                trace.emit(
                    "fetch_end", cluster=self.cluster, worker=self.worker,
                    job_id=job.job_id, file_id=job.file_id,
                )
            results.put((seq, job, raw, None, elapsed))
        results.put(_EXIT)
