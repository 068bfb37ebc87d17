"""Multi-threaded, fault-tolerant chunk retrieval.

Section III-B: "Each slave retrieves jobs using multiple retrieval threads,
to capitalize on the fast network interconnects." A remote chunk's byte
range is split into ``threads`` sub-ranges fetched concurrently and
reassembled in order. For a shaped object store whose per-connection
bandwidth is the bottleneck, aggregate throughput scales with the number of
connections until the site link saturates — the behaviour the paper
exploits (and which `repro paper retrieval` sweeps). The sub-range reads
run on a standing pool (:func:`retrieval_pool`) that outlives the fetch:
with several chunk fetches in flight per slave, starting and joining a
thread per sub-range per chunk costs more than the reads it overlaps.

On top of the parallel split sits the resilience ladder
(:mod:`repro.resilience`, ``docs/RESILIENCE.md``): each sub-range is
retried under a :class:`~repro.resilience.RetryPolicy` (decorrelated-jitter
backoff, optional per-attempt timeout and overall deadline); a sub-range
still running past the hedging threshold is raced against a duplicate
request, first response wins; and a :class:`~repro.resilience.CircuitBreaker`
that has seen enough consecutive endpoint failures degrades the fetch from
N-way parallel to a single sequential stream instead of failing the job.
With ``policy=None`` (the default) none of this machinery is constructed
and the fetch path is the original direct read.
"""

from __future__ import annotations

import queue
import random
import zlib
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

from ..clock import SYSTEM_CLOCK
from ..errors import StorageError, TransientStorageError
from ..obs.events import EventLog
from ..resilience.circuit import CircuitBreaker
from ..resilience.retry import ResilienceStats, RetryPolicy, retry_call
from .base import StorageService

__all__ = [
    "RangePlan",
    "plan_ranges",
    "ChunkRetriever",
    "POOL_THREADS",
    "POOL_THREAD_PREFIX",
    "retrieval_pool",
]

#: Sub-range reads one pool keeps on the wire at once — a node's connection
#: budget. Two slaves with a full prefetch window of 4-way fetches want 48
#: beside the range each fetching thread reads itself; the rest queue.
#: (Shaped-WAN cold pass at 16 / 32 / 48 / 64 threads: 182 / 127 / 119 /
#: 123 ms — past 32 the extra connections buy under 10 %.)
POOL_THREADS = 32

#: Name prefix of the pool's threads (hygiene checks look for it).
POOL_THREAD_PREFIX = "retrieval"


def retrieval_pool() -> ThreadPoolExecutor:
    """A bounded pool for sub-range reads; threads start as work arrives."""
    return ThreadPoolExecutor(
        max_workers=POOL_THREADS, thread_name_prefix=POOL_THREAD_PREFIX
    )


@dataclass(frozen=True)
class RangePlan:
    """One sub-range of a chunk fetch."""

    offset: int
    length: int


def plan_ranges(offset: int, nbytes: int, parts: int) -> list[RangePlan]:
    """Split ``[offset, offset+nbytes)`` into up to ``parts`` even sub-ranges.

    Every byte is covered exactly once; earlier parts are at most one byte
    larger than later ones. Fewer than ``parts`` ranges are returned when
    the chunk has fewer bytes than parts.
    """
    if nbytes < 0:
        raise StorageError("cannot plan a negative-length retrieval")
    if parts <= 0:
        raise StorageError("retrieval thread count must be positive")
    if nbytes == 0:
        return []
    parts = min(parts, nbytes)
    base, extra = divmod(nbytes, parts)
    plans: list[RangePlan] = []
    cursor = offset
    for i in range(parts):
        length = base + (1 if i < extra else 0)
        plans.append(RangePlan(offset=cursor, length=length))
        cursor += length
    return plans


class ChunkRetriever:
    """Fetches chunk byte ranges from a storage service, possibly in parallel.

    The thread calling :meth:`fetch` reads the first sub-range itself and
    hands the others to ``pool`` — the :func:`retrieval_pool` of whoever
    shares this retriever between slaves (the
    :class:`~repro.data.dataset.DatasetReader`), which also shuts it down.
    Fetching threads are never pool threads, so a saturated pool only
    queues sub-ranges; it cannot deadlock a fetch against its own parts.
    A parallel retriever given no pool makes its own, which :meth:`close`
    joins. With a ``policy`` it becomes resilient:
    sub-ranges are retried, hedged, and the whole fetch degrades to
    single-stream while ``breaker`` is open. ``stats``/``trace`` record
    what the machinery did.
    """

    def __init__(
        self,
        store: StorageService,
        threads: int = 4,
        *,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        stats: ResilienceStats | None = None,
        trace: EventLog | None = None,
        seed: int = 2011,
        clock=None,
        pool: Executor | None = None,
    ) -> None:
        if threads <= 0:
            raise StorageError("retrieval thread count must be positive")
        self.store = store
        self.threads = threads
        self._own_pool = (
            retrieval_pool() if pool is None and threads > 1 else None
        )
        self._pool = pool if pool is not None else self._own_pool
        self.policy = policy
        self.breaker = breaker
        self.stats = stats if stats is not None else ResilienceStats()
        self.trace = trace
        self.seed = seed
        #: Time source for the hedging/timeout race and retry backoff —
        #: :data:`~repro.clock.SYSTEM_CLOCK` in production, a
        #: :class:`~repro.clock.FakeClock` in timing tests.
        self.clock = clock if clock is not None else SYSTEM_CLOCK

    def fetch(
        self, key: str, offset: int, nbytes: int, *, job_id: int = -1,
        file_id: int = -1,
    ) -> bytes:
        """Retrieve ``nbytes`` from ``key`` starting at ``offset``.

        ``job_id``/``file_id`` are optional context stamped onto any
        ``retry``/``hedge`` trace events this fetch emits.
        """
        parallel = self.threads
        if self.breaker is not None and self.breaker.open:
            parallel = 1
        plans = plan_ranges(offset, nbytes, parallel)
        if not plans:
            return b""
        if self.policy is None and len(plans) == 1:
            return self.store.read_range(key, plans[0].offset, plans[0].length)
        futures = [
            self._pool.submit(self._fetch_range, key, p, job_id, file_id)
            for p in plans[1:]
        ]
        try:
            parts = [self._fetch_range(key, plans[0], job_id, file_id)]
            parts += [f.result() for f in futures]
        finally:
            for future in futures:
                future.cancel()  # a queued read nobody will assemble
        blob = b"".join(parts)
        if len(blob) != nbytes:
            raise StorageError(
                f"short read on {key!r}: wanted {nbytes} bytes, got {len(blob)}"
            )
        return blob

    def close(self) -> None:
        """Join the pool this retriever made for itself, if it made one."""
        if self._own_pool is not None:
            self._own_pool.shutdown(wait=True)

    # -- per-sub-range machinery -------------------------------------------

    def _fetch_range(
        self, key: str, plan: RangePlan, job_id: int, file_id: int
    ) -> bytes:
        policy = self.policy
        if policy is None:
            return self._single_attempt(key, plan)
        if policy.attempt_timeout is None and policy.hedge_after is None:
            # Happy path: no clock to keep on the attempt, so take it
            # inline and pay for the retry machinery (per-range RNG,
            # closures) only once something actually fails.
            try:
                return self._single_attempt(key, plan)
            except TransientStorageError as exc:
                return self._retrying_fetch(key, plan, job_id, file_id, exc)
        return self._retrying_fetch(key, plan, job_id, file_id, None)

    def _retrying_fetch(
        self,
        key: str,
        plan: RangePlan,
        job_id: int,
        file_id: int,
        first_error: TransientStorageError | None,
    ) -> bytes:
        # Deterministic per-range RNG (no shared mutable state between
        # retrieval threads): backoff sequences depend only on the seed
        # and the range identity.
        rng = random.Random(
            (self.seed * 1_000_003)
            ^ zlib.crc32(key.encode())
            ^ (plan.offset << 1)
            ^ plan.length
        )
        # A failure from the inline fast-path attempt is replayed as the
        # first attempt of the loop so retry counting is unchanged.
        pending = [first_error] if first_error is not None else []

        def attempt() -> bytes:
            if pending:
                raise pending.pop()
            return self._attempt(key, plan, job_id, file_id)

        def on_retry(attempt: int, exc: BaseException, backoff: float) -> None:
            self.stats.add("retries")
            if self.trace is not None:
                self.trace.emit(
                    "retry", job_id=job_id, file_id=file_id,
                    detail=f"[{plan.offset},+{plan.length}) attempt {attempt} "
                    f"{type(exc).__name__}; backoff {backoff * 1e3:.1f}ms",
                )

        return retry_call(
            attempt, self.policy, rng, on_retry=on_retry,
            clock=self.clock.monotonic, sleep=self.clock.sleep,
        )

    def _single_attempt(self, key: str, plan: RangePlan) -> bytes:
        """One storage request, breaker-accounted."""
        try:
            data = self.store.read_range(key, plan.offset, plan.length)
        except BaseException:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return data

    def _attempt(
        self, key: str, plan: RangePlan, job_id: int, file_id: int
    ) -> bytes:
        policy = self.policy
        assert policy is not None
        if policy.attempt_timeout is None and policy.hedge_after is None:
            return self._single_attempt(key, plan)
        return self._raced_attempt(key, plan, job_id, file_id)

    def _raced_attempt(
        self, key: str, plan: RangePlan, job_id: int, file_id: int
    ) -> bytes:
        """One (possibly hedged) attempt with a per-attempt timeout.

        The request runs in a daemon thread so the caller can keep a
        clock on it. Past ``hedge_after`` a duplicate request is
        launched; the first success wins and the loser is abandoned
        (best-effort cancellation — its result is discarded). Past
        ``attempt_timeout`` the whole attempt is abandoned and reported
        as transient, handing control back to the retry loop.
        """
        policy = self.policy
        assert policy is not None
        clock = self.clock
        results: "queue.SimpleQueue[tuple[int, BaseException | None, bytes | None]]"
        results = queue.SimpleQueue()
        launched = 0

        def launch() -> None:
            nonlocal launched
            index = launched
            launched += 1

            def runner() -> None:
                try:
                    results.put((index, None, self._single_attempt(key, plan)))
                except BaseException as exc:
                    results.put((index, exc, None))

            clock.spawn(runner, name=f"range-read:{key}:{plan.offset}+{index}")

        launch()
        started = clock.monotonic()
        hedged = False
        failures = 0
        while True:
            elapsed = clock.monotonic() - started
            if policy.attempt_timeout is not None and elapsed >= policy.attempt_timeout:
                self.stats.add("timeouts")
                raise TransientStorageError(
                    f"range read {key!r}[{plan.offset},+{plan.length}) "
                    f"timed out after {policy.attempt_timeout:g}s"
                )
            if not hedged and policy.hedge_after is not None and elapsed >= policy.hedge_after:
                hedged = True
                launch()
                self.stats.add("hedges")
                if self.trace is not None:
                    self.trace.emit(
                        "hedge", job_id=job_id, file_id=file_id,
                        detail=f"[{plan.offset},+{plan.length}) duplicate "
                        f"after {elapsed * 1e3:.1f}ms",
                    )
                continue
            waits = []
            if policy.attempt_timeout is not None:
                waits.append(policy.attempt_timeout - elapsed)
            if not hedged and policy.hedge_after is not None:
                waits.append(policy.hedge_after - elapsed)
            try:
                index, error, data = clock.wait(
                    results, min(waits) if waits else None
                )
            except queue.Empty:
                continue
            if error is None:
                assert data is not None
                if index > 0:
                    self.stats.add("hedge_wins")
                return data
            failures += 1
            if failures >= launched:
                raise error
            # A request is still in flight (the hedge or the primary);
            # keep waiting for it.
