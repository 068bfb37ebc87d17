"""The slave's protocol, shared by the runtime and the simulator.

Section III-B: a slave requests a job, retrieves its chunk, reduces it
into its private reduction object and reports it done; once the master
answers ``None`` it hands the object over. :class:`SlaveCore` is that loop
as ``step(event, now) -> actions``, beside
:class:`~repro.core.master.MasterCore`: no threads, no clock reads,
stepped only by the slave's owning thread or process. It owns the job
sequence, delivery in grant order, the jobs committed since the last
hand-over, the streamed-partial flush every ``watermark`` jobs, the
``compute_start``/``compute_end``/``job_done``/``sync_partial`` events,
and the slave's half of the paper's split (Figure 3): the seconds it spent
reducing and the seconds its owner was blocked on fetches, summed from the
durations the shell reports on :class:`Reduced` and :class:`Fetched`.

A :class:`Request` is one acquisition *and* its fetch: the runtime's owner
thread is busy while it reduces, so a granted job's fetch must start
without it. The shell numbers acquisitions in grant order and stops at the
first ``None``; the core reduces jobs in that order however the fetches
finish, so a slave's reduction is a function of its job assignment alone.
With ``prefetch`` the core keeps :func:`prefetch_window` jobs requested
ahead of the one being reduced; without it, one :class:`Request` when it
holds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..errors import RuntimeProtocolError
from .job import Job
from .master import Emit, Post
from .messages import SlaveJobDone

__all__ = [
    "MAX_WINDOW_JOBS", "WINDOW_BYTES", "prefetch_window", "Fetched", "Reduced",
    "Request", "Reduce", "HandOver", "SlaveCore",
]

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


def prefetch_window(
    fetch_s: float | None, compute_s: float | None, chunk_bytes: int
) -> int:
    """``clamp(ceil(fetch / compute), 1, min(MAX_WINDOW_JOBS, WINDOW_BYTES
    // chunk))``; 1 until both estimates exist. A fetch no slower than
    compute (a site-local read, a warm pass) never runs more than one job
    ahead, so what a slave holds back from the shared pool is at most one
    fetch-time's worth of its own compute."""
    if fetch_s is None or compute_s is None or fetch_s <= compute_s:
        return 1
    cap = MAX_WINDOW_JOBS
    if chunk_bytes > 0:
        cap = min(cap, max(1, WINDOW_BYTES // chunk_bytes))
    if compute_s <= 0:
        return cap
    return min(cap, math.ceil(fetch_s / compute_s))


def _blend(estimate: float | None, sample: float) -> float:
    if estimate is None:
        return sample
    return estimate + _SMOOTHING * (sample - estimate)


@dataclass(frozen=True)
class Fetched:
    """Acquisition ``seq`` (grant order) is done: ``job`` (``None``: the
    master has nothing more), its bytes fetched in ``seconds`` (the
    prefetch window's estimate); the owner was blocked ``waited`` seconds
    for this event — the fetch itself on a sequential slave, the wait for
    a stage's result on a prefetching one."""

    seq: int
    job: Job | None
    seconds: float = 0.0
    nbytes: int = 0
    waited: float = 0.0


@dataclass(frozen=True)
class Reduced:
    """The owner finished reducing ``job``, in ``seconds``."""

    job: Job
    seconds: float = 0.0


@dataclass(frozen=True)
class Request:
    """Acquire one job from the master, fetch its bytes, report
    :class:`Fetched`."""


@dataclass(frozen=True)
class Reduce:
    """Run the fault hook, reduce ``job``'s bytes, report :class:`Reduced`."""

    job: Job


@dataclass(frozen=True)
class HandOver:
    """Post the object reduced since the last hand-over as a
    ``SlaveReduction`` committing ``job_ids``; after a ``partial`` one,
    start a fresh object."""

    partial: bool
    job_ids: tuple[int, ...]


class SlaveCore:
    """One slave: ``watermark`` jobs per streamed partial (``0``: none),
    whether to request ahead of compute, and ``master``, the address its
    :class:`~repro.core.master.Post` actions go to."""

    def __init__(
        self, slave_id: int, *, watermark: int = 0, prefetch: bool = False,
        master: Any = None,
    ) -> None:
        self.slave_id = slave_id
        self.watermark = watermark
        self.prefetch = prefetch
        self.master = master
        self.requested = 0
        self.delivered = 0  # jobs handed to Reduce: the next grant to deliver
        self.reduced = 0
        #: The ledger: seconds reducing, and seconds blocked on fetches.
        self.processing = 0.0
        self.retrieval = 0.0
        self.exhausted = False  # an acquisition came back ``None``
        self.finished = False  # the final hand-over was issued
        self._fetched: dict[int, Fetched] = {}  # by grant, until delivered
        self._committed: list[int] = []  # reduced since the last hand-over
        # The window's running estimates: the fetch seconds each Fetched
        # reports, and the ``now`` gap from a Reduce to its Reduced.
        self._fetch_s: float | None = None
        self._compute_s: float | None = None
        self._chunk_bytes = 0
        self._reduce_at = 0.0

    @property
    def window(self) -> int:
        """Jobs allowed in flight ahead of the one being reduced."""
        if not self.prefetch:
            return 0
        return prefetch_window(self._fetch_s, self._compute_s, self._chunk_bytes)

    def start(self, now: float = 0.0) -> list:
        """The first actions: request the first job(s)."""
        return self._advance(now)

    def step(self, event, now: float = 0.0) -> list:
        """Take one event at ``now``; returns the actions to carry out, in
        order. Requests come before a :class:`Reduce`, which may block."""
        if isinstance(event, Fetched):
            self._fetched[event.seq] = event
            self.retrieval += event.waited
            self.exhausted |= event.job is None
            return self._advance(now)
        if not isinstance(event, Reduced):
            raise RuntimeProtocolError(
                f"slave {self.slave_id} received {type(event).__name__}"
            )
        job = event.job
        self.reduced += 1
        self.processing += event.seconds
        self._compute_s = _blend(self._compute_s, now - self._reduce_at)
        self._committed.append(job.job_id)
        actions = [
            self._emit("compute_end", job_id=job.job_id),
            self._emit("job_done", job_id=job.job_id),
            Post(self.master, SlaveJobDone(self.slave_id, job)),
        ]
        if self.watermark and len(self._committed) >= self.watermark:
            # Committed: the master will not re-execute these jobs if this
            # slave later dies.
            detail = f"{len(self._committed)} jobs committed"
            actions.append(self._hand_over(partial=True))
            actions.append(self._emit("sync_partial", detail=detail))
        return actions + self._advance(now)

    def _advance(self, now: float) -> list:
        """Refill the window, then give an idle owner the next job in grant
        order, or the final hand-over."""
        actions = self._refill()
        if self.reduced < self.delivered or self.delivered not in self._fetched:
            return actions  # busy reducing, or the next grant is not in
        fetched = self._fetched.pop(self.delivered)
        job = fetched.job
        if job is None:
            self.finished = True
            return actions + [self._hand_over(partial=False)]
        self.delivered += 1
        self._fetch_s = _blend(self._fetch_s, fetched.seconds)
        self._chunk_bytes = fetched.nbytes
        self._reduce_at = now
        return actions + self._refill() + [
            self._emit("compute_start", job_id=job.job_id),
            Reduce(job),
        ]

    def _refill(self) -> list:
        """Requests up to the window ahead of the deliveries, or one when
        nothing is held; none after a ``None``."""
        requests = []
        window = self.window
        while not self.exhausted and (
            self.requested - self.delivered < window or self.requested == self.reduced
        ):
            self.requested += 1
            requests.append(Request())
        return requests

    def _hand_over(self, *, partial: bool) -> HandOver:
        committed, self._committed = tuple(self._committed), []
        return HandOver(partial, committed)

    def _emit(self, kind: str, **fields) -> Emit:
        return Emit(kind, {"worker": self.slave_id, **fields})
