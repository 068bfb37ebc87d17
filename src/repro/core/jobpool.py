"""Master-side job pool with group-completion accounting.

Each cluster's master keeps a pool of jobs received from the head
(Section III-B). Slaves drain the pool one job at a time; when the pool
falls to its low-water mark the master asks the head for another group.
The pool also tracks which head-assigned group each job belongs to so the
master can acknowledge group completion — the signal the head uses to
maintain per-file reader counts for its contention-minimizing heuristic.

The multi-run :class:`~repro.service.JobService` generalizes this
single-run pool: :class:`FairShareQueue` holds *whole submissions* from
many tenants and picks the next one by weighted stride scheduling, so a
tenant with weight 4 dispatches four runs for every one a weight-1
tenant dispatches whenever both are backlogged — while an idle tenant's
unused share never accumulates into a burst (its stride pass is clamped
to the queue's global virtual time on re-arrival).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Iterable

from ..errors import SchedulingError
from .job import Job, JobGroup

__all__ = ["JobPool", "FairShareQueue"]


class JobPool:
    """FIFO pool of jobs plus per-group outstanding-job accounting."""

    def __init__(self, low_water: int = 2) -> None:
        if low_water < 0:
            raise SchedulingError("low_water must be >= 0")
        self.low_water = low_water
        self._queue: deque[Job] = deque()
        self._group_of: dict[int, int] = {}  # job_id -> group_id
        self._outstanding: dict[int, int] = {}  # group_id -> unfinished jobs
        self._seen_jobs: set[int] = set()
        self._inflight: set[int] = set()  # job ids taken but not done
        self.jobs_done = 0

    # -- filling -----------------------------------------------------------

    def add_group(self, group: JobGroup) -> None:
        """Add a head-assigned group to the pool.

        Rejects jobs the pool has already seen — a job must be processed
        exactly once, and double assignment is a head-scheduler bug we want
        to surface loudly.
        """
        if group.group_id in self._outstanding:
            raise SchedulingError(f"group {group.group_id} added twice")
        for job in group.jobs:
            if job.job_id in self._seen_jobs:
                raise SchedulingError(f"job {job.job_id} added to pool twice")
        for job in group.jobs:
            self._seen_jobs.add(job.job_id)
            self._group_of[job.job_id] = group.group_id
            self._queue.append(job)
        self._outstanding[group.group_id] = len(group.jobs)

    #: Group id used for re-executed jobs whose original group already
    #: completed; recovery groups are master-local and never acknowledged
    #: to the head (the head's reader accounting saw the first completion).
    RECOVERY_GROUP = -1

    def requeue(self, jobs: list[Job]) -> None:
        """Re-insert jobs lost with a failed worker (fault recovery).

        In-flight jobs (taken, never finished) keep their original group so
        the eventual completion acknowledges normally. Already-finished
        jobs re-enter under :data:`RECOVERY_GROUP`: their group completion
        was already acknowledged and must not be double-counted.
        """
        for job in jobs:
            if job.job_id not in self._seen_jobs:
                raise SchedulingError(
                    f"cannot requeue job {job.job_id}: it was never pooled"
                )
            if job.job_id not in self._group_of:
                # Finished previously; redo under the recovery group.
                self._group_of[job.job_id] = self.RECOVERY_GROUP
            self._inflight.discard(job.job_id)
            self._queue.append(job)

    # -- draining ----------------------------------------------------------

    def take(self) -> Job | None:
        """Hand out the next job, or ``None`` when the pool is empty."""
        if not self._queue:
            return None
        job = self._queue.popleft()
        self._inflight.add(job.job_id)
        return job

    def mark_done(self, job_id: int) -> int | None:
        """Record that a slave finished ``job_id``.

        Returns the group id if this completion finished its whole group
        (the master should then acknowledge that group to the head), else
        ``None``.
        """
        group_id = self._group_of.pop(job_id, None)
        if group_id is None:
            raise SchedulingError(f"job {job_id} finished but was never pooled")
        self.jobs_done += 1
        self._inflight.discard(job_id)
        if group_id == self.RECOVERY_GROUP:
            return None
        remaining = self._outstanding[group_id] - 1
        if remaining < 0:  # pragma: no cover - guarded by _group_of pop
            raise SchedulingError(f"group {group_id} over-completed")
        if remaining == 0:
            del self._outstanding[group_id]
            return group_id
        self._outstanding[group_id] = remaining
        return None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def needs_refill(self) -> bool:
        """True when the pool has drained to its low-water mark."""
        return len(self._queue) <= self.low_water

    @property
    def in_flight(self) -> int:
        """Jobs taken by slaves but not yet marked done."""
        return len(self._inflight)

    @property
    def drained(self) -> bool:
        """True when every pooled job has been processed."""
        return not self._queue and self.in_flight == 0


class FairShareQueue:
    """Weighted fair-share + priority queue of opaque items across tenants.

    Classic stride scheduling: every tenant carries a *pass* value that
    advances by ``1 / weight`` each time one of its items is dispatched,
    and :meth:`take` always serves the backlogged tenant with the lowest
    pass. Over any window in which a set of tenants stays backlogged,
    each receives dispatches proportional to its weight. Within a tenant,
    higher ``priority`` items go first; ties dispatch in submission order.

    Two refinements matter for a long-lived service:

    * **No banked credit.** A tenant that sat idle re-enters at
      ``max(own pass, global virtual time)``, so it resumes competing at
      par instead of monopolizing the queue to "catch up" on share it
      never used.
    * **Lazy discard.** :meth:`push` returns a token; :meth:`discard`
      marks it dead in O(1) and :meth:`take` prunes dead entries as it
      encounters them — cancellation never reheapifies a deep backlog.

    Items are opaque. The queue is not thread-safe; the service serializes
    access under its own lock.
    """

    def __init__(self) -> None:
        self._weights: dict[str, float] = {}
        self._pass: dict[str, float] = {}
        # tenant -> heap of (-priority, seq, item); seq breaks ties FIFO.
        self._heaps: dict[str, list[tuple[int, int, Any]]] = {}
        self._dead: set[int] = set()
        self._seq = itertools.count()
        self._gvt = 0.0  # pass of the most recent dispatch
        self.pushed: dict[str, int] = {}
        self.dispatched: dict[str, int] = {}

    # -- tenants -----------------------------------------------------------

    def register(self, tenant: str, weight: float = 1.0) -> None:
        """Declare a tenant and its fair-share weight (idempotent)."""
        if weight <= 0:
            raise SchedulingError(
                f"tenant {tenant!r} weight must be positive, got {weight}"
            )
        self._weights[tenant] = float(weight)
        self._pass.setdefault(tenant, self._gvt)
        self._heaps.setdefault(tenant, [])
        self.pushed.setdefault(tenant, 0)
        self.dispatched.setdefault(tenant, 0)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._weights)

    def weight_of(self, tenant: str) -> float:
        return self._weights[tenant]

    # -- queueing ----------------------------------------------------------

    def push(self, tenant: str, item: Any, priority: int = 0) -> int:
        """Enqueue ``item`` for ``tenant``; returns a token for discard.

        An empty-to-backlogged transition clamps the tenant's pass to the
        global virtual time so idle periods never bank credit.
        """
        if tenant not in self._weights:
            raise SchedulingError(f"tenant {tenant!r} was never registered")
        heap = self._heaps[tenant]
        if not self._live(heap):
            self._pass[tenant] = max(self._pass[tenant], self._gvt)
        token = next(self._seq)
        heapq.heappush(heap, (-priority, token, item))
        self.pushed[tenant] += 1
        return token

    def discard(self, token: int) -> None:
        """Mark a pushed entry dead; it will never dispatch. O(1)."""
        self._dead.add(token)

    def take(
        self, eligible: Callable[[str], bool] | None = None
    ) -> tuple[str, Any] | None:
        """Dispatch the next item, or ``None`` when nothing is serveable.

        ``eligible`` lets the caller veto tenants (quota exhausted, admin
        pause) without disturbing their queues or their stride state — a
        vetoed tenant's pass only advances when it actually dispatches.
        """
        best: str | None = None
        for tenant, heap in self._heaps.items():
            if not self._live(heap):
                continue
            if eligible is not None and not eligible(tenant):
                continue
            if best is None or self._pass[tenant] < self._pass[best]:
                best = tenant
        if best is None:
            return None
        _, token, item = heapq.heappop(self._heaps[best])
        self._gvt = self._pass[best]
        self._pass[best] += 1.0 / self._weights[best]
        self.dispatched[best] += 1
        return best, item

    # -- introspection -----------------------------------------------------

    def backlog(self, tenant: str) -> int:
        """Live (not-discarded) queued items for ``tenant``."""
        return sum(
            1 for entry in self._heaps.get(tenant, ()) if entry[1] not in self._dead
        )

    def __len__(self) -> int:
        return sum(self.backlog(tenant) for tenant in self._heaps)

    def _live(self, heap: list[tuple[int, int, Any]]) -> bool:
        """Prune dead entries off the top; True if a live item remains."""
        while heap and heap[0][1] in self._dead:
            self._dead.discard(heap[0][1])
            heapq.heappop(heap)
        return bool(heap)
