"""Head-node scheduling policy — shared by the runtime and the simulator.

This module is the heart of the reproduction: the job-assignment logic of
Section III-B, implemented once and driven both by the executable runtime
(:mod:`repro.runtime.head`) and by the discrete-event simulator
(:mod:`repro.sim.simnodes`), so the policy we evaluate is the policy that
runs.

Policy, verbatim from the paper:

* masters request groups of jobs on demand (pooling-based load balancing);
* "if there are locally available jobs in the cluster, the head node
  assigns a group of consecutive jobs to the requesting cluster" — the
  sequential-read optimization;
* "Once all local jobs belonging to a cluster are processed, the jobs that
  are still available from remote clusters are assigned. The remote jobs
  are chosen from files which the minimum number of nodes are currently
  processing" — work stealing with a contention-minimizing heuristic.

Both heuristics can be switched off via
:class:`~repro.config.MiddlewareTuning` for the ablation benches.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from ..config import MiddlewareTuning
from ..errors import SchedulingError
from .job import Job, JobGroup

__all__ = ["ClusterStats", "HeadScheduler"]


@dataclass
class ClusterStats:
    """Per-cluster assignment accounting (feeds Table I)."""

    site: str
    jobs_assigned: int = 0
    jobs_stolen: int = 0  # assigned jobs whose data lives at another site
    groups_assigned: int = 0
    groups_completed: int = 0
    files_touched: set[int] = field(default_factory=set)


class HeadScheduler:
    """Assigns job groups to requesting clusters.

    The scheduler is deterministic given its construction arguments: ties
    are broken by file id and the only randomness (the ablation's random
    stealing) draws from a seeded generator.
    """

    def __init__(
        self,
        jobs: list[Job],
        tuning: MiddlewareTuning | None = None,
        *,
        seed: int = 2011,
        trace=None,
    ) -> None:
        self.tuning = tuning or MiddlewareTuning()
        #: Optional trace sink with an ``emit(kind, **fields)`` method so
        #: steal decisions land on the timeline: the executable runtime
        #: passes its :class:`repro.obs.events.EventLog` directly, the
        #: simulator an adapter that re-stamps each event at ``env.now``
        #: (wall-clock stamps would be meaningless in simulated time).
        self.trace = trace
        self._rng = random.Random(seed)
        # Pending jobs per file, ordered by chunk index so consecutive
        # assignment is a prefix pop.
        self._pending: dict[int, deque[Job]] = {}
        self._file_site: dict[int, str] = {}
        for job in sorted(jobs, key=lambda j: (j.file_id, j.chunk_index)):
            self._pending.setdefault(job.file_id, deque()).append(job)
            prev = self._file_site.setdefault(job.file_id, job.site)
            if prev != job.site:
                raise SchedulingError(
                    f"file {job.file_id} appears at two sites ({prev}, {job.site})"
                )
        self._total_jobs = len(jobs)
        self._assigned_jobs = 0
        # file_id -> number of outstanding (assigned, unacknowledged) groups:
        # the "number of nodes currently processing" in the paper's heuristic.
        self._readers: dict[int, int] = {fid: 0 for fid in self._pending}
        self._group_site: dict[int, int] = {}  # group_id -> file_id
        self._group_owner: dict[int, str] = {}  # group_id -> cluster
        self._next_group_id = 0
        self.clusters: dict[str, ClusterStats] = {}
        # Remember each cluster's current file so consecutive requests keep
        # streaming the same file.
        self._current_file: dict[str, int | None] = {}

    # -- registration --------------------------------------------------------

    def register_cluster(self, name: str, site: str) -> None:
        if name in self.clusters:
            raise SchedulingError(f"cluster {name!r} registered twice")
        self.clusters[name] = ClusterStats(site=site)
        self._current_file[name] = None

    # -- introspection ---------------------------------------------------------

    @property
    def jobs_remaining(self) -> int:
        return self._total_jobs - self._assigned_jobs

    @property
    def exhausted(self) -> bool:
        return self.jobs_remaining == 0

    def readers_of(self, file_id: int) -> int:
        return self._readers.get(file_id, 0)

    # -- the policy ------------------------------------------------------------

    def request_jobs(self, cluster: str, max_jobs: int | None = None) -> JobGroup | None:
        """Serve a master's job request; ``None`` when no jobs remain.

        ``max_jobs`` defaults to the tuning's ``job_group_size``. A returned
        group always draws from a single file; it is a consecutive chunk run
        when the sequential-assignment optimization is on.
        """
        stats = self._stats(cluster)
        if max_jobs is None:
            max_jobs = self.tuning.job_group_size
        if max_jobs <= 0:
            raise SchedulingError("max_jobs must be positive")
        if self.exhausted or not any(self._pending.values()):
            return None

        file_id, stolen = self._choose_file(cluster, stats.site)
        if file_id is None:
            return None
        jobs = self._pop_jobs(file_id, max_jobs)
        group = JobGroup(
            group_id=self._next_group_id, cluster=cluster, jobs=tuple(jobs)
        )
        self._next_group_id += 1
        self._readers[file_id] += 1
        self._group_site[group.group_id] = file_id
        self._group_owner[group.group_id] = cluster
        self._current_file[cluster] = file_id if self._pending.get(file_id) else None

        stats.jobs_assigned += len(jobs)
        stats.groups_assigned += 1
        stats.files_touched.add(file_id)
        if stolen:
            stats.jobs_stolen += len(jobs)
            if self.trace is not None:
                self.trace.emit(
                    "steal", cluster=cluster, file_id=file_id,
                    detail=f"group {group.group_id} x{len(jobs)} "
                    f"({self._readers[file_id] - 1} other readers)",
                )
        self._assigned_jobs += len(jobs)
        return group

    def complete_group(self, group_id: int) -> None:
        """Acknowledge a finished group; decrements its file's reader count."""
        file_id = self._group_site.pop(group_id, None)
        if file_id is None:
            raise SchedulingError(f"unknown or already-completed group {group_id}")
        self._readers[file_id] -= 1
        if self._readers[file_id] < 0:  # pragma: no cover - pop guard above
            raise SchedulingError(f"negative reader count on file {file_id}")
        owner = self._group_owner.pop(group_id)
        self.clusters[owner].groups_completed += 1

    # -- internals ---------------------------------------------------------------

    def _stats(self, cluster: str) -> ClusterStats:
        try:
            return self.clusters[cluster]
        except KeyError:
            raise SchedulingError(f"cluster {cluster!r} not registered") from None

    def _files_with_pending(self, site: str | None = None, invert: bool = False):
        out = []
        for fid, queue in self._pending.items():
            if not queue:
                continue
            is_at_site = site is not None and self._file_site[fid] == site
            if site is None or (is_at_site != invert):
                out.append(fid)
        return out

    def _choose_file(self, cluster: str, site: str) -> tuple[int | None, bool]:
        """Pick the file to draw from; returns ``(file_id, stolen)``."""
        local_files = self._files_with_pending(site)
        if local_files:
            # Keep streaming the file this cluster is already reading if it
            # still has pending local jobs; otherwise start the lowest-id
            # local file (deterministic, keeps reads sequential per file).
            current = self._current_file.get(cluster)
            if current in local_files:
                return current, False
            return min(local_files), False

        if not self.tuning.allow_stealing:
            return None, False
        remote_files = self._files_with_pending(site, invert=True)
        if not remote_files:
            return None, False
        if self.tuning.min_contention_stealing:
            # "files which the minimum number of nodes are currently
            # processing" — break ties by file id for determinism.
            chosen = min(remote_files, key=lambda fid: (self._readers[fid], fid))
        else:
            chosen = self._rng.choice(sorted(remote_files))
        return chosen, True

    def _pop_jobs(self, file_id: int, max_jobs: int) -> list[Job]:
        queue = self._pending[file_id]
        count = min(max_jobs, len(queue))
        if self.tuning.consecutive_assignment:
            return [queue.popleft() for _ in range(count)]
        # Ablation: draw from alternating ends, producing non-contiguous
        # chunk runs (defeats the sequential-read optimization) while
        # remaining deterministic.
        jobs: list[Job] = []
        for i in range(count):
            jobs.append(queue.popleft() if i % 2 == 0 else queue.pop())
        return jobs
