"""Jobs and job groups.

One job corresponds to one logical chunk of the dataset (Section III-B:
"Each job in job pool corresponds to a chunk in data set"). A job carries
everything a slave needs to retrieve and process the chunk: the file it
lives in, the byte range, the number of data units, and the site hosting
the file.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError

__all__ = ["Job", "JobGroup"]


@dataclass(frozen=True, order=True)
class Job:
    """An atomic unit of work: process one chunk.

    Ordering is by ``job_id`` so that "consecutive jobs" (the sequential
    read optimization) is well-defined.
    """

    job_id: int
    file_id: int
    chunk_index: int  # index of the chunk within its file
    offset: int  # byte offset of the chunk within the file
    nbytes: int  # chunk size in bytes
    num_units: int  # data units inside the chunk
    site: str  # site hosting the file, as the index placed it

    def __post_init__(self) -> None:
        if self.job_id < 0 or self.file_id < 0 or self.chunk_index < 0:
            raise SchedulingError("job ids and indices must be non-negative")
        if self.offset < 0 or self.nbytes <= 0 or self.num_units <= 0:
            raise SchedulingError("job byte range and unit count must be positive")

    def is_local_to(self, site: str) -> bool:
        """True when the chunk's file is hosted at ``site``."""
        return self.site == site


@dataclass(frozen=True)
class JobGroup:
    """A batch of jobs the head hands to one master in a single reply.

    The head prefers groups of *consecutive* jobs from a single file so
    slaves can stream them with sequential reads. ``group_id`` lets masters
    acknowledge completion so the head can maintain per-file reader counts.
    """

    group_id: int
    cluster: str
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise SchedulingError("a job group must contain at least one job")
        files = {job.file_id for job in self.jobs}
        if len(files) != 1:
            raise SchedulingError(
                f"a job group must draw from a single file, got files {sorted(files)}"
            )

    @property
    def file_id(self) -> int:
        return self.jobs[0].file_id

    @property
    def site(self) -> str:
        return self.jobs[0].site

    def __len__(self) -> int:
        return len(self.jobs)

    def is_consecutive(self) -> bool:
        """True when the group's chunk indices form a contiguous run."""
        idx = sorted(job.chunk_index for job in self.jobs)
        return all(b - a == 1 for a, b in zip(idx, idx[1:]))
