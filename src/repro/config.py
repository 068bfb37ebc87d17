"""Validated configuration objects shared by the runtime and the simulator.

The configuration layer mirrors the knobs the paper exposes:

* the dataset shape (Section III-B *Data Organization*: files, chunks,
  units) — :class:`DatasetSpec`;
* the placement of data between the local cluster and cloud storage
  (Section IV-B's ``env-*`` configurations) — :class:`PlacementSpec`;
* the compute split between the two sites — :class:`ComputeSpec`;
* middleware tunables (job-group size, pool low-water mark, retrieval
  threads) — :class:`MiddlewareTuning`.

A whole run is these specs on a :class:`repro.RunConfig` beside its
dataset. :class:`ComputeSpec` and :class:`PlacementSpec` are the paper's
two-site spelling of a site list: each reads as ``(site, count)`` pairs,
the head's site first, which is what the runtime, the dataset builder and
the simulator's N-site configuration take.

All specs are frozen dataclasses validated in ``__post_init__`` so that an
invalid run fails at construction, not mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .units import GB, MB

__all__ = [
    "LOCAL_SITE",
    "CLOUD_SITE",
    "DatasetSpec",
    "PlacementSpec",
    "ComputeSpec",
    "MiddlewareTuning",
    "DEFAULT_UNITS_PER_GROUP",
]

#: Canonical site names. The paper has exactly two sites: the campus
#: cluster ("local", the head's) and AWS ("cloud" = EC2 compute + S3
#: storage), the two sites :class:`ComputeSpec` and :class:`PlacementSpec`
#: name. The runtime and the simulator take any site list.
LOCAL_SITE = "local"
CLOUD_SITE = "cloud"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of a dataset in the three-granularity organization.

    The paper's datasets are 120 GB split into 32 files and 960 jobs
    (one job per 128 MB chunk). ``record_bytes`` is the size of one *data
    unit*, the atomic element (a point for knn/kmeans, an edge for
    pagerank).
    """

    total_bytes: int
    num_files: int
    chunk_bytes: int
    record_bytes: int = 8

    def __post_init__(self) -> None:
        _require(self.total_bytes > 0, "dataset total_bytes must be positive")
        _require(self.num_files > 0, "dataset num_files must be positive")
        _require(self.chunk_bytes > 0, "dataset chunk_bytes must be positive")
        _require(self.record_bytes > 0, "dataset record_bytes must be positive")
        _require(
            self.total_bytes % self.num_files == 0,
            "total_bytes must divide evenly into num_files "
            f"({self.total_bytes} / {self.num_files})",
        )
        file_bytes = self.total_bytes // self.num_files
        _require(
            file_bytes % self.chunk_bytes == 0,
            "each file must hold a whole number of chunks "
            f"(file={file_bytes} B, chunk={self.chunk_bytes} B)",
        )
        _require(
            self.chunk_bytes % self.record_bytes == 0,
            "a chunk must hold a whole number of records "
            f"(chunk={self.chunk_bytes} B, record={self.record_bytes} B)",
        )

    @property
    def file_bytes(self) -> int:
        """Size of one data file."""
        return self.total_bytes // self.num_files

    @property
    def chunks_per_file(self) -> int:
        return self.file_bytes // self.chunk_bytes

    @property
    def num_chunks(self) -> int:
        """Total chunks == total jobs (one job per chunk)."""
        return self.num_files * self.chunks_per_file

    @property
    def units_per_chunk(self) -> int:
        return self.chunk_bytes // self.record_bytes

    @property
    def total_units(self) -> int:
        return self.num_chunks * self.units_per_chunk

    @staticmethod
    def paper(record_bytes: int = 8) -> "DatasetSpec":
        """The dataset shape used throughout the paper's evaluation:
        120 GB, 32 files, 960 jobs (128 MB chunks)."""
        return DatasetSpec(
            total_bytes=120 * GB,
            num_files=32,
            chunk_bytes=128 * MB,
            record_bytes=record_bytes,
        )

    def scaled(self, factor: float) -> "DatasetSpec":
        """Return a smaller/larger dataset with the same file/chunk counts.

        Used by tests and smoke benches to shrink the paper's 120 GB shape
        to something that simulates in milliseconds while preserving the
        job structure (same number of files and chunks).
        """
        _require(factor > 0, "scale factor must be positive")
        new_chunk = max(self.record_bytes, int(self.chunk_bytes * factor))
        # Round to a whole number of records.
        new_chunk -= new_chunk % self.record_bytes
        new_chunk = max(new_chunk, self.record_bytes)
        new_total = new_chunk * self.chunks_per_file * self.num_files
        return DatasetSpec(
            total_bytes=new_total,
            num_files=self.num_files,
            chunk_bytes=new_chunk,
            record_bytes=self.record_bytes,
        )


@dataclass(frozen=True)
class PlacementSpec:
    """How the dataset's files are split between local storage and S3.

    ``local_fraction`` is the fraction of *files* hosted on the local
    storage node; the remainder live in the cloud object store. The paper's
    env-50/50, env-33/67 and env-17/83 configurations correspond to
    fractions 0.5, 1/3 and 1/6 respectively (40 GB and 20 GB of 120 GB).
    """

    local_fraction: float

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.local_fraction <= 1.0,
            f"local_fraction must be in [0, 1], got {self.local_fraction}",
        )

    def sites(self, num_files: int) -> tuple[tuple[str, int], ...]:
        """``(site, files)`` for each site, the head's (local) first: the
        local count is rounded to the nearest whole file, the cloud holds
        the rest."""
        local = int(round(self.local_fraction * num_files))
        return ((LOCAL_SITE, local), (CLOUD_SITE, num_files - local))


@dataclass(frozen=True)
class ComputeSpec:
    """Cores allocated at each site.

    The paper halves aggregate compute for hybrid runs: e.g. knn uses
    (32, 0), (0, 32), (16, 16). kmeans uses 44/22 cloud cores because EC2
    cores are slower for compute-bound work.
    """

    local_cores: int
    cloud_cores: int

    def __post_init__(self) -> None:
        _require(self.local_cores >= 0, "local_cores must be >= 0")
        _require(self.cloud_cores >= 0, "cloud_cores must be >= 0")
        _require(
            self.local_cores + self.cloud_cores > 0,
            "at least one core must be allocated",
        )

    @property
    def total_cores(self) -> int:
        return self.local_cores + self.cloud_cores

    @property
    def sites(self) -> tuple[tuple[str, int], ...]:
        """``(site, cores)`` for each site, the head's (local) first, a
        site with no cores too."""
        return ((LOCAL_SITE, self.local_cores), (CLOUD_SITE, self.cloud_cores))

    def label(self) -> str:
        """The ``(m, n)`` label used under the paper's figures."""
        return f"({self.local_cores},{self.cloud_cores})"


#: Data units in one ``local_reduction`` call — the only place the default
#: is written. Section III-B sizes "groups of data units" to the core's
#: cache so that the processing bar is spent in the kernel and not in
#: calling it. Applied to the kernel's working set rather than to its input
#: alone, the rule reads in bytes: a kmeans group of ``n`` 16-byte points
#: is 16 n B of input (a view, never copied) plus 40 n B of temporaries
#: (the ``n x k`` float32 distance block at k=8, and ``n`` int64
#: assignments), so 32768 units are 512 KiB + 1.25 MiB — inside a 2 MiB
#: per-core L2 — and 65536 are not. The committed sweep
#: (``benchmarks/bench_compute_path.py``, docs/PERFORMANCE.md "Compute
#: path") agrees: passes get faster up to 32768 and are flat beyond it,
#: while peak RSS keeps growing.
DEFAULT_UNITS_PER_GROUP = 32768


@dataclass(frozen=True)
class MiddlewareTuning:
    """Tunable middleware parameters.

    * ``job_group_size`` — how many consecutive jobs the head hands a
      master per request (the sequential-read optimization groups jobs
      from one file);
    * ``pool_low_water`` — a master asks the head for more jobs when its
      pool drops to this size;
    * ``retrieval_threads`` — connections each slave opens for remote
      chunk retrieval (Section III-B: "multiple retrieval threads");
    * ``units_per_group`` — data units handed to one local-reduction call
      (sized so the kernel's working set fits the core's cache; see
      :data:`DEFAULT_UNITS_PER_GROUP`);
    * ``consecutive_assignment`` / ``min_contention_stealing`` — ablation
      switches for the two head-scheduler heuristics;
    * ``allow_stealing`` — switch off remote-job assignment entirely
      (clusters only ever process data stored at their own site — the
      co-location constraint of classic Map-Reduce deployments that the
      paper's middleware exists to remove).
    """

    job_group_size: int = 8
    pool_low_water: int = 2
    retrieval_threads: int = 4
    units_per_group: int = DEFAULT_UNITS_PER_GROUP
    consecutive_assignment: bool = True
    min_contention_stealing: bool = True
    allow_stealing: bool = True

    def __post_init__(self) -> None:
        _require(self.job_group_size > 0, "job_group_size must be positive")
        _require(self.pool_low_water >= 0, "pool_low_water must be >= 0")
        _require(self.retrieval_threads > 0, "retrieval_threads must be positive")
        _require(self.units_per_group > 0, "units_per_group must be positive")
