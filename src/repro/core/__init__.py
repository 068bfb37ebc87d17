"""Core of the reproduction: the Generalized Reduction API and the
head-node scheduling policy shared by the executable runtime and the
discrete-event simulator."""

from .api import GeneralizedReductionApp, run_serial
from .combiners import get_combiner, register_combiner
from .index import DataIndex, FileEntry, build_index
from .job import Job, JobGroup
from .jobpool import JobPool
from .reduction import (
    ArrayReduction,
    DictReduction,
    ReductionObject,
    ScalarReduction,
    StructReduction,
    TopKReduction,
    from_bytes,
    merge_all,
)
from .scheduler import ClusterStats, HeadScheduler
from .shmem import ShmemStats, ShmemStrategy, run_threaded

__all__ = [
    "GeneralizedReductionApp",
    "run_serial",
    "get_combiner",
    "register_combiner",
    "DataIndex",
    "FileEntry",
    "build_index",
    "Job",
    "JobGroup",
    "JobPool",
    "ArrayReduction",
    "DictReduction",
    "ReductionObject",
    "ScalarReduction",
    "StructReduction",
    "TopKReduction",
    "from_bytes",
    "merge_all",
    "ClusterStats",
    "HeadScheduler",
    "ShmemStats",
    "ShmemStrategy",
    "run_threaded",
]
