"""Message types of the middleware protocol.

The three node tiers communicate exclusively through these messages
(Section III-B): masters request job groups from the head and acknowledge
their completion; slaves request jobs from their master and report results;
masters upload their cluster's combined reduction object to the head.

The executable runtime moves these over mailboxes; the simulator steps
the same messages through the shared head and master cores
(:class:`~repro.core.head.HeadCore`, :class:`~repro.core.master.MasterCore`)
and charges latencies for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .job import Job, JobGroup
from .reduction import ReductionObject

__all__ = [
    "JobRequest",
    "JobReply",
    "GroupComplete",
    "ReductionUpload",
    "SlaveJobRequest",
    "SlaveJobReply",
    "SlaveJobDone",
    "SlaveFailed",
    "SlaveReduction",
    "SlaveAttach",
    "SlaveDetach",
]


# -- master -> head ---------------------------------------------------------


@dataclass(frozen=True)
class JobRequest:
    """A master asks the head for another group of jobs; the
    :class:`JobReply` goes to ``reply_to``, the master's own inbox."""

    cluster: str
    reply_to: Any
    max_jobs: int | None = None


@dataclass(frozen=True)
class JobReply:
    """Head's answer: a job group, or ``None`` when the pool is exhausted."""

    group: JobGroup | None


@dataclass(frozen=True)
class GroupComplete:
    """A master reports that every job of a group has been processed."""

    cluster: str
    group_id: int


@dataclass(frozen=True)
class ReductionUpload:
    """A master ships its cluster's combined reduction object.

    The upload goes to the head or, under ``tree``, to a *parent master*,
    and carries the merged contribution of ``origins``: this cluster plus
    every descendant already folded in. A hop that crosses a site
    boundary carries ``blob`` as wire bytes, encoded by the run's
    :class:`~repro.core.sync.SyncCodec` (:mod:`repro.core.wire`); the
    head-site master's hop to the head stays on the head's own site, so
    it carries the combined object itself and nobody encodes or decodes.
    """

    cluster: str
    blob: bytes | ReductionObject
    origins: tuple[str, ...]


# -- slave <-> master ------------------------------------------------------------


@dataclass(frozen=True)
class SlaveJobRequest:
    """A slave asks its master for the next job."""

    slave_id: int
    reply_to: Any


@dataclass(frozen=True)
class SlaveJobReply:
    """Master's answer: a job, or ``None`` when the run is over."""

    job: Job | None


@dataclass(frozen=True)
class SlaveJobDone:
    """A slave reports one processed job."""

    slave_id: int
    job: Job


@dataclass(frozen=True)
class SlaveFailed:
    """A slave worker died. Its reduction object is lost, so every job it
    was handed and did not commit in a partial — its in-flight job too —
    must be re-executed; the master keeps that list.

    A spot revocation sends no message: the master core decides it when it
    would hand the slave a job, answers ``None`` and re-executes the same
    list (:class:`~repro.core.master.MasterCore`).
    """

    slave_id: int


# -- driver -> master (elastic scaling) --------------------------------------


@dataclass(frozen=True)
class SlaveAttach:
    """The autoscaler hands the master freshly built slave workers.

    The master starts them inside its protocol loop and raises its
    expected-reduction count atomically with respect to that loop, so a
    scale-up can never race the end-of-run accounting. An attach that
    arrives after the loop exited is simply never started (the driver
    joins only started slaves).
    """

    workers: tuple  # of repro.runtime.slave.SlaveWorker


@dataclass(frozen=True)
class SlaveDetach:
    """The autoscaler asks the master to retire ``count`` slaves.

    Retirement is cooperative: the master answers the next ``count`` job
    requests with ``None``, so each victim exits its loop cleanly and
    hands over its final reduction object — nothing is lost and nothing
    re-executes. The master never retires its last active slave (jobs
    still pooled or in flight would strand forever).
    """

    count: int


@dataclass(frozen=True)
class SlaveReduction:
    """A slave hands its reduction object to the master (same process, so
    the live object is passed; cross-cluster transfers serialize).

    Streaming mode flushes *partial* objects mid-run: ``partial=True``
    marks a watermark flush, and ``job_ids`` lists the jobs whose
    contribution the object carries. The master commits those jobs —
    they are never re-executed even if this slave later dies — and
    merges the partial immediately, overlapping global reduction with
    the tail of compute. The final hand-off has ``partial=False``.
    """

    slave_id: int
    robj: Any
    partial: bool = False
    job_ids: tuple[int, ...] = ()

