"""The slave worker.

One thread per active core: request a job, retrieve the chunk (sequential
local read or multi-threaded remote fetch — :class:`DatasetReader` picks),
decode into data units, run the local reduction over cache-sized unit
groups, report completion; when the master answers ``None`` the slave hands
over its private reduction object and exits. This is the executable
counterpart of :class:`repro.sim.simnodes.SimSlave`.

With ``prefetch=True`` job acquisition and chunk fetch move to the stage
threads of a :class:`~repro.cache.Prefetcher`: while this thread runs the
reduction over job *N*, up to *W* later jobs are already acquired from
the master and on the wire, *W* sized by the prefetcher from the fetch
and compute times it observes (1 when fetches are no slower than
compute). Jobs reach this thread in the order the master handed them
out. The default path constructs none of that machinery.

With a ``process_slave`` (see :mod:`repro.runtime.procpool`) this thread
becomes a proxy: it still owns the whole master conversation and the
chunk fetch, but decode + local reduction run in a dedicated worker
process fed through shared memory — the GIL-free substrate. The partials
it posts (watermark flushes and the final hand-over) come from
``process_slave.take()``, so the master cannot tell the substrates
apart.
"""

from __future__ import annotations

import threading

from typing import Callable

from ..cache import Prefetcher
from ..clock import SYSTEM_CLOCK
from ..config import DEFAULT_UNITS_PER_GROUP
from ..core.api import GeneralizedReductionApp
from ..core.job import Job
from ..core.messages import SlaveFailed, SlaveJobDone, SlaveJobRequest, SlaveReduction
from ..data.dataset import DatasetReader
from ..errors import RuntimeProtocolError, WorkerFailure
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from .telemetry import SlaveTelemetry
from .transport import Mailbox

__all__ = ["SlaveWorker", "FaultHook"]

#: Fault-injection hook, called before each job is processed. Raising
#: :class:`~repro.errors.WorkerFailure` "crashes" this worker; the master
#: re-executes its work on the survivors.
FaultHook = Callable[[int, Job], None]


class SlaveWorker:
    """Runs as one thread."""

    def __init__(
        self,
        slave_id: int,
        cluster: str,
        site: str,
        app: GeneralizedReductionApp,
        reader: DatasetReader,
        master_inbox: Mailbox,
        *,
        units_per_group: int = DEFAULT_UNITS_PER_GROUP,
        fault_hook: FaultHook | None = None,
        trace: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
        take_timeout: float = 60.0,
        prefetch: bool = False,
        sync_watermark: int = 0,
        process_slave=None,
        clock=SYSTEM_CLOCK,
    ) -> None:
        self.slave_id = slave_id
        self.cluster = cluster
        self.site = site
        self.app = app
        self.reader = reader
        self.master_inbox = master_inbox
        self.units_per_group = units_per_group
        self.fault_hook = fault_hook
        self.trace = trace
        #: Acquire and fetch the next jobs behind compute.
        self.prefetch = prefetch
        self.prefetches = 0
        #: Time source of the prefetch window's estimates and waits.
        self.clock = clock
        self._prefetcher: Prefetcher | None = None
        #: Streaming partial merges: after this many completed jobs the
        #: slave flushes its reduction object to the master and starts a
        #: fresh one, so global reduction overlaps the compute tail.
        #: ``0`` (the default) keeps the original hand-over-at-exit path.
        self.sync_watermark = sync_watermark
        #: Optional :class:`~repro.runtime.procpool.ProcessSlave`: when
        #: set, this thread proxies decode + local reduction to a worker
        #: process instead of running them under the GIL.
        self.process_slave = process_slave
        self._robj = None
        self._flushed_jobs: list[int] = []
        self._metrics = metrics
        #: Mailbox-receive timeout, threaded from the driver's
        #: ``join_timeout`` so short-deadline fault tests are not pinned
        #: to a hard-coded minute.
        self.take_timeout = take_timeout
        # Instruments are registry-wide: every slave shares one histogram,
        # fetched once here so the job loop stays allocation-free.
        self._fetch_hist = metrics.histogram("fetch_seconds") if metrics else None
        self._compute_hist = (
            metrics.histogram("compute_seconds") if metrics else None
        )
        self._jobs_counter = metrics.counter("jobs_done") if metrics else None
        self.reply = Mailbox(f"slave:{cluster}:{slave_id}")
        self.telemetry = SlaveTelemetry(slave_id=slave_id, cluster=cluster)
        self.crashed = False
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    def start(self) -> None:
        self.reader.retain()
        self._thread = threading.Thread(
            target=self._run, name=f"slave:{self.cluster}:{self.slave_id}", daemon=True
        )
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is None:
            raise RuntimeProtocolError(f"slave {self.slave_id} was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeProtocolError(f"slave {self.slave_id} did not finish")
        if self._failure is not None:
            raise self._failure

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- worker loop --------------------------------------------------------

    def _run(self) -> None:
        try:
            self._work()
        except WorkerFailure:
            # An injected crash: the worker dies, the middleware recovers.
            self.crashed = True
            self.master_inbox.post(SlaveFailed(slave_id=self.slave_id))
        except BaseException as exc:
            # A genuine bug: recover the run (re-execute this worker's jobs
            # elsewhere so the result stays correct) but surface the error
            # when the driver joins this slave.
            self._failure = exc
            self.crashed = True
            self.master_inbox.post(SlaveFailed(slave_id=self.slave_id))
        finally:
            # Only now: a stage blocked on the master's reply can be
            # joined once the master knows this slave is dead (it answers
            # a dead slave's parked request ``None``) or the run is over.
            prefetcher, self._prefetcher = self._prefetcher, None
            if prefetcher is not None:
                self.prefetches = prefetcher.prefetches
                prefetcher.close()
            self.reader.release()

    def _work(self) -> None:
        self._robj = self.app.create_reduction_object()
        self._flushed_jobs.clear()
        if self.prefetch:
            self._work_pipelined()
        else:
            self._work_sequential()
        if self.process_slave is not None:
            # Pull the worker process's accumulated partial so the final
            # hand-over below is identical to a threaded slave's.
            self._robj = self.process_slave.take()
        self.master_inbox.post(
            SlaveReduction(
                slave_id=self.slave_id,
                robj=self._robj,
                partial=False,
                job_ids=tuple(self._flushed_jobs),
            )
        )

    def _maybe_flush(self) -> None:
        """Streaming mode: hand the accumulated partial to the master at
        the watermark and start fresh. The listed jobs are committed —
        the master will not re-execute them if this slave later dies."""
        if not self.sync_watermark:
            return
        if len(self._flushed_jobs) < self.sync_watermark:
            return
        if self.process_slave is not None:
            self._robj = self.process_slave.take()
        self.master_inbox.post(
            SlaveReduction(
                slave_id=self.slave_id,
                robj=self._robj,
                partial=True,
                job_ids=tuple(self._flushed_jobs),
            )
        )
        if self.trace is not None:
            self.trace.emit(
                "sync_partial", cluster=self.cluster, worker=self.slave_id,
                detail=f"{len(self._flushed_jobs)} jobs committed",
            )
        self._robj = self.app.create_reduction_object()
        self._flushed_jobs = []

    def _work_sequential(self) -> None:
        telemetry = self.telemetry
        trace = self.trace
        while True:
            self.master_inbox.post(
                SlaveJobRequest(slave_id=self.slave_id, reply_to=self.reply)
            )
            reply = self.reply.take(timeout=self.take_timeout)
            job = reply.job
            if job is None:
                break
            if self.fault_hook is not None:
                self.fault_hook(self.slave_id, job)
            if trace is not None:
                trace.emit(
                    "fetch_start", cluster=self.cluster, worker=self.slave_id,
                    job_id=job.job_id, file_id=job.file_id,
                )
            before_fetch = telemetry.retrieval.total
            with telemetry.retrieval:
                raw = self.reader.read_job(job, from_site=self.site)
            if trace is not None:
                trace.emit(
                    "fetch_end", cluster=self.cluster, worker=self.slave_id,
                    job_id=job.job_id, file_id=job.file_id,
                )
            if self._fetch_hist is not None:
                self._fetch_hist.observe(telemetry.retrieval.total - before_fetch)
            self._process(job, raw)

    def _work_pipelined(self) -> None:
        """The prefetcher acquires and fetches the next jobs while this
        thread reduces the current one.

        A stage asks for a job before this thread has reported the ones it
        holds done, so near the end of a run its request parks on the
        master's empty pool until the in-flight count drains — and our
        own ``SlaveJobDone`` messages are what drain it, so the pipeline
        always terminates (the parked request is answered ``None``).
        """
        telemetry = self.telemetry
        prefetcher = self._prefetcher = Prefetcher(
            self._acquire, self._fetch_for_prefetch,
            cluster=self.cluster, worker=self.slave_id,
            trace=self.trace, metrics=self._metrics, clock=self.clock,
        )
        while True:
            before_fetch = telemetry.retrieval.total
            # The stopwatch sees only the *blocked* wait: bytes fetched
            # while we were computing cost nothing here.
            with telemetry.retrieval:
                job, raw = prefetcher.take(timeout=self.take_timeout)
            if job is None:
                break
            if self.fault_hook is not None:
                self.fault_hook(self.slave_id, job)
            if self._fetch_hist is not None:
                self._fetch_hist.observe(
                    telemetry.retrieval.total - before_fetch
                )
            self._process(job, raw)

    def _acquire(self) -> Job | None:
        """Prefetcher stage: ask the master for the next job (blocking)."""
        self.master_inbox.post(
            SlaveJobRequest(slave_id=self.slave_id, reply_to=self.reply)
        )
        return self.reply.take(timeout=self.take_timeout).job

    def _fetch_for_prefetch(self, job: Job) -> bytes:
        """Prefetcher stage: pull the chunk's bytes (cache first)."""
        return self.reader.read_job(job, from_site=self.site)

    def _process(self, job: Job, raw: bytes) -> None:
        """Decode + local reduction + completion accounting for one job."""
        robj = self._robj
        telemetry = self.telemetry
        trace = self.trace
        if trace is not None:
            trace.emit(
                "compute_start", cluster=self.cluster, worker=self.slave_id,
                job_id=job.job_id,
            )
        before_compute = telemetry.processing.total
        with telemetry.processing:
            if self.process_slave is not None:
                # Stage the bytes into shared memory and block until the
                # worker process has decoded + reduced them.
                self.process_slave.reduce(raw)
            else:
                units = self.app.decode_chunk(raw)
                for group in self.app.unit_groups(units, self.units_per_group):
                    self.app.local_reduction(robj, group)
        if trace is not None:
            trace.emit(
                "compute_end", cluster=self.cluster, worker=self.slave_id,
                job_id=job.job_id,
            )
            trace.emit(
                "job_done", cluster=self.cluster, worker=self.slave_id,
                job_id=job.job_id,
            )
        if self._compute_hist is not None:
            self._compute_hist.observe(
                telemetry.processing.total - before_compute
            )
        if self._jobs_counter is not None:
            self._jobs_counter.inc()
        telemetry.jobs += 1
        self.master_inbox.post(SlaveJobDone(slave_id=self.slave_id, job=job))
        self._flushed_jobs.append(job.job_id)
        self._maybe_flush()
