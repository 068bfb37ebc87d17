"""The slave worker: the thread shell around :class:`~repro.core.slave.SlaveCore`.

One crew thread per active core (see :mod:`repro.runtime.crew`) carries
the core's actions out: a ``Request``
asks the master for a job and reads its chunk (:class:`DatasetReader`
picks a local read or a multi-threaded remote fetch), a ``Reduce`` runs
the fault hook, decode and the local reduction over cache-sized unit
groups, a ``HandOver`` posts the private object as a ``SlaveReduction``.
The ``Fetched`` and ``Reduced`` events it steps carry the seconds this
thread was blocked on the fetch and spent reducing; the core sums them.
Without ``prefetch`` the thread carries each ``Request`` out itself and
starts no other; with it a :class:`~repro.cache.Prefetcher`'s stage
threads do, while this thread reduces. With a ``process_slave`` (see
:mod:`repro.runtime.procpool`) decode and reduction run in a worker
process fed through shared memory, and the objects handed over come from
``process_slave.take()``, so the master cannot tell the substrates apart.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace
from typing import Callable

from ..cache import Prefetcher
from ..clock import SYSTEM_CLOCK
from ..config import DEFAULT_UNITS_PER_GROUP
from ..core.api import GeneralizedReductionApp
from ..core.job import Job
from ..core.master import Emit, Post
from ..core.messages import SlaveFailed, SlaveJobRequest, SlaveReduction
from ..core.slave import Fetched, HandOver, Reduce, Reduced, Request, SlaveCore
from ..data.dataset import DatasetReader
from ..errors import RuntimeProtocolError, WorkerFailure
from ..obs.events import EventLog
from .crew import Shift, SlaveCrew
from .transport import Mailbox

__all__ = ["SlaveWorker", "FaultHook"]

#: Fault-injection hook, called as each job's reduction starts. Raising
#: :class:`~repro.errors.WorkerFailure` "crashes" this worker; the master
#: re-executes its uncommitted work on the survivors.
FaultHook = Callable[[int, Job], None]


class SlaveWorker:
    """Runs on one thread of ``crew``, named after it while it runs."""

    def __init__(
        self,
        slave_id: int,
        cluster: str,
        site: str,
        app: GeneralizedReductionApp,
        reader: DatasetReader,
        master_inbox: Mailbox,
        *,
        crew: SlaveCrew,
        units_per_group: int = DEFAULT_UNITS_PER_GROUP,
        fault_hook: FaultHook | None = None,
        trace: EventLog | None = None,
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
        self.core = SlaveCore(
            slave_id, watermark=sync_watermark, prefetch=prefetch,
            master=master_inbox,
        )
        #: Jobs the prefetcher's stages acquired (with ``prefetch``).
        self.prefetches = 0
        #: Time source of the core's ``now`` and of the prefetcher.
        self.clock = clock
        self._prefetcher: Prefetcher | None = None
        #: Optional :class:`~repro.runtime.procpool.ProcessSlave`: when
        #: set, this thread proxies decode + local reduction to a worker
        #: process instead of running them under the GIL.
        self.process_slave = process_slave
        self._robj = None
        self._chunks: dict[int, bytes] = {}  # fetched bytes until their Reduce
        #: Mailbox-receive timeout, threaded from the driver's
        #: ``join_timeout`` so short-deadline fault tests are not pinned
        #: to a hard-coded minute.
        self.take_timeout = take_timeout
        self.reply = Mailbox(f"slave:{cluster}:{slave_id}")
        self.crew = crew
        self._shift: Shift | None = None
        self._failure: BaseException | None = None

    def start(self) -> None:
        self.start_all([self])

    @staticmethod
    def start_all(workers: list["SlaveWorker"]) -> None:
        """Start ``workers`` together on their (one) crew: see
        :meth:`~repro.runtime.crew.SlaveCrew.start_all`."""
        if not workers:
            return
        shifts = workers[0].crew.start_all(
            [(w._run, f"slave:{w.cluster}:{w.slave_id}") for w in workers]
        )
        for worker, shift in zip(workers, shifts):
            worker._shift = shift

    @property
    def started(self) -> bool:
        return self._shift is not None

    def join(self, timeout: float | None = None) -> None:
        if self._shift is None:
            raise RuntimeProtocolError(f"slave {self.slave_id} was never started")
        if not self._shift.join(timeout):
            raise RuntimeProtocolError(
                f"slave {self.slave_id} ({self.cluster}) did not finish"
            )
        if self._failure is not None:
            raise self._failure

    def is_alive(self) -> bool:
        return self._shift is not None and self._shift.is_alive()

    # -- worker loop --------------------------------------------------------

    def _run(self) -> None:
        try:
            self._work()
        except WorkerFailure:
            # An injected crash: the worker dies, the middleware recovers.
            self.master_inbox.post(SlaveFailed(slave_id=self.slave_id))
        except BaseException as exc:
            # A genuine bug: recover the run (re-execute this worker's jobs
            # elsewhere so the result stays correct) but surface the error
            # when the driver joins this slave.
            self._failure = exc
            self.master_inbox.post(SlaveFailed(slave_id=self.slave_id))
        finally:
            # Only now: a stage blocked on the master's reply can be
            # joined once the master knows this slave is dead (it answers
            # a dead slave's parked request ``None``) or the run is over.
            prefetcher, self._prefetcher = self._prefetcher, None
            if prefetcher is not None:
                self.prefetches = prefetcher.prefetches
                prefetcher.close()
            self._chunks.clear()

    def _work(self) -> None:
        """Carry the core's actions out in order until its final hand-over;
        wait on the prefetcher only when none are left."""
        self._robj = self.app.create_reduction_object()
        core, clock = self.core, self.clock
        if core.prefetch:
            self._prefetcher = Prefetcher(
                self._acquire, self._fetch,
                cluster=self.cluster, worker=self.slave_id,
                trace=self.trace, clock=clock,
            )
        todo = deque(core.start(clock.monotonic()))
        while todo or not core.finished:
            if todo:
                event = self._carry_out(todo.popleft())
            else:
                # Retrieval is only the *blocked* wait: bytes fetched while
                # we were computing cost nothing here.
                started = time.perf_counter()
                event, raw = self._prefetcher.take(timeout=self.take_timeout)
                event = replace(event, waited=time.perf_counter() - started)
                if raw is not None:
                    self._chunks[event.job.job_id] = raw
            if event is not None:
                todo.extendleft(reversed(core.step(event, clock.monotonic())))

    def _carry_out(self, action) -> Fetched | Reduced | None:
        if isinstance(action, Emit):
            if self.trace is not None:
                self.trace.emit(action.kind, cluster=self.cluster, **action.fields)
        elif isinstance(action, Reduce):
            return self._reduce(action.job)
        elif isinstance(action, Request):
            if self._prefetcher is None:
                return self._request()
            self._prefetcher.request()
        elif isinstance(action, Post):
            action.to.post(action.message)
        else:
            self._hand_over(action)
        return None

    def _acquire(self) -> Job | None:
        """Ask the master for the next job (blocking)."""
        self.master_inbox.post(
            SlaveJobRequest(slave_id=self.slave_id, reply_to=self.reply)
        )
        return self.reply.take(timeout=self.take_timeout).job

    def _fetch(self, job: Job) -> bytes:
        """Pull the chunk's bytes (cache first)."""
        self._mark("fetch_start", job)
        raw = self.reader.read_job(job, from_site=self.site)
        self._mark("fetch_end", job)
        return raw

    def _mark(self, kind: str, job: Job) -> None:
        if self.trace is not None:
            self.trace.emit(
                kind, cluster=self.cluster, worker=self.slave_id,
                job_id=job.job_id, file_id=job.file_id,
            )

    def _request(self) -> Fetched:
        """A ``Request`` on this thread: acquire, then fetch. The one
        request in flight is the core's latest."""
        seq = self.core.requested - 1
        job = self._acquire()
        if job is None:
            return Fetched(seq, None)
        started = time.perf_counter()
        raw = self._chunks[job.job_id] = self._fetch(job)
        seconds = time.perf_counter() - started
        return Fetched(seq, job, seconds, memoryview(raw).nbytes, waited=seconds)

    def _reduce(self, job: Job) -> Reduced:
        """Fault hook, then decode + local reduction, timed."""
        if self.fault_hook is not None:
            self.fault_hook(self.slave_id, job)
        raw = self._chunks.pop(job.job_id)
        started = time.perf_counter()
        if self.process_slave is not None:
            # Stage the bytes into shared memory and block until the
            # worker process has decoded + reduced them.
            self.process_slave.reduce(raw)
        else:
            units = self.app.decode_chunk(raw)
            for group in self.app.unit_groups(units, self.units_per_group):
                self.app.local_reduction(self._robj, group)
        return Reduced(job, time.perf_counter() - started)

    def _hand_over(self, action: HandOver) -> None:
        """Post the object reduced since the last hand-over; after a
        partial, start a fresh one."""
        if self.process_slave is not None:
            self._robj = self.process_slave.take()
        self.master_inbox.post(
            SlaveReduction(
                slave_id=self.slave_id, robj=self._robj,
                partial=action.partial, job_ids=action.job_ids,
            )
        )
        if action.partial:
            self._robj = self.app.create_reduction_object()
