"""End-to-end executable runtime.

:class:`CloudBurstingRuntime` assembles head + masters + slaves over real
data in the storage layer, runs an application to completion, and returns
the final result with telemetry. Only the slaves are threads, and they
come from a standing :class:`~repro.runtime.crew.SlaveCrew` (started once,
re-armed per pass): the head and the masters are stepped by the threads
that message them. The simulator
(:class:`repro.sim.multisite.MultiSiteSimulation`) steps the same head
and master cores (:mod:`repro.core.head`, :mod:`repro.core.master`) with
modeled costs, global reduction included; only its slaves are models of
their own. Both engines lay a pass out with one
:func:`~repro.core.layout.lay_out`, burst its burst cluster through one
:class:`~repro.scale.burst.FleetManager` (here a bought slave attaches at
once), bind one :func:`~repro.obs.live.run_probe` and fill the record's
clusters and master counters with one
:func:`~repro.obs.record.pass_record`.
"""

from __future__ import annotations

import time
import weakref
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..cache import ChunkCache
from ..config import ComputeSpec, MiddlewareTuning
from ..core.api import GeneralizedReductionApp
from ..core.head import HeadCore
from ..core.index import DataIndex
from ..core.layout import lay_out
from ..core.messages import JobReply
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec, SyncSpec
from ..data.dataset import DatasetReader
from ..errors import ConfigurationError, RuntimeTimeoutError
from ..obs.events import EventLog
from ..obs.live import RunMonitor, run_probe
from ..obs.record import RunTelemetry, pass_record
from ..obs.spans import span_summary
from ..options import ScaleOptions
from ..resilience.retry import RetryPolicy
from ..scale.burst import FleetManager
from ..storage.base import StorageService
from .corebudget import slave_cores
from .crew import SlaveCrew, current as current_crew
from .head import HeadNode
from .master import MasterNode
from .procpool import ProcessSlavePool
from .slave import SlaveWorker
from .telemetry import read_ledger

__all__ = ["RuntimeResult", "CloudBurstingRuntime", "SLAVE_MODES"]

#: The slave substrates the runtime can execute on.
SLAVE_MODES = ("thread", "process")


@dataclass
class RuntimeResult:
    """Application result plus run accounting."""

    value: Any
    telemetry: RunTelemetry
    global_reduction_seconds: float


class CloudBurstingRuntime:
    """Executable middleware over in-process clusters.

    ``compute`` is the site list: ``(site, cores)`` pairs, the head's site
    first (a :class:`~repro.config.ComputeSpec` reads as its two, or a
    :class:`~repro.sim.multisite.MultiSiteConfig` gives its own as
    ``config.compute``). Each site with cores runs one cluster; ``stores``
    holds a store for each site the index places files at.

    The constructor owns what outlives a pass — stores, cache, the sync
    codec and its delta baselines, the monitor — and so do two things
    built on the first pass and re-armed on every later one: the slave
    crew (:mod:`repro.runtime.crew`; borrowed instead when a service has
    installed one) and, in process mode, the worker pool. What ``run()``
    builds (head, masters, slaves, reader) dies with the pass.
    :meth:`close` (or leaving a ``with`` block, or a pass that raises)
    reaps what the runtime owns; a runtime dropped unclosed reaps it
    through finalizers.
    """

    def __init__(
        self,
        app: GeneralizedReductionApp,
        index: DataIndex,
        stores: Mapping[str, StorageService],
        compute: ComputeSpec | Iterable[tuple[str, int]],
        *,
        tuning: MiddlewareTuning | None = None,
        seed: int = 2011,
        fault_hook=None,
        trace: EventLog | None = None,
        join_timeout: float = 600.0,
        retry_policy: RetryPolicy | None = None,
        cache: ChunkCache | None = None,
        prefetch: bool = False,
        sync: SyncSpec | None = None,
        monitor: RunMonitor | None = None,
        scale: ScaleOptions | None = None,
        slave_mode: str = "thread",
    ) -> None:
        #: ``(site, cores)`` per site, the head's site first.
        self.sites = (
            compute.sites if isinstance(compute, ComputeSpec) else tuple(compute)
        )
        self._total_cores = sum(cores for _, cores in self.sites)
        if self._total_cores <= 0:
            raise ConfigurationError("need at least one core")
        if join_timeout <= 0:
            raise ConfigurationError("join_timeout must be positive")
        if slave_mode not in SLAVE_MODES:
            raise ConfigurationError(
                f"unknown slave_mode {slave_mode!r}; expected one of {SLAVE_MODES}"
            )
        self.app = app
        self.index = index
        self.stores = stores
        self.tuning = tuning or MiddlewareTuning()
        self.seed = seed
        self.fault_hook = fault_hook
        #: Optional observability hook: a shared event log every node
        #: emits into. Off (``None``) by default; costs nothing disabled.
        self.trace = trace
        self.join_timeout = join_timeout
        #: Optional :class:`~repro.resilience.RetryPolicy` applied to every
        #: chunk read (retry/backoff, hedging, circuit-breaker degradation).
        self.retry_policy = retry_policy
        #: Optional node-wide :class:`~repro.cache.ChunkCache` consulted by
        #: the shared reader before any remote fetch. Owned by the caller
        #: so it persists across iterative passes (``run()`` builds a
        #: fresh reader each pass, but the cache survives).
        self.cache = cache
        #: Overlap each slave's next fetches with its current reduction: the
        #: slave core's prefetch window, carried out by a
        #: :class:`~repro.cache.Prefetcher`. Off by default: each slave is
        #: strictly sequential.
        self.prefetch = prefetch
        #: Global-reduction sync plan (:class:`~repro.core.sync.SyncSpec`);
        #: ``None`` is the default spec, the paper's star/dense/barrier
        #: layout. Every upload that crosses a site boundary goes through
        #: the codec (the head-site master hands its object to the head
        #: unencoded), which is owned here so its delta baselines persist
        #: across iterative passes — that persistence is what makes pass-N
        #: delta uploads tiny.
        self.sync = sync or SyncSpec()
        self._sync_codec = SyncCodec(self.sync)
        #: Optional live run-health sampler (:class:`~repro.obs.live.
        #: RunMonitor`). ``run()`` binds it to a probe over this run's
        #: masters/scheduler/cache/codec and starts/stops it around the
        #: execution. Off (``None``) by default: the disabled path is a
        #: single ``None`` check.
        self.monitor = monitor
        #: Optional :class:`~repro.options.ScaleOptions`: elastic cloud
        #: bursting. ``autoscale=True`` drives a pure
        #: :class:`~repro.scale.Autoscaler` off the monitor's sample
        #: stream (an internal monitor is built when none was given) and
        #: attaches/detaches the burst site's slaves mid-run;
        #: ``revocation`` hands that site's master core a seeded spot die.
        #: ``None`` (or all-defaults) builds none of this machinery.
        self.scale = scale if scale is not None and scale.enabled else None
        #: ``"thread"`` (the original in-process slaves) or ``"process"``
        #: (a :class:`~repro.runtime.procpool.ProcessSlavePool`: decode +
        #: local reduction in worker processes fed over shared memory —
        #: GIL-free compute). The control plane is identical either way.
        self.slave_mode = slave_mode
        self._pool: ProcessSlavePool | None = None
        #: Reaps the pool and leaves its core-budget guard: once, from
        #: ``close()`` or when this runtime is dropped.
        self._reap: weakref.finalize | None = None
        #: The crew this runtime owns (none while it borrows a service's),
        #: and what joins it.
        self._crew: SlaveCrew | None = None
        self._reap_crew: weakref.finalize | None = None

    def run(self) -> RuntimeResult:
        # A pass that raises reaps what this runtime owns: no reply the
        # failed pass left in a worker's pipe is ever read, and no crew
        # thread it left running is handed another slave.
        try:
            if self.slave_mode == "process":
                # The worker pool holds the core-budget guard from its
                # fork to close().
                return self._run()
            # One core's worth of BLAS threads per slave while the slaves
            # compute, the previous size back on any exit.
            with slave_cores(self._total_cores):
                return self._run()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Reap the process worker pool (giving the node's BLAS threads
        back) and join the crew this runtime owns. Idempotent; a later
        pass builds both afresh."""
        self._close_pool()
        if self._reap_crew is not None:
            self._reap_crew()
        self._crew = self._reap_crew = None

    def _close_pool(self) -> None:
        if self._reap is not None:
            self._reap()
        self._pool = self._reap = None

    def __enter__(self) -> "CloudBurstingRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _worker_pool(self, workers: int) -> ProcessSlavePool:
        """This pass's worker pool: the last pass's, re-armed with the app
        as it is now, or — first pass, or a worker dead or broken — a
        fresh one."""
        if self._pool is not None and self._pool.rearm(self.app):
            return self._pool
        self._close_pool()
        with ExitStack() as stack:
            # Fork under the guard, so every worker inherits one slave's
            # share of the BLAS threads; the parent keeps that share until
            # close(). Resizing the parent's OpenBLAS restarts its threads,
            # which then spin on the workers' cores.
            stack.enter_context(slave_cores(self._total_cores))
            pool = stack.enter_context(
                ProcessSlavePool(
                    self.app,
                    workers,
                    max_chunk_bytes=max(e.chunk_bytes for e in self.index.files),
                    units_per_group=self.tuning.units_per_group,
                    timeout=self.join_timeout,
                )
            )
            self._reap = weakref.finalize(self, stack.pop_all().close)
        self._pool = pool
        return pool

    def _slave_crew(self) -> SlaveCrew:
        """The crew this pass's slaves run on: the one the calling context
        installed (a service's), else this runtime's own."""
        borrowed = current_crew()
        if borrowed is not None:
            return borrowed
        if self._crew is None:
            self._crew = SlaveCrew()
            self._reap_crew = weakref.finalize(self, self._crew.close)
        return self._crew

    def _run(self) -> RuntimeResult:
        """One pass: build -> start -> join -> collect."""
        started = time.perf_counter()
        trace = self.trace
        if trace is not None:
            trace.start()  # idempotent: iterative passes share one origin

        # -- build -----------------------------------------------------------
        scheduler = HeadScheduler(
            self.index.jobs(), self.tuning, seed=self.seed, trace=trace
        )
        spec = self.sync
        codec = self._sync_codec
        layout = lay_out(self.sites, self.sites[0][0], spec, self.scale)
        for slot in layout.slots:
            scheduler.register_cluster(slot.name, slot.site)
        head = HeadNode(
            HeadCore(
                scheduler, layout.names, roots=layout.roots,
                codec=codec, stream=spec.stream,
            ),
            trace=trace,
        )

        # The worker pool forks before any crew thread of this runtime
        # exists (fork safety), so the crew comes after it.
        pool: ProcessSlavePool | None = None
        if self.slave_mode == "process":
            # One shared-memory segment per slave is sized to the largest
            # chunk it can ever be handed. Autoscaling pre-sizes the pool
            # so mid-run attaches find their worker process already forked.
            pool = self._worker_pool(layout.spares.stop)
        crew = self._slave_crew()
        reader = DatasetReader(
            self.index,
            self.stores,
            retrieval_threads=self.tuning.retrieval_threads,
            trace=trace,
            retry=self.retry_policy,
            cache=self.cache,
            pool=crew.retrieval,
        )
        # Injectors, cache and codec count across passes (an iterative run
        # reuses them); the pass reports, and samples, the ledger's movement.
        before = read_ledger(reader, self.stores, self.cache, codec)

        def make_slave(slave_id: int, cluster: str, site: str, inbox) -> SlaveWorker:
            """The static slaves and every autoscaled one are built here."""
            return SlaveWorker(
                slave_id,
                cluster,
                site,
                self.app,
                reader,
                inbox,
                crew=crew,
                units_per_group=self.tuning.units_per_group,
                fault_hook=self.fault_hook,
                trace=trace,
                take_timeout=self.join_timeout,
                prefetch=self.prefetch,
                sync_watermark=spec.slave_watermark,
                process_slave=pool.slaves[slave_id] if pool is not None else None,
            )

        masters: dict[str, MasterNode] = {}
        slaves: list[SlaveWorker] = []
        for slot in layout.slots:
            # A parent's slot precedes its children's, so the parent
            # master already exists here.
            parent_inbox = (
                head.inbox if slot.parent is None else masters[slot.parent].inbox
            )
            master = masters[slot.name] = MasterNode(
                slot.name, slot.site, head.inbox, slot.cores, self.tuning,
                parent_inbox=parent_inbox, codec=codec, children=slot.children,
                stream=spec.stream, cross_site=slot.cross_site, trace=trace,
                revocation=slot.revocation,
            )
            slaves += [
                make_slave(sid, slot.name, slot.site, master.inbox)
                for sid in slot.slave_ids
            ]

        monitor = self.monitor
        fleet: FleetManager | None = None
        workers = slaves  # every slave the pass may start
        burst = layout.burst  # elastic bursting acts on its cluster only
        if burst is not None and self.scale.autoscale:
            # Bought slaves attach at once; their worker processes were
            # forked with the pool.
            burst_master = masters[burst.name]
            fleet = FleetManager(
                self.scale,
                burst_master,
                lambda sid: make_slave(
                    sid, burst.name, burst.site, burst_master.inbox
                ),
                layout.spares,
                monitor,
                deliver=burst_master.inbox.post,
            )
            monitor = fleet.monitor
            workers = slaves + list(fleet.spares)
        if monitor is not None:
            monitor.bind(
                run_probe(
                    len(self.index.jobs()), scheduler,
                    [m.core for m in masters.values()],
                    [s.core for s in workers],
                    reader=reader, codec=codec, cache=self.cache,
                )
            )

        # -- start -----------------------------------------------------------
        SlaveWorker.start_all(slaves)
        if monitor is not None:
            monitor.start()

        # -- join ------------------------------------------------------------
        try:
            result = head.join(timeout=self.join_timeout)
        except RuntimeTimeoutError:
            alive_masters = [
                m.name for m in masters.values() if not m.core.finished
            ]
            alive_slaves = [
                f"{s.slave_id} ({s.cluster})" for s in workers if s.is_alive()
            ]
            raise RuntimeTimeoutError(
                f"run did not complete within {self.join_timeout:g}s: the "
                f"head node is still waiting; masters still alive: "
                f"{', '.join(alive_masters) or 'none'}; slaves still alive: "
                f"{', '.join(alive_slaves) or 'none'} — a hung slave or a "
                f"lost message keeps the reduction from converging"
            ) from None
        except BaseException:
            # A master died and the head failed the run: release the
            # other masters, so their slaves drain what they hold and end.
            for master in masters.values():
                master.inbox.post(JobReply(None))
            raise
        finally:
            if monitor is not None:
                monitor.stop()  # takes the closing sample
            if fleet is not None:
                fleet.leave()
        # A spare never bought, or bought in the run's last instants after
        # its master finished, was never started: there is nothing to join.
        started_slaves = [slave for slave in workers if slave.started]
        for slave in started_slaves:
            slave.join(timeout=self.join_timeout)

        # -- collect ---------------------------------------------------------
        wall = time.perf_counter() - started
        after = read_ledger(reader, self.stores, self.cache, codec)
        crews: dict[str, list] = {name: [] for name in masters}
        for slave in started_slaves:
            crews[slave.cluster].append(slave.core)
        telemetry = RunTelemetry(
            makespan=wall,
            global_reduction=head.global_reduction_seconds,
            prefetches=sum(s.prefetches for s in started_slaves),
            # Stamps are perf_counter readings.
            **pass_record(
                head, masters.values(), crews, scheduler,
                span=wall, origin=started,
            ),
            **{name: after[name] - before[name] for name in after},
        )
        if fleet is not None:
            telemetry.dollars_spent = fleet.close(monitor.last.time)
        telemetry.validate()

        if trace is not None:
            # A one-line data-path digest on the timeline, so a trace read
            # back from disk (`repro report`) can render the section.
            trace.emit(
                "data_path",
                detail=(
                    f"{telemetry.zero_copy_reads} zero-copy reads, "
                    f"{telemetry.bytes_copied}B copied"
                ),
            )
            # The causal-span digest (per-phase totals + critical path).
            telemetry.spans = span_summary(trace)

        return RuntimeResult(
            value=self.app.finalize(result),
            telemetry=telemetry,
            global_reduction_seconds=head.global_reduction_seconds,
        )
