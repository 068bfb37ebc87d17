"""End-to-end executable runtime.

:class:`CloudBurstingRuntime` assembles head + masters + slaves over real
data in the storage layer, runs an application to completion, and returns
the final result with telemetry. Only the slaves are threads, and they
come from a standing :class:`~repro.runtime.crew.SlaveCrew` (started once,
re-armed per pass): the head and the masters are stepped by the threads
that message them. The simulator
(:class:`repro.sim.simulation.CloudBurstSimulation`) steps the same head
and master cores (:mod:`repro.core.head`, :mod:`repro.core.master`) with
modeled costs, global reduction included; only its slaves are models of
their own.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..cache import ChunkCache
from ..config import CLOUD_SITE, LOCAL_SITE, ComputeSpec, MiddlewareTuning
from ..core.api import GeneralizedReductionApp
from ..core.head import HeadCore
from ..core.index import DataIndex
from ..core.messages import JobReply
from ..core.scheduler import HeadScheduler
from ..core.sync import (
    SyncCodec,
    SyncSpec,
    build_sync_plan,
    crosses_site,
    plan_roots,
)
from ..data.dataset import DatasetReader
from ..errors import ConfigurationError, RuntimeTimeoutError
from ..obs.events import EventLog
from ..obs.live import RunMonitor
from ..obs.record import cluster_reports
from ..obs.spans import span_summary
from ..options import ScaleOptions
from ..resilience.retry import RetryPolicy
from ..scale.burst import RuntimeBurst
from ..storage.base import StorageService
from .corebudget import slave_cores
from .crew import SlaveCrew, current as current_crew
from .head import HeadNode
from .master import MasterNode
from .procpool import ProcessSlavePool
from .slave import SlaveWorker
from .telemetry import RunTelemetry, read_ledger

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
        compute: ComputeSpec,
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
        if compute.total_cores <= 0:
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
        self.compute = compute
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
        #: attaches/detaches cloud slaves mid-run; ``revocation`` hands the
        #: cloud master's core a seeded spot die.
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
            with slave_cores(self.compute.total_cores):
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
            stack.enter_context(slave_cores(self.compute.total_cores))
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
        sites = self.compute.active_sites
        cluster_names = [f"{site}-cluster" for site in sites]
        for name, site in zip(cluster_names, sites):
            scheduler.register_cluster(name, site)

        spec = self.sync
        codec = self._sync_codec
        plan = build_sync_plan(cluster_names, spec.topology, fanout=spec.fanout)
        head = HeadNode(
            HeadCore(
                scheduler, cluster_names, roots=tuple(plan_roots(plan)),
                codec=codec, stream=spec.stream,
            ),
            trace=trace,
        )
        # Elastic bursting acts on the cloud cluster; without one it is off.
        scale = self.scale if CLOUD_SITE in sites else None
        autoscaling = scale is not None and scale.autoscale
        revocation = scale.revocation_spec if scale is not None else None
        dynamic_headroom = (
            scale.id_headroom(self.compute.cores_at(CLOUD_SITE)) if autoscaling else 0
        )

        # The worker pool forks before any crew thread of this runtime
        # exists (fork safety), so the crew comes after it.
        pool: ProcessSlavePool | None = None
        if self.slave_mode == "process":
            # One shared-memory segment per slave is sized to the largest
            # chunk it can ever be handed. Autoscaling pre-sizes the pool
            # so mid-run attaches find their worker process already forked.
            pool = self._worker_pool(
                sum(self.compute.cores_at(site) for site in sites)
                + dynamic_headroom
            )
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
        # reuses them); the pass reports the ledger's movement.
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

        masters: list[MasterNode] = []
        masters_by_name: dict[str, MasterNode] = {}
        slaves: list[SlaveWorker] = []
        slaves_lock = threading.Lock()
        for name, site in zip(cluster_names, sites):
            cores = self.compute.cores_at(site)
            node = plan[name]
            # Heap indexing guarantees a parent's index precedes its
            # children's, so the parent master already exists here.
            parent_inbox = (
                head.inbox
                if node.parent is None
                else masters_by_name[node.parent].inbox
            )
            master = MasterNode(
                name, site, head.inbox, cores, self.tuning,
                parent_inbox=parent_inbox, codec=codec, children=node.children,
                stream=spec.stream,
                cross_site=crosses_site(node, site, head_site=LOCAL_SITE),
                trace=trace,
                revocation=revocation if site == CLOUD_SITE else None,
            )
            masters.append(master)
            masters_by_name[name] = master
            for _ in range(cores):
                slaves.append(make_slave(len(slaves), name, site, master.inbox))

        monitor = self.monitor
        burst: RuntimeBurst | None = None
        if autoscaling:
            # The controller needs a sample stream; build a private one
            # when the caller gave none.
            monitor = monitor or RunMonitor(scale.interval)
            cloud_master = masters_by_name[f"{CLOUD_SITE}-cluster"]
            burst = RuntimeBurst(
                scale,
                cloud_master,
                lambda sid: make_slave(
                    sid, cloud_master.name, CLOUD_SITE, cloud_master.inbox
                ),
                slaves,
                slaves_lock,
                id_limit=len(pool.slaves) if pool is not None else None,
            )
            monitor.subscribe(burst.on_sample)
        if monitor is not None:
            monitor.bind(
                self._probe(
                    scheduler, masters, slaves, slaves_lock, reader,
                    count_alive=autoscaling,
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
            alive_masters = [m.name for m in masters if not m.core.finished]
            with slaves_lock:
                fleet = tuple(slaves)
            alive_slaves = [
                f"{s.slave_id} ({s.cluster})" for s in fleet if s.is_alive()
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
            for master in masters:
                master.inbox.post(JobReply(None))
            raise
        finally:
            if burst is not None:
                burst.applying = False
            if monitor is not None:
                monitor.stop()  # takes the closing sample
                if burst is not None:
                    monitor.unsubscribe(burst.on_sample)
        with slaves_lock:
            slaves = list(slaves)
        for slave in slaves:
            # A scale-up posted in the run's last instants may never
            # have been started by the master; there is nothing to join.
            if slave.started:
                slave.join(timeout=self.join_timeout)

        # -- collect ---------------------------------------------------------
        wall = time.perf_counter() - started
        after = read_ledger(reader, self.stores, self.cache, codec)
        telemetry = RunTelemetry(
            wall_seconds=wall,
            **{name: after[name] - before[name] for name in after},
        )
        # Stamps are perf_counter readings. A cluster uploads to the head
        # or, in a tree, to its parent master.
        arrivals = dict(head.core.arrivals)
        crews: dict[str, list] = {master.name: [] for master in masters}
        for master in masters:
            arrivals.update(master.core.arrivals)
            telemetry.slaves_failed += master.core.slaves_failed
            telemetry.slaves_revoked += master.core.slaves_revoked
            telemetry.slaves_added += master.core.slaves_added
            telemetry.jobs_reexecuted += master.core.jobs_reexecuted
        for slave in slaves:
            if slave.started:
                crews[slave.cluster].append(slave.core)
        telemetry.clusters = cluster_reports(
            masters, crews, scheduler, arrivals, span=wall, origin=started
        )
        if burst is not None:
            telemetry.dollars_spent = burst.controller.dollars_spent
        telemetry.prefetches = sum(s.prefetches for s in slaves)
        telemetry.sync_partial_merges = sum(m.core.sync_partials for m in masters)
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

    def _probe(
        self, scheduler, masters, slaves, slaves_lock, reader, *, count_alive: bool
    ) -> Callable[[], dict]:
        """The gauges a :class:`RunMonitor` samples off one pass's nodes."""
        jobs_total = len(self.index.jobs())
        cache = self.cache
        codec = self._sync_codec

        def probe() -> dict:
            pools = [m.core.pool for m in masters]
            pool_depth = sum(len(p) for p in pools)
            in_flight = sum(p.in_flight for p in pools)
            with slaves_lock:
                crew = tuple(slaves)
            workers = (
                sum(1 for s in crew if s.is_alive()) if count_alive else len(crew)
            )
            gauges = {
                "jobs_total": jobs_total,
                "jobs_done": sum(p.jobs_done for p in pools),
                "pool_depth": pool_depth,
                "in_flight": in_flight,
                "steals": sum(c.jobs_stolen for c in scheduler.clusters.values()),
                "workers": workers,
                # A taken-but-unfinished job occupies a worker; the
                # pool's in-flight count is the cheap busy gauge.
                "workers_busy": min(in_flight, workers),
                "remote_fetches": reader.remote_fetches,
                "sync_bytes_sent": codec.stats.wire_bytes,
            }
            if cache is not None:
                gauges["cache_hits"] = cache.stats.hits
                gauges["cache_misses"] = cache.stats.misses
            return gauges

        return probe
