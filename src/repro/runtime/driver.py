"""End-to-end executable runtime.

:class:`CloudBurstingRuntime` assembles head + masters + slaves as threads
over real data in the storage layer, runs an application to completion, and
returns the final result with telemetry. It is the functional twin of
:class:`repro.sim.simulation.CloudBurstSimulation`: same index, same
scheduler, same protocol — real bytes instead of modeled costs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..cache import ChunkCache
from ..config import CLOUD_SITE, ComputeSpec, MiddlewareTuning
from ..core.api import GeneralizedReductionApp
from ..core.index import DataIndex
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec, SyncSpec, build_sync_plan, plan_roots
from ..data.dataset import DatasetReader
from ..errors import ConfigurationError, RuntimeTimeoutError
from ..obs.events import EventLog
from ..obs.live import RunMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.record import ClusterReport
from ..obs.spans import span_summary
from ..options import ScaleOptions
from ..resilience.retry import RetryPolicy
from ..scale import SpotRevoker
from ..scale.burst import RuntimeBurst
from ..storage.base import StorageService
from .corebudget import slave_cores
from .head import HeadNode, HeadSync
from .master import MasterNode, MasterSync
from .procpool import ProcessSlavePool
from .slave import SlaveWorker
from .telemetry import RunTelemetry, read_ledger

__all__ = ["RuntimeResult", "CloudBurstingRuntime", "SLAVE_MODES"]

#: The slave substrates the runtime can execute on.
SLAVE_MODES = ("thread", "process")

#: :class:`RunTelemetry` counters a metrics registry mirrors under the
#: same names (the sync ones only when a sync plan is active).
_MIRRORED = (
    "slaves_failed", "slaves_revoked", "slaves_added", "jobs_reexecuted",
    "retries", "hedges", "circuit_opens", "faults_injected",
    "zero_copy_reads", "bytes_copied",
)
_MIRRORED_SYNC = (
    "sync_uploads", "sync_bytes_sent", "sync_bytes_saved", "sync_partial_merges",
)


@dataclass
class RuntimeResult:
    """Application result plus run accounting."""

    value: Any
    telemetry: RunTelemetry
    global_reduction_seconds: float


class CloudBurstingRuntime:
    """Executable middleware over in-process clusters.

    The constructor owns what outlives a pass — stores, cache, the sync
    codec and its delta baselines, the monitor; what ``run()`` builds
    (head, masters, slaves, reader, worker pool) dies with the pass.
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
        metrics: MetricsRegistry | None = None,
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
        #: Optional observability hooks: a shared event log every node
        #: emits into, and a metrics registry the slaves feed. Both are
        #: off (``None``) by default and cost nothing when disabled.
        self.trace = trace
        self.metrics = metrics
        self.join_timeout = join_timeout
        #: Optional :class:`~repro.resilience.RetryPolicy` applied to every
        #: chunk read (retry/backoff, hedging, circuit-breaker degradation).
        self.retry_policy = retry_policy
        #: Optional node-wide :class:`~repro.cache.ChunkCache` consulted by
        #: the shared reader before any remote fetch. Owned by the caller
        #: so it persists across iterative passes (``run()`` builds a
        #: fresh reader each pass, but the cache survives).
        self.cache = cache
        #: Overlap each slave's next fetches with its current reduction via
        #: a :class:`~repro.cache.Prefetcher` window. Off by default: the
        #: slave loop is the original strictly-sequential one.
        self.prefetch = prefetch
        #: Global-reduction sync plan (:class:`~repro.core.sync.SyncSpec`).
        #: A default spec is indistinguishable from ``None``: the original
        #: star/dense/barrier path runs with zero sync machinery. The
        #: codec (and its delta baselines) is owned here so it persists
        #: across iterative passes — that persistence is what makes
        #: pass-N delta uploads tiny.
        self.sync = None if sync is None or sync.is_default else sync
        self._sync_codec = SyncCodec(self.sync) if self.sync is not None else None
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
        #: attaches/detaches cloud slaves mid-run; ``revocation`` arms a
        #: seeded :class:`~repro.scale.SpotRevoker` on the cloud crew.
        #: ``None`` (or all-defaults) builds none of this machinery.
        self.scale = scale if scale is not None and scale.enabled else None
        #: ``"thread"`` (the original in-process slaves) or ``"process"``
        #: (a :class:`~repro.runtime.procpool.ProcessSlavePool`: decode +
        #: local reduction in worker processes fed over shared memory —
        #: GIL-free compute). The control plane is identical either way.
        self.slave_mode = slave_mode

    def run(self) -> RuntimeResult:
        # One core's worth of BLAS threads per slave while the slaves
        # compute, the previous size back on any exit. Thread slaves compute
        # in this process; forked process slaves inherit the cap with it.
        with slave_cores(self.compute.total_cores):
            return self._run()

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
        syncing = spec is not None  # then the codec and the plan exist too
        plan = head_sync = None
        watermark = 0
        if syncing:
            plan = build_sync_plan(cluster_names, spec.topology, fanout=spec.fanout)
            head_sync = HeadSync(
                codec=codec, roots=tuple(plan_roots(plan)), stream=spec.stream
            )
            watermark = spec.watermark if spec.stream else 0
        head = HeadNode(
            scheduler, cluster_names, trace=trace, take_timeout=self.join_timeout,
            sync=head_sync,
        )
        reader = DatasetReader(
            self.index,
            self.stores,
            retrieval_threads=self.tuning.retrieval_threads,
            trace=trace,
            retry=self.retry_policy,
            metrics=self.metrics,
            cache=self.cache,
        )
        # Injectors, cache and codec count across passes (an iterative run
        # reuses them); the pass reports the ledger's movement.
        before = read_ledger(reader, self.stores, self.cache, codec)

        # Elastic bursting acts on the cloud cluster; without one it is off.
        scale = self.scale if CLOUD_SITE in sites else None
        autoscaling = scale is not None and scale.autoscale
        rev_spec = scale.revocation_spec if scale is not None else None
        revoker = SpotRevoker(rev_spec, trace=trace) if rev_spec is not None else None
        dynamic_headroom = (
            scale.id_headroom(self.compute.cores_at(CLOUD_SITE)) if autoscaling else 0
        )

        def cloud_fault_hook(slave_id: int, job) -> None:
            revoker.hook(slave_id, job)
            if self.fault_hook is not None:
                self.fault_hook(slave_id, job)

        pool: ProcessSlavePool | None = None
        if self.slave_mode == "process":
            # Workers must exist before any runtime thread starts (fork
            # safety), and one shared-memory segment per slave is sized to
            # the largest chunk it can ever be handed. Autoscaling
            # pre-sizes the pool so mid-run attaches find their worker
            # process already forked.
            pool = ProcessSlavePool(
                self.app,
                sum(self.compute.cores_at(site) for site in sites)
                + dynamic_headroom,
                max_chunk_bytes=max(e.chunk_bytes for e in self.index.files),
                units_per_group=self.tuning.units_per_group,
                timeout=self.join_timeout,
            )

        def make_slave(slave_id: int, cluster: str, site: str, inbox) -> SlaveWorker:
            """The static crew and every autoscaled slave are built here."""
            revocable = revoker is not None and site == CLOUD_SITE
            if revocable:
                revoker.admit(slave_id)
            return SlaveWorker(
                slave_id,
                cluster,
                site,
                self.app,
                reader,
                inbox,
                units_per_group=self.tuning.units_per_group,
                fault_hook=cloud_fault_hook if revocable else self.fault_hook,
                trace=trace,
                metrics=self.metrics,
                take_timeout=self.join_timeout,
                prefetch=self.prefetch,
                sync_watermark=watermark,
                process_slave=pool.slaves[slave_id] if pool is not None else None,
            )

        masters: list[MasterNode] = []
        masters_by_name: dict[str, MasterNode] = {}
        slaves: list[SlaveWorker] = []
        slaves_lock = threading.Lock()
        for name, site in zip(cluster_names, sites):
            cores = self.compute.cores_at(site)
            master_sync = None
            if syncing:
                node = plan[name]
                # Heap indexing guarantees a parent's index precedes its
                # children's, so the parent master already exists here.
                parent_inbox = (
                    head.inbox
                    if node.parent is None
                    else masters_by_name[node.parent].inbox
                )
                master_sync = MasterSync(
                    codec=codec,
                    parent_inbox=parent_inbox,
                    children=node.children,
                    stream=spec.stream,
                )
            master = MasterNode(
                name, site, head.inbox, cores, self.tuning, trace=trace,
                take_timeout=self.join_timeout, sync=master_sync,
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
                revoker=revoker,
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
        head.start()
        for master in masters:
            master.start()
        for slave in slaves:
            slave.start()
        if monitor is not None:
            monitor.start()

        # -- join ------------------------------------------------------------
        try:
            try:
                result = head.join(timeout=self.join_timeout)
            except RuntimeTimeoutError:
                alive_masters = [m.name for m in masters if m.is_alive()]
                with slaves_lock:
                    crew = tuple(slaves)
                # A master whose own mailbox deadline passed is gone; its
                # hung slave still names the cluster.
                alive_slaves = [
                    f"{s.slave_id} ({s.cluster})" for s in crew if s.is_alive()
                ]
                raise RuntimeTimeoutError(
                    f"run did not complete within {self.join_timeout:g}s: the "
                    f"head node is still waiting; masters still alive: "
                    f"{', '.join(alive_masters) or 'none'}; slaves still alive: "
                    f"{', '.join(alive_slaves) or 'none'} — a hung slave or a "
                    f"lost message keeps the reduction from converging"
                ) from None
            finally:
                if burst is not None:
                    burst.applying = False
                if monitor is not None:
                    monitor.stop()  # takes the closing sample
                    if burst is not None:
                        monitor.unsubscribe(burst.on_sample)
            for master in masters:
                master.join(timeout=self.join_timeout)
            with slaves_lock:
                slaves = list(slaves)
            for slave in slaves:
                # A scale-up posted in the run's last instants may never
                # have been started by the master; there is nothing to join.
                if slave._thread is not None:
                    slave.join(timeout=self.join_timeout)
        finally:
            if pool is not None:
                pool.close()
            # The reader lives for this run only; so do its pool's threads.
            reader.close()

        # -- collect ---------------------------------------------------------
        wall = time.perf_counter() - started
        after = read_ledger(reader, self.stores, self.cache, codec)
        telemetry = RunTelemetry(
            wall_seconds=wall,
            **{name: after[name] - before[name] for name in after},
        )
        # Stamps are perf_counter readings, like the slaves' stopwatches. A
        # cluster uploads to the head or, in a tree, to its parent master.
        arrivals = dict(head.arrivals)
        for master in masters:
            arrivals.update(master.arrivals)
        last_end = max(m.processing_end for m in masters) - started
        for master, site in zip(masters, sites):
            name = master.name
            crew = [
                (s.telemetry.processing.total, s.telemetry.retrieval.total,
                 s.telemetry.jobs)
                for s in slaves
                if s.cluster == name and s._thread is not None
            ]
            telemetry.clusters[name] = ClusterReport.from_crew(
                name, site, crew, jobs_stolen=scheduler.clusters[name].jobs_stolen,
                span=wall, last_end=last_end,
                processing_end=master.processing_end - started,
                combine_done=master.combine_done - started,
                robj_arrival=arrivals[name] - started,
            )
            telemetry.slaves_failed += master.slaves_failed
            telemetry.slaves_revoked += master.slaves_revoked
            telemetry.slaves_added += master.slaves_added
            telemetry.jobs_reexecuted += master.jobs_reexecuted
        if burst is not None:
            telemetry.dollars_spent = burst.controller.dollars_spent
        telemetry.prefetches = sum(s.prefetches for s in slaves)
        telemetry.sync_partial_merges = sum(m.sync_partials for m in masters)
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

        if self.metrics is not None:
            telemetry.metrics = self._mirror(telemetry, scheduler, len(slaves))

        return RuntimeResult(
            value=self.app.finalize(result.robj),
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
            pool_depth = sum(len(m.pool) for m in masters)
            in_flight = sum(m.pool.in_flight for m in masters)
            with slaves_lock:
                crew = tuple(slaves)
            workers = (
                sum(1 for s in crew if s.is_alive()) if count_alive else len(crew)
            )
            gauges = {
                "jobs_total": jobs_total,
                "jobs_done": sum(m.pool.jobs_done for m in masters),
                "pool_depth": pool_depth,
                "in_flight": in_flight,
                "steals": sum(c.jobs_stolen for c in scheduler.clusters.values()),
                "workers": workers,
                # A taken-but-unfinished job occupies a worker; the
                # pool's in-flight count is the cheap busy gauge.
                "workers_busy": min(in_flight, workers),
                "remote_fetches": reader.remote_fetches,
            }
            if cache is not None:
                gauges["cache_hits"] = cache.stats.hits
                gauges["cache_misses"] = cache.stats.misses
            if codec is not None:
                gauges["sync_bytes_sent"] = codec.stats.wire_bytes
            return gauges

        return probe

    def _mirror(self, telemetry: RunTelemetry, scheduler, workers: int) -> dict:
        """Fold one pass into the metrics registry; returns its snapshot."""
        registry = self.metrics
        registry.counter("jobs_stolen").inc(telemetry.total_stolen)
        registry.counter("groups_assigned").inc(
            sum(c.groups_assigned for c in scheduler.clusters.values())
        )
        for name in _MIRRORED + (_MIRRORED_SYNC if self.sync is not None else ()):
            registry.counter(name).inc(getattr(telemetry, name))
        registry.gauge("workers").set(workers)
        registry.gauge("clusters").set(len(telemetry.clusters))
        return registry.snapshot()
