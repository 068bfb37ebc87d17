"""End-to-end executable runtime.

:class:`CloudBurstingRuntime` assembles head + masters + slaves as threads
over real data in the storage layer, runs an application to completion, and
returns the final result with telemetry. It is the functional twin of
:class:`repro.sim.simulation.CloudBurstSimulation`: same index, same
scheduler, same protocol — real bytes instead of modeled costs.

:func:`run_iterative` drives iterative applications (kmeans to
convergence, pagerank power iterations) by re-running the single-pass
runtime and feeding each result back through the app's ``update`` hook.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..cache import ChunkCache
from ..config import CLOUD_SITE, ComputeSpec, MiddlewareTuning
from ..core.api import GeneralizedReductionApp, iterate_passes
from ..core.index import DataIndex
from ..core.reduction import from_bytes
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec, SyncSpec, build_sync_plan, plan_roots
from ..data.dataset import DatasetReader
from ..errors import ConfigurationError, RuntimeTimeoutError
from ..obs.events import EventLog
from ..obs.live import RunMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.spans import span_summary
from ..options import ScaleOptions
from ..resilience.faults import FaultInjector
from ..resilience.retry import RetryPolicy
from ..scale import Autoscaler, SpotRevoker
from ..storage.base import StorageService
from ..core.shmem import ShmemStrategy
from .corebudget import slave_cores
from .head import HeadNode, HeadSync
from .master import MasterNode, MasterSync
from .messages import SlaveAttach, SlaveDetach
from .procpool import ProcessSlavePool
from .slave import SlaveWorker
from .telemetry import ClusterTelemetry, RunTelemetry

__all__ = ["RuntimeResult", "CloudBurstingRuntime", "run_iterative", "SLAVE_MODES"]

#: The slave substrates the runtime can execute on.
SLAVE_MODES = ("thread", "process")


@dataclass
class RuntimeResult:
    """Application result plus run accounting."""

    value: Any
    telemetry: RunTelemetry
    global_reduction_seconds: float


class CloudBurstingRuntime:
    """Executable middleware over in-process clusters."""

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
        process_strategy: ShmemStrategy | str = ShmemStrategy.FULL_REPLICATION,
        process_start_method: str | None = None,
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
        #: Reduction-object sharing discipline for process slaves
        #: (:class:`~repro.core.shmem.ShmemStrategy`): full replication
        #: (default) or chunk merge. Ignored in thread mode.
        self.process_strategy = ShmemStrategy(process_strategy)
        self.process_start_method = process_start_method

    def run(self) -> RuntimeResult:
        # One core's worth of BLAS threads per slave while the slaves
        # compute, the previous size back on any exit. Thread slaves compute
        # in this process; forked process slaves inherit the cap with it.
        with slave_cores(self.compute.total_cores):
            return self._run()

    def _run(self) -> RuntimeResult:
        started = time.perf_counter()
        # Injector counters are cumulative across passes (run_iterative
        # reuses the stores); report this run's delta.
        faults_before = sum(
            store.counters.total
            for store in self.stores.values()
            if isinstance(store, FaultInjector)
        )
        trace = self.trace
        if trace is not None:
            trace.start()  # idempotent: iterative passes share one origin
        scheduler = HeadScheduler(
            self.index.jobs(), self.tuning, seed=self.seed, trace=trace
        )
        sites = self.compute.active_sites
        cluster_names = [f"{site}-cluster" for site in sites]
        for name, site in zip(cluster_names, sites):
            scheduler.register_cluster(name, site)

        spec = self.sync
        codec = self._sync_codec
        plan = (
            build_sync_plan(cluster_names, spec.topology, fanout=spec.fanout)
            if spec is not None
            else None
        )
        head_sync = None
        if spec is not None and plan is not None and codec is not None:
            head_sync = HeadSync(
                codec=codec, roots=tuple(plan_roots(plan)), stream=spec.stream
            )
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
        # Cache counters are cumulative across iterative passes (the cache
        # outlives this run); report this pass's delta, like the injector.
        cache_before = (0, 0, 0, 0)
        if self.cache is not None:
            s = self.cache.stats
            cache_before = (s.hits, s.misses, s.evictions, s.bytes_saved)
        # Codec accounting is likewise cumulative (baselines and stats
        # persist so deltas stay small across passes); report the delta.
        sync_before = (0, 0, 0)
        if codec is not None:
            st = codec.stats
            sync_before = (st.uploads, st.wire_bytes, st.dense_bytes)

        # -- elastic bursting wiring ----------------------------------------
        scale = self.scale
        cloud_cluster = f"{CLOUD_SITE}-cluster" if CLOUD_SITE in sites else None
        autoscaling = (
            scale is not None and scale.autoscale and cloud_cluster is not None
        )
        revoker: SpotRevoker | None = None
        if scale is not None and cloud_cluster is not None:
            rev_spec = scale.revocation_spec
            if rev_spec is not None:
                revoker = SpotRevoker(rev_spec, trace=trace)
        initial_cloud = self.compute.cores_at(CLOUD_SITE) if cloud_cluster else 0
        # Dynamic slaves a scale-up may attach beyond the initial crew.
        # Revocations free fleet slots but never slave ids (a dead id
        # stays dead to the master), so revocable runs get id headroom.
        dynamic_headroom = 0
        if autoscaling:
            dynamic_headroom = max(0, scale.max_slaves - initial_cloud)
            if revoker is not None:
                dynamic_headroom += scale.max_slaves

        def cloud_fault_hook(slave_id: int, job) -> None:
            if revoker is not None:
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
                strategy=self.process_strategy,
                start_method=self.process_start_method,
                timeout=self.join_timeout,
            )

        masters: list[MasterNode] = []
        masters_by_name: dict[str, MasterNode] = {}
        slaves: list[SlaveWorker] = []
        slave_id = 0
        for name, site in zip(cluster_names, sites):
            cores = self.compute.cores_at(site)
            master_sync = None
            if spec is not None and plan is not None and codec is not None:
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
                if revoker is not None and site == CLOUD_SITE:
                    revoker.admit(slave_id)
                slaves.append(
                    SlaveWorker(
                        slave_id,
                        name,
                        site,
                        self.app,
                        reader,
                        master.inbox,
                        units_per_group=self.tuning.units_per_group,
                        fault_hook=(
                            cloud_fault_hook
                            if revoker is not None and site == CLOUD_SITE
                            else self.fault_hook
                        ),
                        trace=trace,
                        metrics=self.metrics,
                        take_timeout=self.join_timeout,
                        prefetch=self.prefetch,
                        sync_watermark=(
                            spec.watermark if spec is not None and spec.stream else 0
                        ),
                        process_slave=(
                            pool.slaves[slave_id] if pool is not None else None
                        ),
                    )
                )
                slave_id += 1

        monitor = self.monitor
        if monitor is None and autoscaling:
            # The controller needs a sample stream; build a private one.
            monitor = RunMonitor(scale.interval)
        slaves_lock = threading.Lock()
        if monitor is not None:
            jobs_total = len(self.index.jobs())
            cache = self.cache

            def probe() -> dict:
                pool_depth = sum(len(m.pool) for m in masters)
                in_flight = sum(m.pool.in_flight for m in masters)
                with slaves_lock:
                    crew = tuple(slaves)
                workers = (
                    sum(1 for s in crew if s.is_alive())
                    if autoscaling
                    else len(crew)
                )
                gauges = {
                    "jobs_total": jobs_total,
                    "jobs_done": sum(m.pool.jobs_done for m in masters),
                    "pool_depth": pool_depth,
                    "in_flight": in_flight,
                    "steals": sum(
                        c.jobs_stolen for c in scheduler.clusters.values()
                    ),
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

            monitor.bind(probe)

        controller: Autoscaler | None = None
        scale_state = {"added": 0, "removed": 0, "next_id": slave_id,
                       "applying": True}
        if autoscaling and monitor is not None:
            controller = Autoscaler(
                min_slaves=scale.min_slaves,
                max_slaves=scale.max_slaves,
                deadline=scale.deadline,
                budget=scale.budget,
                dollars_per_slave_hour=scale.dollars_per_slave_hour,
                damping=scale.damping,
            )
            cloud_master = masters_by_name[cloud_cluster]
            watermark = spec.watermark if spec is not None and spec.stream else 0

            def build_dynamic_slave(sid: int) -> SlaveWorker:
                return SlaveWorker(
                    sid,
                    cloud_cluster,
                    CLOUD_SITE,
                    self.app,
                    reader,
                    cloud_master.inbox,
                    units_per_group=self.tuning.units_per_group,
                    fault_hook=(
                        cloud_fault_hook
                        if revoker is not None
                        else self.fault_hook
                    ),
                    trace=trace,
                    metrics=self.metrics,
                    take_timeout=self.join_timeout,
                    prefetch=self.prefetch,
                    sync_watermark=watermark,
                    process_slave=(
                        pool.slaves[sid] if pool is not None else None
                    ),
                )

            def on_sample(sample) -> None:
                revoked = (
                    revoker.revoked
                    if revoker is not None
                    else cloud_master.slaves_revoked
                )
                fleet = max(
                    0,
                    initial_cloud
                    + scale_state["added"]
                    - scale_state["removed"]
                    - revoked,
                )
                decision = controller.observe(sample, fleet)
                if not scale_state["applying"]:
                    # The run is tearing down: keep accruing dollars for
                    # the closing sample, stop changing the fleet.
                    return
                if decision.action == "add":
                    workers = []
                    for _ in range(decision.count):
                        sid = scale_state["next_id"]
                        if pool is not None and sid >= len(pool.slaves):
                            break  # process slots exhausted; skip the add
                        scale_state["next_id"] = sid + 1
                        worker = build_dynamic_slave(sid)
                        if revoker is not None:
                            revoker.admit(sid)
                        workers.append(worker)
                    if workers:
                        with slaves_lock:
                            slaves.extend(workers)
                        scale_state["added"] += len(workers)
                        cloud_master.inbox.post(
                            SlaveAttach(workers=tuple(workers))
                        )
                        if trace is not None:
                            trace.emit(
                                "scale_up", cluster=cloud_cluster,
                                detail=f"+{len(workers)}: {decision.reason}",
                            )
                elif decision.action == "remove":
                    count = min(decision.count, max(0, fleet - 1))
                    if count > 0:
                        scale_state["removed"] += count
                        cloud_master.inbox.post(SlaveDetach(count=count))
                        # The master traces one scale_down per slave it
                        # actually retires (its floor may defer some).

            monitor.subscribe(on_sample)

        head.start()
        for master in masters:
            master.start()
        for slave in slaves:
            slave.start()
        if monitor is not None:
            monitor.start()

        try:
            try:
                result = head.join(timeout=self.join_timeout)
            except RuntimeTimeoutError:
                alive_masters = [m.name for m in masters if m.is_alive()]
                with slaves_lock:
                    crew = tuple(slaves)
                alive_slaves = [s.slave_id for s in crew if s.is_alive()]
                raise RuntimeTimeoutError(
                    f"run did not complete within {self.join_timeout:g}s: the "
                    f"head node is still waiting; masters still alive: "
                    f"{alive_masters or 'none'}; slaves still alive: "
                    f"{alive_slaves or 'none'} — a hung slave or a lost "
                    f"message keeps the reduction from converging"
                ) from None
            finally:
                scale_state["applying"] = False
                if monitor is not None:
                    monitor.stop()
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

        wall = time.perf_counter() - started
        telemetry = RunTelemetry(wall_seconds=wall)
        for master, site in zip(masters, sites):
            name = master.name
            crew = [
                s.telemetry
                for s in slaves
                if s.cluster == name and s._thread is not None
            ]
            telemetry.clusters[name] = ClusterTelemetry.aggregate(
                name, site, crew, stolen=scheduler.clusters[name].jobs_stolen
            )
            telemetry.slaves_failed += master.slaves_failed
            telemetry.slaves_revoked += master.slaves_revoked
            telemetry.slaves_added += master.slaves_added
            telemetry.jobs_reexecuted += master.jobs_reexecuted
        if controller is not None:
            telemetry.dollars_spent = controller.dollars_spent

        telemetry.bytes_copied = reader.bytes_copied
        telemetry.zero_copy_reads = reader.zero_copy_reads
        if trace is not None:
            # A one-line data-path digest on the timeline, so a trace read
            # back from disk (`repro report`) can render the section.
            trace.emit(
                "data_path",
                detail=(
                    f"{reader.zero_copy_reads} zero-copy reads, "
                    f"{reader.bytes_copied}B copied"
                ),
            )
        resilience = reader.resilience
        telemetry.retries = resilience.retries
        telemetry.hedges = resilience.hedges
        telemetry.hedge_wins = resilience.hedge_wins
        telemetry.timeouts = resilience.timeouts
        telemetry.circuit_opens = sum(
            b.opens for b in reader.breakers().values()
        )
        telemetry.faults_injected = (
            sum(
                store.counters.total
                for store in self.stores.values()
                if isinstance(store, FaultInjector)
            )
            - faults_before
        )
        if self.cache is not None:
            s = self.cache.stats
            telemetry.cache_hits = s.hits - cache_before[0]
            telemetry.cache_misses = s.misses - cache_before[1]
            telemetry.cache_evictions = s.evictions - cache_before[2]
            telemetry.bytes_saved = s.bytes_saved - cache_before[3]
        if self.prefetch:
            telemetry.prefetches = sum(s.prefetches for s in slaves)
        if codec is not None:
            st = codec.stats
            telemetry.sync_uploads = st.uploads - sync_before[0]
            telemetry.sync_bytes_sent = st.wire_bytes - sync_before[1]
            telemetry.sync_bytes_saved = (
                st.dense_bytes - sync_before[2]
            ) - telemetry.sync_bytes_sent
            telemetry.sync_partial_merges = sum(m.sync_partials for m in masters)

        if trace is not None:
            # The causal-span digest (per-phase totals + critical path).
            telemetry.spans = span_summary(trace)

        if self.metrics is not None:
            registry = self.metrics
            registry.counter("jobs_stolen").inc(telemetry.total_stolen)
            registry.counter("slaves_failed").inc(telemetry.slaves_failed)
            registry.counter("slaves_revoked").inc(telemetry.slaves_revoked)
            registry.counter("slaves_added").inc(telemetry.slaves_added)
            registry.counter("jobs_reexecuted").inc(telemetry.jobs_reexecuted)
            registry.counter("groups_assigned").inc(
                sum(c.groups_assigned for c in scheduler.clusters.values())
            )
            registry.counter("retries").inc(telemetry.retries)
            registry.counter("hedges").inc(telemetry.hedges)
            registry.counter("circuit_opens").inc(telemetry.circuit_opens)
            registry.counter("faults_injected").inc(telemetry.faults_injected)
            registry.counter("zero_copy_reads").inc(telemetry.zero_copy_reads)
            registry.counter("bytes_copied").inc(telemetry.bytes_copied)
            if codec is not None:
                registry.counter("sync_uploads").inc(telemetry.sync_uploads)
                registry.counter("sync_bytes_sent").inc(telemetry.sync_bytes_sent)
                registry.counter("sync_bytes_saved").inc(telemetry.sync_bytes_saved)
                registry.counter("sync_partial_merges").inc(
                    telemetry.sync_partial_merges
                )
            registry.gauge("workers").set(len(slaves))
            registry.gauge("clusters").set(len(masters))
            telemetry.metrics = registry.snapshot()

        final_robj = from_bytes(result.blob)
        return RuntimeResult(
            value=self.app.finalize(final_robj),
            telemetry=telemetry,
            global_reduction_seconds=head.global_reduction_seconds,
        )


def run_iterative(
    runtime: CloudBurstingRuntime,
    update: Callable[[Any], None],
    *,
    iterations: int = 10,
    tolerance: float | None = None,
    distance: Callable[[Any, Any], float] | None = None,
) -> tuple[Any, int]:
    """Run the app repeatedly, feeding results back via ``update``.

    Stops after ``iterations`` passes, or earlier when ``distance(prev,
    cur) <= tolerance`` (with the default distance being the max absolute
    difference of array results). Returns ``(final_result, passes_run)``.
    """
    return iterate_passes(
        lambda: runtime.run().value,
        update,
        iterations=iterations,
        tolerance=tolerance,
        distance=distance,
    )
