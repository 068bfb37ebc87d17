"""The simulation engine: cloud bursting across any number of sites.

Section II: "our solution will also be applicable if the data and/or
processing power is spread across two different cloud providers." This
module is the one run loop: any number of sites, each with its own
compute pool, storage service, compute-speed factor, jitter model, and
cross-site network paths. The paper's campus + AWS testbed is its
two-site configuration (:mod:`repro.sim.simulation` builds it). The
scheduling policy (:class:`~repro.core.scheduler.HeadScheduler`) handles
N clusters unchanged — which is itself evidence for the paper's claim.

Configuration pieces:

* :class:`SiteSpec` — one provider/site: cores, hosted file count, the
  storage path its own slaves use, a compute-slowdown factor, jitter;
* :class:`CrossPath` — the network path a slave at ``dst`` uses to fetch
  chunks stored at ``src``;
* :class:`MultiSiteConfig` — sites + paths + dataset shape + head site.

A run instantiates one master plus one slave per active core at each
site, runs the job pool dry, performs the two-level reduction, and
returns a :class:`~repro.sim.metrics.SimReport` keyed by site-named
clusters. Reduction phases (Section III-B):

1. every slave folds its chunks into its own reduction object (implicit:
   its cost is inside processing time);
2. when a cluster's slaves all finish, the master tree-combines their
   objects over the intra-cluster fabric;
3. each master ships its combined object up the aggregation plan — by
   default straight to the head: free of the WAN for the head's own
   site, a WAN push for the others (skipped entirely in single-cluster
   runs, matching the paper's note that base environments avoid the
   transfer);
4. the head merges arriving objects serially.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..apps.base import AppProfile, get_profile

if TYPE_CHECKING:
    from ..cache import ChunkCache
    from ..obs import EventLog
    from ..options import ScaleOptions
    from ..resilience.faults import FaultSpec
from ..config import DatasetSpec, MiddlewareTuning
from ..core.index import DataIndex, FileEntry
from ..core.job import Job
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncSpec, build_sync_plan, plan_roots
from ..cluster.variability import LOCAL_VARIABILITY, VariabilityModel
from ..errors import ConfigurationError, SimulationError
from ..obs.record import ClusterReport
from ..scale.simmodel import ClusterBurst
from ..units import MB
from .computemodel import ComputeModel
from .engine import Environment, Event
from .linkmodel import FairShareLink
from .metrics import SimReport
from .simnodes import SimMaster, SimSlave
from .storagemodel import SimStore, StorePath

#: Every site's jitter seed is XORed with ``config.seed * JITTER_SALT``.
JITTER_SALT = 7919

__all__ = [
    "SiteSpec",
    "CrossPath",
    "MultiSiteConfig",
    "MultiSiteSimulation",
    "load_multisite_config",
]


@dataclass(frozen=True)
class SiteSpec:
    """One site (a campus cluster or a cloud provider region)."""

    name: str
    cores: int
    data_files: int
    storage: StorePath  # path its own slaves use for same-site fetches
    #: The site's storage is an object store: even "co-located" slaves GET
    #: over the network, so same-site fetches use the retrieval threads
    #: like cross-site ones. A disk read is a single sequential stream.
    object_store: bool = False
    compute_slowdown: float = 1.0
    variability: VariabilityModel = LOCAL_VARIABILITY
    intra_bandwidth: float = 1.0 * 1024**3  # combine fabric, bytes/s

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("site name must be non-empty")
        if self.cores < 0 or self.data_files < 0:
            raise ConfigurationError(f"site {self.name!r}: negative cores/files")
        if self.compute_slowdown <= 0:
            raise ConfigurationError(
                f"site {self.name!r}: compute_slowdown must be positive"
            )
        if self.intra_bandwidth <= 0:
            raise ConfigurationError(
                f"site {self.name!r}: intra_bandwidth must be positive"
            )


@dataclass(frozen=True)
class CrossPath:
    """The path slaves at ``dst`` use for chunks stored at ``src``."""

    src: str
    dst: str
    path: StorePath


@dataclass(frozen=True)
class MultiSiteConfig:
    """A complete N-site experiment."""

    name: str
    app: str
    dataset: DatasetSpec
    sites: tuple[SiteSpec, ...]
    cross_paths: tuple[CrossPath, ...] = ()
    head_site: str = ""
    tuning: MiddlewareTuning = field(default_factory=MiddlewareTuning)
    control_latency: float = 0.03  # one-way inter-site control latency
    lan_latency: float = 0.0002  # one-way latency inside the head's site
    robj_flow_rate: float = 8 * MB  # WAN push rate for reduction objects
    #: Shared trunk into the head site for reduction-object uploads,
    #: bytes/s. ``None`` keeps the legacy model (each remote site gets an
    #: independent path). When set, every upload bound for the head site
    #: fair-shares this one link — which is what makes star aggregation
    #: (n concurrent flows) lose to a tree (~fanout concurrent flows).
    head_ingress_bandwidth: float | None = None
    seed: int = 2011

    def __post_init__(self) -> None:
        if len(self.sites) < 1:
            raise ConfigurationError("need at least one site")
        names = [s.name for s in self.sites]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate site names: {names}")
        if sum(s.data_files for s in self.sites) != self.dataset.num_files:
            raise ConfigurationError(
                "sites must host exactly the dataset's files "
                f"({sum(s.data_files for s in self.sites)} != "
                f"{self.dataset.num_files})"
            )
        if sum(s.cores for s in self.sites) <= 0:
            raise ConfigurationError("at least one core across all sites")
        head = self.head_site or names[0]
        if head not in names:
            raise ConfigurationError(f"head site {head!r} is not a site")
        seen: set[tuple[str, str]] = set()
        for cross in self.cross_paths:
            pair = f"{cross.src!r} -> {cross.dst!r}"
            for end in (cross.src, cross.dst):
                if end not in names:
                    raise ConfigurationError(
                        f"cross path {pair}: {end!r} is not a site"
                    )
            if cross.src == cross.dst:
                raise ConfigurationError(
                    f"cross path {pair}: same-site reads use the site's storage"
                )
            if (cross.src, cross.dst) in seen:
                raise ConfigurationError(f"duplicate cross path {pair}")
            seen.add((cross.src, cross.dst))
        if self.control_latency < 0 or self.lan_latency < 0:
            raise ConfigurationError("control/lan latency cannot be negative")
        if self.robj_flow_rate <= 0:
            raise ConfigurationError("robj_flow_rate must be positive")
        if (
            self.head_ingress_bandwidth is not None
            and self.head_ingress_bandwidth <= 0
        ):
            raise ConfigurationError("head_ingress_bandwidth must be positive")

    @property
    def head(self) -> str:
        return self.head_site or self.sites[0].name

    def build_index(self) -> DataIndex:
        """Prefix placement across sites in declaration order."""
        units_per_chunk = self.dataset.units_per_chunk
        entries: list[FileEntry] = []
        file_id = 0
        for site in self.sites:
            for _ in range(site.data_files):
                entries.append(
                    FileEntry(
                        file_id=file_id,
                        site=site.name,
                        path=f"data/part-{file_id:05d}.bin",
                        nbytes=self.dataset.file_bytes,
                        chunk_bytes=self.dataset.chunk_bytes,
                        units_per_chunk=units_per_chunk,
                    )
                )
                file_id += 1
        return DataIndex(files=entries)


def load_multisite_config(text: str) -> MultiSiteConfig:
    """Build a :class:`MultiSiteConfig` from a JSON document.

    The declarative form used by ``python -m repro multisite``::

        {
          "name": "two-providers", "app": "knn", "head_site": "campus",
          "dataset": {"total_bytes": ..., "num_files": ..., "chunk_bytes": ...,
                      "record_bytes": ...},
          "sites": [
            {"name": "campus", "cores": 16, "data_files": 10,
             "storage": {"bandwidth": ..., "per_connection_cap": ...,
                         "request_latency": ...},
             "compute_slowdown": 1.0},
            ...
          ],
          "cross_paths": [
            {"src": "campus", "dst": "aws",
             "path": {"bandwidth": ..., ...}},
            ...
          ]
        }

    Storage/path objects accept every :class:`~repro.sim.storagemodel.
    StorePath` field except ``name`` (synthesized from context). Unknown
    keys raise :class:`~repro.errors.ConfigurationError` so typos fail
    loudly.
    """
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"multisite config is not valid JSON: {exc}") from exc

    def build_path(name: str, fields: dict) -> StorePath:
        allowed = {
            "bandwidth", "per_connection_cap", "request_latency",
            "file_service_cap", "seek_time", "random_penalty",
        }
        unknown = set(fields) - allowed
        if unknown:
            raise ConfigurationError(
                f"path {name!r}: unknown keys {sorted(unknown)}"
            )
        return StorePath(name=name, **fields)

    try:
        dataset = DatasetSpec(**doc["dataset"])
        sites = tuple(
            SiteSpec(
                name=s["name"],
                cores=int(s["cores"]),
                data_files=int(s["data_files"]),
                storage=build_path(f"{s['name']}-storage", s["storage"]),
                compute_slowdown=float(s.get("compute_slowdown", 1.0)),
                intra_bandwidth=float(s.get("intra_bandwidth", 1.0 * 1024**3)),
            )
            for s in doc["sites"]
        )
        cross = tuple(
            CrossPath(
                src=c["src"],
                dst=c["dst"],
                path=build_path(f"{c['src']}->{c['dst']}", c["path"]),
            )
            for c in doc.get("cross_paths", ())
        )
        return MultiSiteConfig(
            name=str(doc.get("name", "multisite")),
            app=str(doc["app"]),
            dataset=dataset,
            sites=sites,
            cross_paths=cross,
            head_site=str(doc.get("head_site", "")),
            control_latency=float(doc.get("control_latency", 0.03)),
            robj_flow_rate=float(doc.get("robj_flow_rate", 8 * MB)),
            head_ingress_bandwidth=(
                float(doc["head_ingress_bandwidth"])
                if doc.get("head_ingress_bandwidth") is not None
                else None
            ),
            seed=int(doc.get("seed", 2011)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed multisite config: {exc}") from exc


class _SimSchedulerTrace:
    """Adapter so the shared :class:`HeadScheduler` (which calls
    ``trace.emit`` — wall-clock semantics) lands its steal events on the
    simulated timeline at ``env.now``."""

    def __init__(self, log: "EventLog", env: Environment) -> None:
        self._log = log
        self._env = env

    def emit(self, kind: str, **fields) -> None:
        self._log.record(self._env.now, kind, **fields)


class MultiSiteSimulation:
    """Simulate one N-site experiment."""

    def __init__(
        self,
        config: MultiSiteConfig,
        profile: AppProfile | None = None,
        merge_seconds_per_byte: float = 1.0 / (2.0 * 1024**3),
        trace: "EventLog | None" = None,
        sync: SyncSpec | None = None,
        scale: "ScaleOptions | None" = None,
        scale_site: str | None = None,
        *,
        cache: "ChunkCache | None" = None,
        faults: "FaultSpec | None" = None,
        static_assignment: bool = False,
    ) -> None:
        self.config = config
        self.profile = profile or get_profile(config.app)
        self.merge_seconds_per_byte = merge_seconds_per_byte
        self.trace = trace
        #: Ablation baseline: pre-partition the whole job pool across the
        #: clusters round-robin instead of on-demand pooling. Disables
        #: work stealing and rate-matching — the strategy Section III-B's
        #: pooling design replaces.
        self.static_assignment = static_assignment
        #: Optional modeled chunk cache (the same LRU the executable
        #: runtime uses, keyed ``(file_id, chunk_index)`` with explicit
        #: sizes): a cross-site fetch that hits costs no transfer time,
        #: matching the runtime's behaviour so an iterative simulated run
        #: and an executed one agree on which passes touch the network.
        #: The caller owns it, so it persists across iterative passes.
        self.cache = cache
        #: Global-reduction sync plan (:class:`~repro.core.sync.SyncSpec`),
        #: modeled with the same :func:`build_sync_plan` the runtime
        #: executes. A default spec is indistinguishable from ``None`` —
        #: the original ship-and-merge path runs untouched. Encoded
        #: uploads are charged ``robj_bytes * sim_ratio`` on the wire
        #: (merge cost stays dense: decoding restores the full object).
        self.sync = None if sync is None or sync.is_default else sync
        #: Modeled storage faults (:class:`~repro.resilience.FaultSpec`):
        #: ``latency`` faults add their fixed delay to a fetch, ``slow``
        #: faults re-price the chunk at the degraded bandwidth — the same
        #: perturbations the runtime's :class:`FaultInjector` applies to
        #: real reads, so a seeded straggler appears in both substrates.
        #: Transient/permanent *errors* are runtime-only (the simulator
        #: models time, not retries) and are ignored here.
        self.faults = None if faults is None or not (
            faults.latency_rate or faults.slow_rate
        ) else faults
        #: Elastic bursting (:mod:`repro.scale`): the burstable site
        #: (``scale_site``, defaulting to the first active non-head site —
        #: the "cloud" in a campus-plus-provider layout) gains a
        #: :class:`~repro.scale.simmodel.ClusterBurst` — a provisioner
        #: driving the same pure autoscaler the runtime uses, with
        #: provision latency and seeded spot revocation modeled in
        #: virtual time. Disabled specs build none of the machinery.
        self.scale = scale if scale is not None and scale.enabled else None
        self.scale_site = scale_site
        if self.scale is not None and scale_site is not None and not any(
            s.name == scale_site and s.cores > 0 for s in config.sites
        ):
            raise ConfigurationError(
                f"scale_site {scale_site!r} is not an active site"
            )
        #: Accounting for the last :meth:`run` (also on the report): faults
        #: applied, and the scaling ledger — the simulator's counterpart
        #: of ``RunTelemetry.slaves_added`` and friends.
        self.faults_injected = 0
        self.slaves_added = 0
        self.slaves_revoked = 0
        self.dollars_spent = 0.0

    def _fetch_fn(self, env: Environment):
        """The slaves' ``fetch(job, slave_site, threads)`` callback: path
        choice, connection count, modeled cache and fault perturbation."""
        config = self.config
        stores = {(s.name, s.name): SimStore(env, s.storage) for s in config.sites}
        for cross in config.cross_paths:
            stores[(cross.src, cross.dst)] = SimStore(env, cross.path)
        object_store = {s.name: s.object_store for s in config.sites}
        cache = self.cache
        spec = self.faults
        # Per-run deterministic dice, independent of the compute-jitter
        # streams (same seeding rule the runtime's FaultInjector uses).
        rng = (
            random.Random(spec.seed ^ (config.seed * 2654435761))
            if spec is not None
            else None
        )

        def injected(job: Job, detail: str) -> None:
            self.faults_injected += 1
            if self.trace is not None:
                self.trace.record(
                    env.now, "fault_injected", job_id=job.job_id,
                    file_id=job.file_id, detail=detail,
                )

        def fault_delay(job: Job) -> float:
            """Extra modeled seconds the fault layer charges this fetch."""
            extra = 0.0
            if spec.latency_rate and rng.random() < spec.latency_rate:
                extra += spec.latency_seconds
                injected(job, f"latency +{spec.latency_seconds:g}s")
            if spec.slow_rate and rng.random() < spec.slow_rate:
                slow = job.nbytes / spec.slow_bandwidth
                extra += slow
                injected(job, f"slow +{slow:.3f}s @{spec.slow_bandwidth:g}B/s")
            return extra

        def fetch(job: Job, slave_site: str, threads: int) -> Event:
            # Cross-site chunks go through the modeled node cache exactly
            # like the runtime's DatasetReader: a hit is a local memory
            # read (no transfer), a miss pays the network and is inserted.
            if cache is not None and job.site != slave_site:
                key = (job.file_id, job.chunk_index)
                if cache.get(key) is not None:
                    return env.timeout(0.0)
                cache.put(key, True, job.nbytes)
            store = stores.get((job.site, slave_site))
            if store is None:
                raise SimulationError(
                    f"no path from {job.site!r} to {slave_site!r}; "
                    "add a CrossPath"
                )
            # Multi-threaded retrieval applies whenever the chunk crosses
            # sites or comes off an object store; only a same-site disk
            # read is a single sequential stream.
            single_stream = job.site == slave_site and not object_store[slave_site]

            def start_transfer() -> Event:
                return store.fetch(
                    job.file_id,
                    job.nbytes,
                    chunk_index=job.chunk_index,
                    connections=1 if single_stream else threads,
                )

            extra = fault_delay(job) if rng is not None else 0.0
            if extra <= 0.0:
                return start_transfer()

            def perturbed():
                # The fault delays the read itself: stall first, then start
                # the (contended) transfer — matching the injector's
                # position in front of the runtime's storage service.
                yield env.timeout(extra)
                yield start_transfer()

            return env.process(perturbed(), name=f"fault:{job.job_id}")

        return fetch

    def run(self) -> SimReport:
        config = self.config
        env = Environment()
        trace = self.trace
        # Thread the experiment seed into the jitter models so different
        # seeds produce different (but reproducible) runs.
        compute = ComputeModel(
            profile=self.profile,
            variability={
                s.name: replace(s.variability,
                                seed=s.variability.seed ^ (config.seed * JITTER_SALT))
                for s in config.sites
            },
            merge_seconds_per_byte=self.merge_seconds_per_byte,
            site_slowdowns={s.name: s.compute_slowdown for s in config.sites},
        )
        jobs = config.build_index().jobs()
        scheduler = HeadScheduler(
            jobs,
            config.tuning,
            seed=config.seed,
            trace=_SimSchedulerTrace(trace, env) if trace is not None else None,
        )
        self.faults_injected = 0
        fetch = self._fetch_fn(env)

        def mark(kind: str, cluster: str, at: float | None = None) -> None:
            if trace is not None:
                trace.record(env.now if at is None else at, kind, cluster=cluster)

        head = config.head
        cross_bandwidth = {
            (c.src, c.dst): c.path.bandwidth for c in config.cross_paths
        }
        robj_links: dict[tuple[str, str], FairShareLink] = {}

        def robj_link(src: str, dst: str) -> FairShareLink:
            """The link a reduction object rides from ``src`` to ``dst``,
            built on first use from the cross paths."""
            if dst == head and config.head_ingress_bandwidth is not None:
                # Shared trunk into the head site: every reduction-object
                # upload bound for the head fair-shares it when configured.
                key, bandwidth = ("*", head), config.head_ingress_bandwidth
            elif (src, dst) in cross_bandwidth:
                key, bandwidth = (src, dst), cross_bandwidth[src, dst]
            else:
                raise SimulationError(
                    f"no path to ship {src!r}'s reduction object to "
                    f"{dst!r}; add a CrossPath"
                )
            if key not in robj_links:
                robj_links[key] = FairShareLink(
                    env,
                    bandwidth=bandwidth,
                    latency=config.control_latency,
                    per_flow_cap=config.robj_flow_rate,
                    name=f"robj:{key[0]}->{key[1]}",
                )
            return robj_links[key]

        active_sites = [s for s in config.sites if s.cores > 0]
        multi_cluster = len(active_sites) > 1
        robj_bytes = self.profile.robj_bytes

        # With no sync spec every cluster ships its dense object straight
        # to the head (the default spec's star plan) and the head merges
        # each on arrival; a spec without streaming merges at a barrier.
        spec = self.sync or SyncSpec()
        head_on_arrival = self.sync is None or spec.stream
        # Plan order puts the head-site cluster first (when it has cores)
        # so the plan root is the head-site master and the final hop to
        # the head stays off the WAN, as in the runtime driver.
        cluster_names = [
            f"{s.name}-cluster"
            for s in sorted(active_sites, key=lambda s: s.name != head)
        ]
        plan = build_sync_plan(cluster_names, spec.topology, fanout=spec.fanout)
        wire_bytes = robj_bytes * spec.sim_ratio
        upload_events = {name: env.event() for name in cluster_names}
        masters: dict[str, SimMaster] = {}
        slaves: dict[str, list[SimSlave]] = {}
        processing_end: dict[str, float] = {}
        combine_done: dict[str, float] = {}
        robj_arrival: dict[str, float] = {}
        merged_at: dict[str, float] = {}
        head_busy_until = [0.0]  # serialize head-side merges

        # Elastic bursting: the burst site's provisioner samples these
        # global gauges (the same raw vocabulary the runtime's probe
        # feeds obs.live) and the shared pure controller decides.
        self.slaves_added = 0
        self.slaves_revoked = 0
        self.dollars_spent = 0.0
        burst: ClusterBurst | None = None
        burst_site: str | None = None
        if self.scale is not None:
            burst_site = self.scale_site or next(
                (s.name for s in active_sites if s.name != head),
                active_sites[0].name,
            )

        def scale_probe() -> dict:
            crews = [s for crew in slaves.values() for s in crew]
            if burst is not None:
                crews += burst.started
            workers = len(crews)
            waiting = sum(m.idle_slaves for m in masters.values())
            return {
                "jobs_total": len(jobs),
                "jobs_done": sum(s.metrics.jobs for s in crews),
                "pool_depth": sum(len(m.pool) for m in masters.values()),
                "in_flight": sum(m.pool.in_flight for m in masters.values()),
                "workers": workers,
                "workers_busy": max(0, workers - waiting),
            }

        def cluster_proc(name, site, crew, burst_):
            procs = [env.process(s.run(), name=f"slave:{s.worker_id}")
                     for s in crew]
            dynamics = burst_.launch() if burst_ is not None else []
            yield env.all_of(procs)
            if burst_ is not None:
                # The static crew drained, so the pool is dry: release
                # the never-provisioned gates, let provisioned slaves
                # exit at this same timestamp, and shut the ledger.
                burst_.close()
                yield env.all_of(dynamics)
                burst_.finalize(env.now)
                crew = crew + burst_.started
            processing_end[name] = env.now
            # Intra-cluster combine: a tree merge of the slaves' objects.
            # Streaming flushes fold slave partials during compute, so
            # only the final watermark's worth of merging remains once
            # the last slave finishes; the barrier pays the full tree.
            if spec.stream:
                yield env.timeout(compute.merge_seconds(robj_bytes))
            else:
                yield env.timeout(
                    compute.combine_seconds(robj_bytes, len(crew),
                                            site.intra_bandwidth)
                )
            combine_done[name] = env.now
            mark("combine_done", name)
            node = plan[name]
            if node.children:
                yield env.all_of([upload_events[c] for c in node.children])
                merge = compute.merge_seconds(robj_bytes)
                if spec.stream:
                    # Fold each child on arrival: the master thread is
                    # free while its slaves compute, so early arrivals
                    # cost nothing at the barrier.
                    busy = 0.0
                    for child in sorted(node.children, key=robj_arrival.__getitem__):
                        busy = max(busy, robj_arrival[child]) + merge
                        merged_at[child] = busy
                        mark("merge_done", child, at=busy)
                else:
                    busy = env.now
                    for child in node.children:
                        busy += merge
                        merged_at[child] = busy
                        mark("merge_done", child, at=busy)
                if busy > env.now:
                    yield env.timeout(busy - env.now)
            # Ship the (encoded) object up the aggregation plan; a plan
            # root's hop is to the head (off the WAN for the head's site).
            if node.parent is not None:
                yield robj_link(site.name, masters[node.parent].site).transfer(wire_bytes)
            elif multi_cluster:
                if site.name == head:
                    yield env.timeout(
                        config.lan_latency + wire_bytes / site.intra_bandwidth
                    )
                else:
                    yield robj_link(site.name, head).transfer(wire_bytes)
            robj_arrival[name] = env.now
            mark("robj_sent", name)
            if self.sync is not None:
                # Wake the parent or the head barrier. Without a spec no
                # one listens, and an unobserved event would still count
                # in ``events_processed``.
                upload_events[name].succeed()
            if node.parent is None and head_on_arrival:
                # The head merges an arriving root immediately, serialized.
                start = max(env.now, head_busy_until[0])
                finish = start + compute.merge_seconds(robj_bytes)
                head_busy_until[0] = finish
                yield env.timeout(finish - env.now)
                merged_at[name] = env.now
                mark("merge_done", name)

        cluster_procs = []
        worker_id = 0
        for site in active_sites:
            name = f"{site.name}-cluster"
            scheduler.register_cluster(name, site.name)
            # The pool's refill point scales with the slave count (capped)
            # so several files stay in flight at once — a pool sized well
            # below the slave count would serialize the whole cluster onto
            # a single file's chunk run — while staying shallow enough that
            # a slow cluster does not hoard jobs the other could steal.
            masters[name] = master = SimMaster(
                env, name, site.name, scheduler,
                control_rtt=2 * (
                    config.lan_latency if site.name == head
                    else config.control_latency
                ),
                low_water=max(config.tuning.pool_low_water,
                              min(site.cores // 2, 8)),
                group_size=config.tuning.job_group_size,
                trace=trace,
            )

            def make_slave(wid, site=site, master=master):
                return SimSlave(
                    env, wid, site.name, master, fetch, compute,
                    retrieval_threads=config.tuning.retrieval_threads,
                    trace=trace,
                )

            crew = slaves[name] = [
                make_slave(worker_id + i) for i in range(site.cores)
            ]
            worker_id += site.cores

            cluster_burst = None
            if site.name == burst_site:
                burst = cluster_burst = ClusterBurst(
                    env, master, self.scale,
                    initial=len(crew),
                    make_slave=make_slave,
                    next_worker_id=worker_id,
                    probe=scale_probe,
                    trace=trace,
                )
                worker_id = burst.next_worker_id
                for slave in crew:
                    burst.admit(slave)

            cluster_procs.append(
                env.process(
                    cluster_proc(name, site, crew, cluster_burst),
                    name=f"cluster:{name}",
                )
            )

        if not head_on_arrival:
            # Barrier global reduction: the head waits for every plan root
            # and merges them serially in plan order (as the runtime does).
            roots = plan_roots(plan)

            def head_barrier_proc():
                yield env.all_of([upload_events[r] for r in roots])
                finish = env.now
                for root in roots:
                    finish += compute.merge_seconds(robj_bytes)
                    merged_at[root] = finish
                    mark("merge_done", root, at=finish)
                yield env.timeout(finish - env.now)

            cluster_procs.append(
                env.process(head_barrier_proc(), name="head:barrier")
            )

        if self.static_assignment:
            # Deal the whole pool out round-robin before time starts, then
            # close every master's intake.
            names = list(masters)
            turn = 0
            while not scheduler.exhausted:
                group = scheduler.request_jobs(names[turn % len(names)])
                if group is None:
                    break
                masters[names[turn % len(names)]].preload(group)
                turn += 1
            for master in masters.values():
                master.close_intake()

        # The cache outlives the run in iterative use; report this pass's
        # delta, mirroring the executable driver's accounting.
        cache = self.cache
        cache_before = (
            (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        )

        env.run(env.all_of(cluster_procs))
        env.run()  # drain stragglers (acks in flight)

        if burst is not None:
            # Fold the dynamic slaves into the burst site's crew so the
            # report's jobs-processed invariant and per-cluster means
            # account for every worker that actually ran, and copy the
            # scaling ledger.
            slaves[f"{burst_site}-cluster"] += burst.started
            self.slaves_added = burst.slaves_added
            self.slaves_revoked = burst.slaves_revoked
            self.dollars_spent = burst.dollars_spent

        if scheduler.jobs_remaining != 0:
            raise SimulationError(
                f"simulation ended with {scheduler.jobs_remaining} jobs unassigned"
            )
        makespan = max(merged_at.values())
        last_processing = max(processing_end.values())
        clusters: dict[str, ClusterReport] = {}
        for name, crew in slaves.items():
            stats = scheduler.clusters[name]
            cluster = clusters[name] = ClusterReport.from_crew(
                name, masters[name].site,
                [(s.metrics.processing, s.metrics.retrieval, s.metrics.jobs)
                 for s in crew],
                jobs_stolen=stats.jobs_stolen, span=makespan,
                last_end=last_processing, processing_end=processing_end[name],
                combine_done=combine_done[name], robj_arrival=robj_arrival[name],
            )
            if cluster.jobs_processed != stats.jobs_assigned:
                raise SimulationError(
                    f"{name}: processed {cluster.jobs_processed} jobs but was "
                    f"assigned {stats.jobs_assigned}"
                )
        report = SimReport(
            experiment=config.name,
            app=config.app,
            makespan=makespan,
            # Table II's "global reduction": the elapsed time combining the
            # final object — the longest ship-and-merge span over clusters
            # (dominated by the WAN push when the object is large).
            global_reduction=max(
                merged_at[name] - combine_done[name] for name in merged_at
            ),
            clusters=clusters,
            events_processed=env.events_processed,
            faults_injected=self.faults_injected,
            slaves_added=self.slaves_added,
            slaves_revoked=self.slaves_revoked,
            dollars_spent=self.dollars_spent,
        )
        if cache is not None:
            report.cache_hits = cache.stats.hits - cache_before[0]
            report.cache_misses = cache.stats.misses - cache_before[1]
        report.validate()
        return report
