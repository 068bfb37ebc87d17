"""The simulation engine: cloud bursting across any number of sites.

Section II: "our solution will also be applicable if the data and/or
processing power is spread across two different cloud providers." This
module is the one run loop: any number of sites, each with its own
compute pool, storage service, compute-speed factor, jitter model, and
cross-site network paths. The paper's campus + AWS testbed is its
two-site configuration (:func:`repro.sim.simulation.two_site_config`
builds it). The scheduling policy
(:class:`~repro.core.scheduler.HeadScheduler`) handles N clusters
unchanged — which is itself evidence for the paper's claim.

Configuration pieces:

* :class:`SiteSpec` — one provider/site: cores, hosted file count, the
  storage path its own slaves use, a compute-slowdown factor, jitter;
* :class:`CrossPath` — the network path a slave at ``dst`` uses to fetch
  chunks stored at ``src``;
* :class:`MultiSiteConfig` — sites + paths + dataset shape + head site.
  Its ``compute`` and ``placement`` pairs, the head's site first, are
  the site list the executable runtime and ``build_dataset`` take too,
  so any configuration also runs for real.

A run instantiates one head, one master plus one slave per active core
at each site, runs the job pool dry, performs the two-level reduction,
and returns a :class:`~repro.obs.record.RunTelemetry` keyed by site-named
clusters. The reduction is the runtime's own head and master cores
(:mod:`repro.sim.simnodes`) over real, tiny objects; what follows are
the costs the simulator charges for its phases (Section III-B):

1. every slave folds its chunks into its own reduction object (its cost
   is inside processing time);
2. when a cluster's slaves all finish, the master tree-combines their
   objects over the intra-cluster fabric, then merges its children's
   uploads in a tree;
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
from ..core.index import DataIndex, build_index
from ..core.job import Job
from ..core.head import HeadCore
from ..core.layout import lay_out
from ..core.messages import JobReply, JobRequest, SlaveAttach
from ..core.scheduler import HeadScheduler
from ..core.sync import SyncCodec, SyncSpec
from ..cluster.variability import LOCAL_VARIABILITY, VariabilityModel
from ..errors import ConfigurationError, SimulationError
from ..obs.live import RunMonitor, run_probe
from ..obs.record import RunTelemetry, pass_record
from ..scale.burst import FleetManager
from ..units import MB
from .computemodel import ComputeModel
from .engine import Environment, Event
from .linkmodel import FairShareLink
from .simnodes import SimHead, SimMaster, SimSlave
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

    @property
    def compute(self) -> tuple[tuple[str, int], ...]:
        """``(site, cores)`` per site, the head's first and the rest in
        declaration order: the site list the runtime takes."""
        return tuple((s.name, s.cores) for s in self._head_first())

    @property
    def placement(self) -> tuple[tuple[str, int], ...]:
        """``(site, files)`` per site in :attr:`compute`'s order: the
        placement ``build_dataset`` and :meth:`build_index` take."""
        return tuple((s.name, s.data_files) for s in self._head_first())

    def _head_first(self) -> list[SiteSpec]:
        return sorted(self.sites, key=lambda site: site.name != self.head)

    def build_index(self) -> DataIndex:
        """Prefix placement across the sites, in :attr:`placement` order."""
        return build_index(self.dataset, self.placement)


#: The keys :func:`load_multisite_config` reads, per object.
_TOP_KEYS = {
    "name", "app", "head_site", "seed", "dataset", "sites", "cross_paths",
    "control_latency", "robj_flow_rate", "head_ingress_bandwidth",
}
_SITE_KEYS = {
    "name", "cores", "data_files", "storage", "compute_slowdown",
    "intra_bandwidth",
}
_CROSS_KEYS = {"src", "dst", "path"}
_PATH_KEYS = {
    "bandwidth", "per_connection_cap", "request_latency",
    "file_service_cap", "seek_time", "random_penalty",
}


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

    def known(where: str, fields: dict, allowed: set[str]) -> None:
        unknown = set(fields) - allowed
        if unknown:
            raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")

    def build_path(name: str, fields: dict) -> StorePath:
        known(f"path {name!r}", fields, _PATH_KEYS)
        return StorePath(name=name, **fields)

    try:
        known("multisite config", doc, _TOP_KEYS)
        for s in doc["sites"]:
            known(f"site {s['name']!r}", s, _SITE_KEYS)
        for c in doc.get("cross_paths", ()):
            known(f"cross path {c['src']!r} -> {c['dst']!r}", c, _CROSS_KEYS)
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


class MultiSiteSimulation:
    """Simulate one N-site experiment."""

    def __init__(
        self,
        config: MultiSiteConfig,
        profile: AppProfile | None = None,
        trace: "EventLog | None" = None,
        sync: SyncSpec | None = None,
        scale: "ScaleOptions | None" = None,
        *,
        cache: "ChunkCache | None" = None,
        faults: "FaultSpec | None" = None,
        static_assignment: bool = False,
        monitor: RunMonitor | None = None,
    ) -> None:
        self.config = config
        self.profile = profile or get_profile(config.app)
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
        #: run through the runtime's head and master cores over the same
        #: :func:`~repro.core.layout.lay_out`; ``None`` is the default spec.
        #: Encoded uploads are charged ``robj_bytes * sim_ratio`` on the
        #: wire (merge cost stays dense: decoding restores the full object).
        self.sync = sync or SyncSpec()
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
        #: Elastic bursting (:mod:`repro.scale`), as the runtime does it:
        #: the layout's burst cluster (the first active site's that is not
        #: the head's) has its master core roll the seeded spot die, and
        #: with ``autoscale`` on gains the
        #: runtime's :class:`~repro.scale.burst.FleetManager`, whose bought
        #: slaves join after ``provision_seconds`` of virtual time. With no
        #: such site, or a disabled spec, none of the machinery is built.
        self.scale = scale if scale is not None and scale.enabled else None
        #: Live run-health sampling (:class:`~repro.obs.live.RunMonitor`),
        #: as the runtime takes it: each :meth:`run` binds it to a probe
        #: over the pass's nodes and one simulation process samples it
        #: every ``interval`` of virtual time, times restarting at 0, then
        #: once more at the makespan.
        self.monitor = monitor
        #: Faults applied in the last :meth:`run` (also on the report).
        self.faults_injected = 0
        #: Cross-site fetches the last :meth:`run` sent over the network
        #: (a cache hit sends none), as ``DatasetReader`` counts them.
        self.remote_fetches = 0
        #: The last run's :class:`~repro.sim.simnodes.SimHead`: its core
        #: holds the global object and the coverage it took.
        self.head: SimHead | None = None

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
            remote = job.site != slave_site
            if cache is not None and remote:
                key = (job.file_id, job.chunk_index)
                hit = cache.get(key) is not None
                if self.trace is not None:
                    self.trace.record(
                        env.now, "cache_hit" if hit else "cache_miss",
                        job_id=job.job_id, file_id=job.file_id,
                    )
                if hit:
                    return env.timeout(0.0)
                cache.put(key, True, job.nbytes)
            if remote:
                self.remote_fetches += 1
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

    def _fleet(self, env, master, make_slave, ids, procs, joined):
        """The burst cluster's :class:`~repro.scale.burst.FleetManager`:
        a bought slave joins ``provision_seconds`` of virtual time after
        the decision (into ``joined``), unless the run ended meanwhile.
        Each spare runs behind its gate. A drain watch over ``procs``, the
        static crew's processes, closes the fleet once every slave that
        joined has left: it releases the never-provisioned gates, so the
        watch's ``all_of`` completes (a fleet that never burst costs
        nothing), and shuts the ledger at the drain, not at the sampler's
        next tick."""
        # The lag applies whether or not spot instances are also revoked.
        revocation = self.scale.revocation
        delay = revocation.provision_seconds if revocation is not None else 0.0
        closed = env.event()

        def provision(slave):
            yield env.timeout(delay)
            if fleet.done:
                # The run ended while the instance was booting: money
                # already accrued for the order, but the slave never joins.
                return
            joined.append(slave)
            master.step(SlaveAttach((slave,)))

        def gated(slave):
            yield env.any_of([slave.gate, closed])
            if slave.gate.triggered:  # not closed before it was provisioned
                yield from slave.run()

        def drain(gates):
            # The static crew can leave first (retired or revoked), but the
            # core never lets its last active slave go before the pool is
            # dry.
            yield env.all_of(procs)
            while not master.core.run_over:
                yield env.all_of([gates[slave] for slave in joined])
            closed.succeed()
            yield env.all_of(list(gates.values()))
            fleet.close(env.now)

        fleet = FleetManager(
            self.scale, master, make_slave, ids, self.monitor,
            deliver=master.step,
            join=lambda slave: env.process(
                provision(slave), name=f"provision:{slave.slave_id}"
            ),
        )
        gates = {
            slave: env.process(gated(slave), name=f"burst:{slave.slave_id}")
            for slave in fleet.spares
        }
        env.process(drain(gates), name=f"drain:{master.name}")
        return fleet

    def run(self) -> RunTelemetry:
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
            site_slowdowns={s.name: s.compute_slowdown for s in config.sites},
        )
        jobs = config.build_index().jobs()
        scheduler = HeadScheduler(jobs, config.tuning, seed=config.seed)
        self.faults_injected = self.remote_fetches = 0
        fetch = self._fetch_fn(env)

        head_site = config.head
        cross_bandwidth = {
            (c.src, c.dst): c.path.bandwidth for c in config.cross_paths
        }
        robj_links: dict[tuple[str, str], FairShareLink] = {}

        def robj_link(src: str, dst: str) -> FairShareLink:
            """The link a reduction object rides from ``src`` to ``dst``,
            built on first use from the cross paths."""
            if dst == head_site and config.head_ingress_bandwidth is not None:
                # Shared trunk into the head site: every reduction-object
                # upload bound for the head fair-shares it when configured.
                key, bandwidth = ("*", head_site), config.head_ingress_bandwidth
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

        # The runtime's head and master cores run the global reduction
        # (who ships when, what covers what, and the merge order) over the
        # runtime's layout.
        spec = self.sync
        layout = lay_out(config.compute, head_site, spec, self.scale)
        multi_cluster = len(layout.slots) > 1
        robj_bytes = self.profile.robj_bytes
        codec = SyncCodec(spec)
        head = self.head = SimHead(
            env,
            HeadCore(
                scheduler, layout.names, roots=layout.roots,
                codec=codec, stream=spec.stream,
            ),
            merge_seconds=compute.merge_seconds(robj_bytes),
            trace=trace,
        )
        if trace is not None:
            scheduler.trace = head  # steal events, stamped at ``env.now``
        wire_bytes = robj_bytes * spec.sim_ratio
        sites = {s.name: s for s in config.sites}

        def uplink(master: SimMaster) -> Event | None:
            """The hop ``master``'s object rides up the plan: to its parent
            master's site, or to the head — over the WAN from another site
            (a lone cluster's too), off it and unencoded (dense bytes) from
            the head's own site, and none at all for a lone cluster there."""
            if master.parent is not head:
                return robj_link(master.site, master.parent.site).transfer(wire_bytes)
            if master.cross_site:
                return robj_link(master.site, head_site).transfer(wire_bytes)
            if not multi_cluster:
                return None
            return env.timeout(
                config.lan_latency + robj_bytes / sites[master.site].intra_bandwidth
            )

        masters: dict[str, SimMaster] = {}
        slaves: dict[str, list[SimSlave]] = {}
        fleet: FleetManager | None = None
        joined: list[SimSlave] = []  # the bought slaves that joined

        # The cache outlives the run in iterative use; report this pass's
        # delta, mirroring the executable driver's accounting.
        cache = self.cache
        cache_before = (
            (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        )

        for slot in layout.slots:
            site = sites[slot.site]
            scheduler.register_cluster(slot.name, slot.site)
            masters[slot.name] = master = SimMaster(
                head, slot.name, slot.site,
                control_rtt=2 * (
                    config.lan_latency if slot.site == head_site
                    else config.control_latency
                ),
                cores=slot.cores,
                tuning=config.tuning,
                children=slot.children,
                codec=codec,
                combine_seconds=lambda n, site=site: compute.combine_seconds(
                    robj_bytes, n, site.intra_bandwidth
                ),
                uplink=uplink,
                cross_site=slot.cross_site,
                revocation=slot.revocation,
            )
            if slot.parent is not None:  # built before its children
                master.parent = masters[slot.parent]

            def make_slave(wid, master=master):
                return SimSlave(
                    wid, master, fetch, compute,
                    retrieval_threads=config.tuning.retrieval_threads,
                )

            crew = slaves[slot.name] = [make_slave(wid) for wid in slot.slave_ids]
            procs = [
                env.process(s.run(), name=f"slave:{s.slave_id}") for s in crew
            ]
            if slot is layout.burst and self.scale.autoscale:
                fleet = self._fleet(
                    env, master, make_slave, layout.spares, procs, joined
                )

        if self.static_assignment:
            # Deal the whole pool out round-robin before time starts. Each
            # master hears "no more jobs" first, so it never asks the head.
            names = list(masters)
            for master in masters.values():
                master.step(JobReply(None))
            turn = 0
            while not scheduler.exhausted:
                master = masters[names[turn % len(names)]]
                head.step(JobRequest(master.name, reply_to=master))
                turn += 1

        monitor = fleet.monitor if fleet is not None else self.monitor
        private = fleet is not None and fleet.private

        def sampler():
            # Free-running: its ticks never stretch the makespan. The
            # caller's monitor samples while anything else is scheduled;
            # a private one feeds only the autoscaler and stops with it.
            while True:
                yield env.timeout(monitor.interval)
                if fleet.done if private else env.peek() == float("inf"):
                    return
                monitor.sample_now(at=env.now)

        if monitor is not None:
            monitor.bind(
                run_probe(
                    len(jobs), scheduler,
                    [m.core for m in masters.values()],
                    [s.core for crew in slaves.values() for s in crew]
                    + [s.core for s in (fleet.spares if fleet is not None else ())],
                    reader=self, codec=codec, cache=cache,
                )
            )
            env.process(sampler(), name="run-monitor")
        try:
            env.run()
        finally:
            if fleet is not None:
                fleet.leave()

        if scheduler.jobs_remaining != 0:
            raise SimulationError(
                f"simulation ended with {scheduler.jobs_remaining} jobs unassigned"
            )
        units = sum(job.num_units for job in jobs)
        merged = head.core.merged.value() if head.core.finished else None
        if merged != units:
            raise SimulationError(
                f"the global reduction folded {merged} units, not the "
                f"dataset's {units}"
            )
        makespan = head.busy_until
        if self.monitor is not None:
            self.monitor.sample_now(at=makespan)  # the closing sample
        if fleet is not None:
            # Fold the bought slaves into the burst site's crew so the
            # report's jobs-processed invariant and per-cluster means
            # account for every worker that actually ran.
            slaves[layout.burst.name] += joined
        record = pass_record(
            head, masters.values(),
            {name: [s.core for s in crew] for name, crew in slaves.items()},
            scheduler, span=makespan,
        )
        clusters = record["clusters"]
        for name, cluster in clusters.items():
            stats = scheduler.clusters[name]
            # A revoked slave's jobs ran twice: once into its lost object.
            reexecuted = masters[name].core.jobs_reexecuted
            if cluster.jobs_processed != stats.jobs_assigned + reexecuted:
                raise SimulationError(
                    f"{name}: processed {cluster.jobs_processed} jobs but was "
                    f"assigned {stats.jobs_assigned} and re-executed {reexecuted}"
                )
        report = RunTelemetry(
            experiment=config.name,
            app=config.app,
            makespan=makespan,
            # Table II's "global reduction": the longest ship span over
            # clusters (dominated by the WAN push when the object is
            # large) plus the head's own merge after the last root lands.
            # A cluster's wait at the head barrier is its idle time.
            global_reduction=max(
                c.robj_arrival - c.combine_done for c in clusters.values()
            ) + makespan - max(head.core.arrivals.values()),
            events_processed=env.events_processed,
            faults_injected=self.faults_injected,
            dollars_spent=(
                fleet.controller.dollars_spent if fleet is not None else 0.0
            ),
            **record,
        )
        if cache is not None:
            report.cache_hits = cache.stats.hits - cache_before[0]
            report.cache_misses = cache.stats.misses - cache_before[1]
        report.validate()
        return report
