"""One front door for every execution path.

The repo grew three ways to execute an application — the serial oracle
(:func:`repro.core.api.run_serial`), the discrete-event simulator
(:class:`repro.sim.multisite.MultiSiteSimulation`), and the in-process
executable runtime (:class:`repro.runtime.driver.CloudBurstingRuntime`).
Each had its own setup ritual. :func:`run` collapses them behind one call:

.. code-block:: python

    import repro

    result = repro.run("wordcount", dataset, repro.RunConfig(mode="runtime"))
    print(result.value, result.telemetry.retries)

``mode`` selects the engine; everything else (placement, compute split,
tuning, fault injection, retry policy, observability hooks) lives on
:class:`RunConfig` and means the same thing in every mode that supports
it. The knobs are grouped into the option families of
:mod:`repro.options` (:class:`~repro.options.CacheOptions`,
:class:`~repro.options.MonitorOptions`,
:class:`~repro.options.ResilienceOptions`,
:class:`~repro.options.ScaleOptions`) and the sync path's own
:class:`~repro.core.sync.SyncSpec` — ``config.cache.bytes``,
``config.sync.encoding`` — and that is their only spelling.

:func:`run` executes on the caller's thread. A
:class:`repro.service.JobService` runs many submissions through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .apps import AppBundle, make_bundle
from .cache import ChunkCache
from .config import ComputeSpec, DatasetSpec, MiddlewareTuning, PlacementSpec
from .core.api import iterate_passes, run_serial
from .core.index import DataIndex
from .core.sync import SyncSpec
from .data import resident
from .data.dataset import DatasetReader, build_dataset
from .errors import ConfigurationError
from .obs.events import EventLog
from .obs.live import RunMonitor, RunSample
from .obs.record import RunTelemetry
from .options import (
    CacheOptions,
    MonitorOptions,
    ResilienceOptions,
    ScaleOptions,
)
from .resilience.faults import FaultInjector, FaultSpec
from .resilience.retry import RetryPolicy
from .runtime.driver import SLAVE_MODES, CloudBurstingRuntime
from .runtime.telemetry import read_ledger
from .sim.multisite import MultiSiteSimulation
from .sim.simulation import two_site_config
from .storage.base import StorageService
from .storage.objectstore import ObjectStore

__all__ = ["RunConfig", "RunResult", "run"]

#: The engines :func:`run` can drive.
MODES = ("serial", "simulate", "runtime")


@dataclass(frozen=True)
class RunConfig:
    """Everything about *how* to execute, independent of the app and data.

    * ``mode`` — ``"serial"`` (single-threaded oracle), ``"simulate"``
      (discrete-event model of the paper's testbed), or ``"runtime"``
      (real threads over real bytes);
    * ``placement`` / ``compute`` — the paper's two sites (local, the
      head's, and cloud): the runtime reads them as its site list, the
      simulator as :func:`~repro.sim.simulation.two_site_config`'s
      testbed; ``tuning`` / ``seed`` / ``name`` — the middleware knobs,
      the run's seed and its label;
    * ``trace`` — the observability hook (an event log) threaded through
      to whichever engine runs;
    * ``slave_mode`` — the runtime's slave substrate: ``"thread"`` (the
      original in-process slaves, default) or ``"process"`` (decode +
      local reduction in worker processes fed over shared memory —
      GIL-free compute for CPU-bound kernels). Serial and simulate
      modes ignore it;
    * ``iterations`` / ``converge`` — first-class iterative execution:
      run the app ``iterations`` passes, calling its ``update`` hook on
      each intermediate result (kmeans recenters, pagerank re-ranks), and
      stop early once consecutive results differ by at most ``converge``
      (max absolute difference for array results);
    * ``cache`` — a :class:`~repro.options.CacheOptions`: the per-node
      :class:`~repro.cache.ChunkCache` byte budget and the prefetch
      pipeline (runtime mode only for prefetch);
    * ``sync`` — a :class:`~repro.core.sync.SyncSpec`: the
      global-reduction WAN levers (:mod:`repro.core.sync`) — wire
      encoding/compression, aggregation topology, streaming partial
      merges, and the simulator's encoded-bytes ratio. The defaults
      reproduce the paper's star/dense/barrier path with zero machinery;
    * ``monitor`` — a :class:`~repro.options.MonitorOptions`: live
      run-health sampling (:mod:`repro.obs.live`) kept as a bounded ring
      of :class:`~repro.obs.live.RunSample` on ``RunResult.samples``.
      Runtime mode samples the live run on a thread; simulate mode
      samples the simulator's own state every ``interval`` of virtual
      time; serial mode never samples;
    * ``resilience`` — a :class:`~repro.options.ResilienceOptions`: fault
      injection (wraps every store in a
      :class:`~repro.resilience.FaultInjector`; simulate mode models
      ``latency``/``slow`` as extra virtual transfer time), the data-path
      :class:`~repro.resilience.RetryPolicy` (defaults to
      ``RetryPolicy()`` whenever faults are active), and the runtime's
      join deadline;
    * ``scale`` — a :class:`~repro.options.ScaleOptions`: elastic cloud
      bursting (:mod:`repro.scale`) — the deadline/budget autoscaler
      that grows and shrinks the cloud fleet mid-run, and the seeded
      spot-revocation model. Runtime mode attaches/retires real slave
      threads; simulate mode models the same controller with provision
      latency in virtual time; results stay bit-identical either way.

    ``app_params`` is forwarded to the application factory when the app is
    given as a registry key (e.g. ``{"k": 8}`` for knn).

    Construction validates each field; :meth:`validate` additionally
    cross-checks the combination for knobs that silently do nothing
    together (:meth:`repro.service.JobService.submit` always runs it).
    """

    mode: str = "runtime"
    placement: PlacementSpec = field(default_factory=lambda: PlacementSpec(0.5))
    compute: ComputeSpec = field(
        default_factory=lambda: ComputeSpec(local_cores=2, cloud_cores=2)
    )
    tuning: MiddlewareTuning = field(default_factory=MiddlewareTuning)
    seed: int = 2011
    name: str = "adhoc"
    trace: EventLog | None = None
    app_params: Mapping[str, Any] = field(default_factory=dict)
    slave_mode: str = "thread"
    iterations: int = 1
    converge: float | None = None
    cache: CacheOptions = field(default_factory=CacheOptions)
    sync: SyncSpec = field(default_factory=SyncSpec)
    monitor: MonitorOptions = field(default_factory=MonitorOptions)
    resilience: ResilienceOptions = field(default_factory=ResilienceOptions)
    scale: ScaleOptions = field(default_factory=ScaleOptions)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown run mode {self.mode!r}; expected one of {MODES}"
            )
        if self.slave_mode not in SLAVE_MODES:
            raise ConfigurationError(
                f"unknown slave_mode {self.slave_mode!r}; "
                f"expected one of {SLAVE_MODES}"
            )
        if self.iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        if self.converge is not None and self.converge < 0:
            raise ConfigurationError("converge tolerance cannot be negative")

    def validate(self) -> "RunConfig":
        """Cross-check the knob *combination*, failing fast and actionably.

        Construction already rejects individually-invalid values (negative
        budgets, unknown modes); this catches configurations where every
        knob is legal but the combination silently does nothing or would
        only fail deep inside an engine. :meth:`repro.service.JobService.submit`
        always calls it; :func:`run` does not.
        Returns ``self`` so it chains: ``run(app, data, config.validate())``.
        """
        problems: list[str] = []
        if self.cache.prefetch and self.mode != "runtime":
            problems.append(
                f"cache.prefetch=True does nothing in {self.mode!r} mode — only "
                f"the runtime overlaps fetch with reduction; drop it or use "
                f"mode='runtime'"
            )
        if self.cache.prefetch and self.cache.bytes == 0:
            problems.append(
                "cache.prefetch=True with cache.bytes=0 builds no cache to "
                "prefetch into; set cache=CacheOptions(bytes=..., prefetch=True) "
                "or drop prefetch"
            )
        if self.sync != SyncSpec() and self.mode == "serial":
            problems.append(
                "sync options configure the distributed global reduction; "
                "serial mode has no masters to aggregate through and ignores "
                "them — drop the sync options or use mode='runtime'/'simulate'"
            )
        if self.sync.sim_ratio != 1.0 and self.mode == "runtime":
            problems.append(
                "sync.sim_ratio models encoded-upload bytes in the simulator "
                "only; the runtime measures real encoded bytes — drop "
                "SyncSpec(sim_ratio=...) or use mode='simulate'"
            )
        if (
            self.sync.stream
            and self.sync.topology == "star"
            and self.sync.encoding == "dense"
            and self.sync.compress == "none"
        ):
            problems.append(
                "sync.stream=True with every other sync knob at the "
                "star/dense defaults streams partials through the paper's "
                "all-to-head trunk; pair it with sync=SyncSpec(stream=True,"
                " topology='tree') or an encoding/compress choice, or drop it"
            )
        if self.monitor.enabled and self.mode == "serial":
            problems.append(
                "monitor.interval > 0 in serial mode takes no samples — "
                "there is no cluster to watch; drop the monitor options or "
                "use mode='runtime'/'simulate'"
            )
        if self.converge is not None and self.iterations == 1:
            problems.append(
                "converge is only checked between passes; iterations=1 never "
                "checks it — raise iterations or drop converge"
            )
        if self.resilience.retry is not None and self.mode == "simulate":
            problems.append(
                "retry policies govern real read paths; the simulator models "
                "latency/slow degradations but never retries — drop retry or "
                "use mode='runtime'/'serial'"
            )
        if self.slave_mode == "process" and self.mode != "runtime":
            problems.append(
                f"slave_mode='process' selects the runtime's shared-memory "
                f"substrate and does nothing in {self.mode!r} mode; drop it "
                f"or use mode='runtime'"
            )
        if self.scale.enabled and self.mode == "serial":
            problems.append(
                "autoscale/revocation manage a cloud slave fleet; serial "
                "mode has no slaves — drop scale=ScaleOptions(...) or use "
                "mode='runtime'/'simulate'"
            )
        if self.scale.enabled and self.compute.cloud_cores < 1:
            problems.append(
                "autoscale/revocation act on the cloud cluster, but "
                "compute.cloud_cores=0 builds none; give the cloud at least "
                "one core or drop the scale options"
            )
        if (
            self.scale.deadline is not None or self.scale.budget is not None
        ) and not self.scale.autoscale:
            problems.append(
                "deadline/budget are autoscaler targets; set "
                "scale=ScaleOptions(autoscale=True, ...) for them to steer "
                "anything"
            )
        if problems:
            raise ConfigurationError(
                "conflicting RunConfig knobs:\n  - " + "\n  - ".join(problems)
            )
        return self

    def make_cache(self) -> ChunkCache | None:
        """Build the configured chunk cache, or ``None`` when disabled."""
        if self.cache.bytes <= 0:
            return None
        return ChunkCache(self.cache.bytes, trace=self.trace)

    @property
    def fault_spec(self) -> FaultSpec | None:
        """The parsed fault spec, or ``None`` when no faults are configured."""
        spec = self.resilience.faults
        if spec is None or not spec.active:
            return None
        return spec

    @property
    def effective_retry(self) -> RetryPolicy | None:
        """The retry policy actually applied: the configured one, or the
        default policy when faults are active and none was given."""
        if self.resilience.retry is not None:
            return self.resilience.retry
        if self.fault_spec is not None:
            return RetryPolicy()
        return None


@dataclass
class RunResult:
    """Common result shape across every mode.

    ``value`` is the application result (``None`` in simulate mode — the
    simulator models costs, not bytes). ``telemetry`` is the run's
    :class:`~repro.obs.record.RunTelemetry` in every mode, folded over
    the passes. ``wall_seconds`` is measured wall-clock for executable
    modes and the simulated makespan for simulate mode, summed over every
    pass (the telemetry's ``makespan`` is the last pass's).
    ``passes`` counts the passes actually run (< ``config.iterations``
    when ``converge`` stopped the run early). ``samples`` is the run's
    health timeline — :class:`~repro.obs.live.RunSample` snapshots taken
    every ``config.monitor.interval`` seconds — empty unless monitoring
    was enabled (runtime samples live, simulate in virtual time, serial
    never samples); each pass's times start at 0.
    """

    value: Any
    mode: str
    wall_seconds: float
    telemetry: RunTelemetry | None = None
    passes: int = 1
    samples: list[RunSample] = field(default_factory=list)


def _resolve_bundle(
    app: str | AppBundle, dataset: DatasetSpec, config: RunConfig
) -> AppBundle:
    if isinstance(app, AppBundle):
        return app
    return make_bundle(
        app, dataset.total_units, seed=config.seed, **dict(config.app_params)
    )


def _build_stores(
    app: str | AppBundle,
    bundle: AppBundle,
    dataset: DatasetSpec,
    config: RunConfig,
) -> tuple[DataIndex, dict[str, StorageService]]:
    """Materialize the dataset into in-memory stores: fresh ones, or, inside
    a :class:`~repro.service.JobService`, the ones its resident pool already
    holds for the same bytes (a registry key, its params and seed fix them;
    a pre-built bundle is opaque and always builds)."""

    def build() -> tuple[DataIndex, dict[str, StorageService]]:
        placement = config.placement.sites(dataset.num_files)
        stores: dict[str, StorageService] = {
            site: ObjectStore() for site, _ in placement
        }
        index = build_dataset(
            dataset, placement, bundle.schema, bundle.block_fn, stores
        )
        return index, stores

    pool = resident.current()
    if pool is None or not isinstance(app, str):
        return build()
    key = (app, dataset, config.placement, config.seed,
           tuple(sorted(config.app_params.items())))
    return pool.get(key, build, dataset.total_bytes)


def _inject_faults(
    stores: Mapping[str, StorageService], config: RunConfig
) -> Mapping[str, StorageService]:
    """Wrap every store in a :class:`FaultInjector` when the config carries
    an active fault spec (faults only ever hit the read path, so the
    dataset is written through the clean stores first)."""
    spec = config.fault_spec
    if spec is None:
        return stores
    return {
        site: FaultInjector(store, spec, trace=config.trace)
        for site, store in stores.items()
    }


def _iterate(
    bundle: AppBundle, config: RunConfig, run_pass: Callable[[], Any]
) -> tuple[Any, int]:
    """Run ``config.iterations`` passes of ``run_pass`` through the shared
    loop, feeding results back through the app's ``update`` hook (required
    once iterating). Returns ``(final_value, passes_run)``."""
    if config.iterations == 1:
        # A single pass feeds nothing back and leaves the app as it was.
        return run_pass(), 1
    update = getattr(bundle.app, "update", None)
    if update is None:
        raise ConfigurationError(
            f"app {bundle.profile.key!r} has no update() hook; iterative "
            f"execution (iterations={config.iterations}) needs one to feed "
            f"each pass's result back (kmeans and pagerank define it)"
        )
    return iterate_passes(
        run_pass, update, iterations=config.iterations, tolerance=config.converge
    )


def _run_serial(
    app: str | AppBundle, dataset: DatasetSpec, config: RunConfig
) -> RunResult:
    bundle = _resolve_bundle(app, dataset, config)
    index, stores = _build_stores(app, bundle, dataset, config)
    stores = _inject_faults(stores, config)
    cache = config.make_cache()
    reader = DatasetReader(
        index,
        stores,
        retrieval_threads=1,
        trace=config.trace,
        retry=config.effective_retry,
        cache=cache,
    )
    # The cache only engages for cross-site reads; the serial oracle has no
    # home site, so give it the head's whenever a cache is configured —
    # chunks placed elsewhere then count as remote and get cached like the
    # runtime's head-site cluster would cache them.
    from_site = config.compute.sites[0][0] if cache is not None else None

    def run_pass() -> Any:
        return run_serial(
            bundle.app,
            reader.read_all_chunks(from_site=from_site),
            units_per_group=config.tuning.units_per_group,
        )

    started = time.perf_counter()
    value, passes = _iterate(bundle, config, run_pass)
    wall = time.perf_counter() - started
    # One reader, fresh injectors and cache: the cumulative ledger is the run.
    telemetry = RunTelemetry(makespan=wall, **read_ledger(reader, stores, cache))
    return RunResult(
        value=value,
        mode="serial",
        wall_seconds=wall,
        telemetry=telemetry,
        passes=passes,
    )


def _run_simulate(
    app: str | AppBundle, dataset: DatasetSpec, config: RunConfig
) -> RunResult:
    key = app if isinstance(app, str) else app.profile.key
    profile = None if isinstance(app, str) else app.profile
    # The simulator models costs, not bytes: an iterative run is N passes
    # over the same placement with the chunk cache carried across passes
    # (pass 2 of a cached run pays no cross-site transfers). There is no
    # value to feed back, so no update() hook is involved. The simulator
    # records the cache's events itself, in virtual time.
    monitor = _make_monitor(config)
    sim = MultiSiteSimulation(
        two_site_config(key, dataset, config, profile=profile),
        profile=profile,
        trace=config.trace,
        cache=ChunkCache(config.cache.bytes) if config.cache.bytes > 0 else None,
        sync=config.sync,
        faults=config.fault_spec,
        scale=config.scale,
        monitor=monitor,
    )
    reports = [sim.run() for _ in range(config.iterations)]
    return RunResult(
        value=None,
        mode="simulate",
        wall_seconds=sum(report.makespan for report in reports),
        telemetry=RunTelemetry.fold(reports),
        passes=config.iterations,
        samples=monitor.samples() if monitor is not None else [],
    )


def _make_monitor(config: RunConfig) -> RunMonitor | None:
    """The run's monitor, or ``None`` when monitoring is off."""
    if not config.monitor.enabled:
        return None
    monitor = RunMonitor(config.monitor.interval, capacity=config.monitor.capacity)
    if config.monitor.on_sample is not None:
        monitor.subscribe(config.monitor.on_sample)
    return monitor


def _run_runtime(
    app: str | AppBundle, dataset: DatasetSpec, config: RunConfig
) -> RunResult:
    bundle = _resolve_bundle(app, dataset, config)
    index, stores = _build_stores(app, bundle, dataset, config)
    return execute_runtime(bundle, index, stores, config)


def execute_runtime(
    bundle: AppBundle,
    index: DataIndex,
    stores: Mapping[str, StorageService],
    config: RunConfig,
) -> RunResult:
    """Execute ``config`` on the threaded runtime over an already
    materialized dataset — the half of runtime mode that ``repro run``
    shares (its dataset lives on disk, not in fresh in-memory stores).
    The runtime, and a process-mode worker pool with it, is closed on
    every way out."""
    monitor = _make_monitor(config)
    with CloudBurstingRuntime(
        bundle.app,
        index,
        _inject_faults(stores, config),
        config.compute,
        tuning=config.tuning,
        seed=config.seed,
        trace=config.trace,
        join_timeout=config.resilience.join_timeout,
        retry_policy=config.effective_retry,
        cache=config.make_cache(),
        prefetch=config.cache.prefetch,
        sync=config.sync,
        monitor=monitor,
        slave_mode=config.slave_mode,
        scale=config.scale,
    ) as runtime:
        per_pass: list[RunTelemetry] = []

        def run_pass() -> Any:
            result = runtime.run()
            per_pass.append(result.telemetry)
            return result.value

        value, passes = _iterate(bundle, config, run_pass)
    return RunResult(
        value=value,
        mode="runtime",
        wall_seconds=sum(t.makespan for t in per_pass),
        telemetry=RunTelemetry.fold(per_pass),
        passes=passes,
        samples=monitor.samples() if monitor is not None else [],
    )


_ENGINES = {
    "serial": _run_serial,
    "simulate": _run_simulate,
    "runtime": _run_runtime,
}


def run(
    app: str | AppBundle,
    dataset: DatasetSpec,
    config: RunConfig | None = None,
) -> RunResult:
    """Execute ``app`` over ``dataset`` with the engine ``config`` selects.

    ``app`` is a registry key (``"knn"``, ``"wordcount"``, ...) or a
    pre-built :class:`~repro.apps.AppBundle`. ``dataset`` gives the data
    shape; serial and runtime modes materialize it into in-memory stores
    (deterministically from ``config.seed``), simulate mode only models
    it. With no config, a 50/50 placement runtime run on 2+2 cores.

    The run executes on the caller's thread. ``config`` is taken as given:
    knobs another mode ignores stay ignored; call ``config.validate()``
    for the strict check :meth:`repro.service.JobService.submit` runs.
    A service's workers execute each submission through this function.
    """
    config = config or RunConfig()
    return _ENGINES[config.mode](app, dataset, config)


#: The name ``benchmarks/e2e/workloads.py`` imports; the same function.
run_direct = run
