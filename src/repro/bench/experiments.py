"""Experiment runners: one per paper artifact, each for one application.

Each runner simulates the relevant configurations through
:func:`repro.run` (a configuration is a ``(dataset, RunConfig)`` pair)
and returns a structured result that
:mod:`repro.bench.artifacts` renders and grades. ``scale`` < 1 shrinks
chunk sizes (same 960-job structure) for smoke tests; a simulated
configuration takes about half a second at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..apps.base import AppProfile, get_profile
from ..cluster.variability import VariabilityModel
from ..config import CLOUD_SITE, LOCAL_SITE, MiddlewareTuning, PlacementSpec
from ..errors import ConfigurationError
from ..facade import run
from ..obs.record import RunTelemetry
from ..sim.calibration import PAPER_CALIBRATION
from ..sim.multisite import MultiSiteSimulation
from ..sim.simulation import two_site_config
from .cost import CostBreakdown, price_run
from .configs import (
    HYBRID_ENVS,
    PaperConfig,
    env_config,
    figure3_configs,
    figure4_configs,
)

__all__ = [
    "Figure3Run",
    "Figure4Run",
    "run_figure3",
    "run_figure4",
    "table1_rows",
    "table2_rows",
    "mean_hybrid_slowdown",
    "run_skew_sweep",
    "run_iterative_projection",
    "run_stealing_ablation",
    "run_scheduling_ablation",
    "run_retrieval_ablation",
    "run_robj_ablation",
    "run_loadbalance_ablation",
]

PAPER_APPS = ("knn", "kmeans", "pagerank")


def _cluster_by_site(report: RunTelemetry, site: str):
    for cluster in report.clusters.values():
        if cluster.site == site:
            return cluster
    return None


@dataclass
class Figure3Run:
    """All five environments of Figure 3 for one application."""

    app: str
    reports: dict[str, RunTelemetry] = field(default_factory=dict)
    configs: dict[str, PaperConfig] = field(default_factory=dict)

    @property
    def baseline(self) -> RunTelemetry:
        return self.reports["env-local"]

    def slowdown_seconds(self, env: str) -> float:
        """Table II 'total slowdown' in seconds against env-local."""
        return self.reports[env].makespan - self.baseline.makespan

    def slowdown_ratio(self, env: str) -> float:
        """Fractional slowdown against env-local's makespan."""
        return self.slowdown_seconds(env) / self.baseline.makespan

    def bills(self) -> dict[str, CostBreakdown]:
        """Each environment's run priced under the 2011 AWS tariff."""
        return {env: price_run(self.app, *self.configs[env], report)
                for env, report in self.reports.items()}


@dataclass
class Figure4Run:
    """The scalability ladder of Figure 4 for one application."""

    app: str
    reports: dict[str, RunTelemetry] = field(default_factory=dict)  # ladder order

    def makespans(self) -> list[float]:
        return [report.makespan for report in self.reports.values()]

    def speedups(self) -> list[float]:
        """Percent speedup at each doubling, in ladder order."""
        m = self.makespans()
        return [(prev / cur - 1.0) * 100.0 for prev, cur in zip(m, m[1:])]


def _simulate(app: str, config: PaperConfig) -> RunTelemetry:
    return run(app, *config).telemetry


def run_figure3(app: str, *, scale: float = 1.0, seed: int = 2011) -> Figure3Run:
    """Simulate the five env-* configurations for one application."""
    configs = figure3_configs(app, scale=scale, seed=seed)
    return Figure3Run(
        app,
        {env: _simulate(app, config) for env, config in configs.items()},
        configs,
    )


def run_figure4(app: str, *, scale: float = 1.0, seed: int = 2011) -> Figure4Run:
    """Simulate the scalability ladder (all data in S3) for one app."""
    configs = figure4_configs(app, scale=scale, seed=seed)
    return Figure4Run(
        app, {name: _simulate(app, config) for name, config in configs.items()}
    )


# -- table extraction ---------------------------------------------------------


def table1_rows(run: Figure3Run) -> list[dict]:
    """Table I rows (jobs processed / stolen) from a Figure-3 run."""
    rows = []
    for env in HYBRID_ENVS:
        report = run.reports[env]
        ec2 = _cluster_by_site(report, CLOUD_SITE)
        local = _cluster_by_site(report, LOCAL_SITE)
        rows.append(
            {
                "app": run.app,
                "env": env,
                "ec2_jobs": ec2.jobs_processed if ec2 else 0,
                "local_jobs": local.jobs_processed if local else 0,
                "stolen": local.jobs_stolen if local else 0,
            }
        )
    return rows


def table2_rows(run: Figure3Run) -> list[dict]:
    """Table II rows (global reduction / idle / slowdown) from a run."""
    rows = []
    for env in HYBRID_ENVS:
        report = run.reports[env]
        ec2 = _cluster_by_site(report, CLOUD_SITE)
        local = _cluster_by_site(report, LOCAL_SITE)
        rows.append(
            {
                "app": run.app,
                "env": env,
                "global_reduction": report.global_reduction,
                "idle_local": local.idle if local else 0.0,
                "idle_ec2": ec2.idle if ec2 else 0.0,
                "total_slowdown": run.slowdown_seconds(env),
            }
        )
    return rows


def mean_hybrid_slowdown(runs: dict[str, Figure3Run]) -> float:
    """The paper's headline: average slowdown ratio over the 9 hybrid runs."""
    ratios = [
        run.slowdown_ratio(env) for run in runs.values() for env in HYBRID_ENVS
    ]
    if not ratios:
        raise ConfigurationError("no hybrid runs supplied")
    return sum(ratios) / len(ratios)


# -- ablations -----------------------------------------------------------------

#: Local data fractions of the skew continuum, from all-local to all-cloud.
SKEW_FRACTIONS = (1.0, 0.75, 0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0, 0.0)
#: Passes of the iterative projection, and the hybrid env it projects.
ITERATIONS, ITERATIVE_ENV = 10, "env-50/50"
RETRIEVAL_THREADS = (1, 2, 4, 8, 16)
#: EC2 jitter sigmas of the load-balancing sweep.
JITTER_SIGMAS = (0.0, 0.12, 0.3, 0.5)


def run_skew_sweep(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[float, RunTelemetry]:
    """A continuum version of Figure 3: sweep the local data fraction.

    The paper samples three skews (50/50, 33/67, 17/83); this sweep fills
    in the curve between fully-local and fully-cloud data under the same
    hybrid (16, 16) / (16, 22) compute split, exposing where the bursting
    penalty ramps.
    """
    # Every hybrid env has that split; only the placement moves.
    dataset, hybrid = env_config(app, "env-50/50", scale=scale, seed=seed)
    return {
        fraction: run(app, dataset, replace(
            hybrid, name=f"skew-{fraction:.2f}",
            placement=PlacementSpec(local_fraction=fraction),
        )).telemetry
        for fraction in SKEW_FRACTIONS
    }


def run_iterative_projection(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[str, object]:
    """Project an iterative workload's cost from per-pass simulations.

    The paper evaluates one pass per application, but kmeans and pagerank
    are iterative in practice: every pass re-reads the dataset and
    re-exchanges the reduction object. This runner simulates
    :data:`ITERATIONS` passes (reseeded per pass, so jitter varies) for
    both the hybrid :data:`ITERATIVE_ENV` and the centralized baseline, and
    reports how the *cumulative* bursting overhead decomposes — in
    particular how much of it is the per-pass reduction-object exchange, a
    cost the single-pass evaluation understates for iterative workloads.
    """
    hybrid_passes: list[RunTelemetry] = []
    base_passes: list[RunTelemetry] = []
    for i in range(ITERATIONS):
        pass_seed = seed + 7919 * i
        for env, passes in ((ITERATIVE_ENV, hybrid_passes), ("env-local", base_passes)):
            passes.append(
                _simulate(app, env_config(app, env, scale=scale, seed=pass_seed))
            )
    hybrid_total = sum(r.makespan for r in hybrid_passes)
    base_total = sum(r.makespan for r in base_passes)
    robj_total = sum(r.global_reduction for r in hybrid_passes)
    return {
        "app": app,
        "env": ITERATIVE_ENV,
        "iterations": ITERATIONS,
        "hybrid_passes": hybrid_passes,
        "base_passes": base_passes,
        "hybrid_total": hybrid_total,
        "base_total": base_total,
        "total_overhead": hybrid_total - base_total,
        "robj_overhead": robj_total,
    }


def run_stealing_ablation(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[str, tuple[RunTelemetry, RunTelemetry]]:
    """Work stealing on vs off — the middleware's defining feature.

    With ``allow_stealing=False`` each cluster only processes the data
    stored at its own site (classic Map-Reduce co-location); under skew
    the data-poor cluster idles while the data-rich one grinds. Returns
    ``{env: (with_stealing, without_stealing)}`` over the hybrid envs.
    """
    out: dict[str, tuple[RunTelemetry, RunTelemetry]] = {}
    for env in HYBRID_ENVS:
        out[env] = tuple(
            _simulate(app, env_config(
                app, env, scale=scale, seed=seed,
                tuning=MiddlewareTuning(allow_stealing=allow),
            ))
            for allow in (True, False)
        )
    return out


def run_scheduling_ablation(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[str, RunTelemetry]:
    """Both head-scheduler heuristics on/off (Section III-B's design calls).

    Returns reports keyed ``baseline`` / ``no-consecutive`` / ``no-min-
    contention`` / ``neither``, at env-17/83: it maximizes stealing, where
    both heuristics matter.
    """
    variants = {
        "baseline": MiddlewareTuning(),
        "no-consecutive": MiddlewareTuning(consecutive_assignment=False),
        "no-min-contention": MiddlewareTuning(min_contention_stealing=False),
        "neither": MiddlewareTuning(
            consecutive_assignment=False, min_contention_stealing=False
        ),
    }
    out: dict[str, RunTelemetry] = {}
    for label, tuning in variants.items():
        config = env_config(app, "env-17/83", scale=scale, tuning=tuning, seed=seed)
        out[label] = _simulate(app, config)
    return out


def run_retrieval_ablation(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[int, RunTelemetry]:
    """Sweep per-slave retrieval connections on env-cloud (Section III-B's
    multi-threaded retrieval): per-connection caps make extra connections
    pay until the site trunk saturates."""
    return {
        n: _simulate(app, env_config(
            app, "env-cloud", scale=scale,
            tuning=MiddlewareTuning(retrieval_threads=n), seed=seed,
        ))
        for n in RETRIEVAL_THREADS
    }


def run_robj_ablation(
    app: str,
    robj_mb: tuple[int, ...] = (1, 30, 100, 300, 1000),
    *,
    scale: float = 1.0,
    seed: int = 2011,
) -> dict[int, RunTelemetry]:
    """Sweep reduction-object size on env-50/50 (Section IV-B: "if the
    reduction object size increases relative to input data size, it may
    not be feasible to use cloud bursting")."""
    base = get_profile(app)
    out: dict[int, RunTelemetry] = {}
    for mb in robj_mb:
        profile = AppProfile(
            key=base.key,
            unit_cost_local=base.unit_cost_local,
            cloud_slowdown=base.cloud_slowdown,
            robj_bytes=mb * 1024 * 1024,
            record_bytes=base.record_bytes,
            description=base.description,
        )
        sites = two_site_config(
            app, *env_config(app, "env-50/50", scale=scale, seed=seed),
            profile=profile,
        )
        out[mb] = MultiSiteSimulation(sites, profile=profile).run()
    return out


def run_loadbalance_ablation(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[str, object]:
    """Pooling-based job distribution vs a static round-robin pre-partition
    (no stealing, no rate-matching) — Section III-B's "fairness in load
    balancing" and Section IV-B's "normalizing these unpredictable
    performance changes" of virtualized EC2.

    Returns ``{"jitter": {sigma: (pooled, static)}, "skew": (pooled,
    static)}``: env-50/50 under each EC2 jitter sigma of
    :data:`JITTER_SIGMAS`, and env-17/83 at the calibrated jitter.
    """

    def pair(env: str, calibration) -> tuple[RunTelemetry, RunTelemetry]:
        sites = two_site_config(
            app, *env_config(app, env, scale=scale, seed=seed), calibration
        )
        return (
            MultiSiteSimulation(sites).run(),
            MultiSiteSimulation(sites, static_assignment=True).run(),
        )

    jitter = {
        sigma: pair("env-50/50", PAPER_CALIBRATION.with_changes(
            cloud_variability=VariabilityModel(sigma=sigma)))
        for sigma in JITTER_SIGMAS
    }
    return {"jitter": jitter, "skew": pair("env-17/83", PAPER_CALIBRATION)}
