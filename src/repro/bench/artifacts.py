"""The paper's artifacts in one registry: each runs, renders and grades itself.

An :class:`Artifact` binds a runner from :mod:`.experiments` (one app's
result), a renderer from :mod:`.reporting` (the results of the apps that
ran, as the paper lays them out) and the :class:`ClaimSpec` s that grade
those results. The paper's four — Figure 3, Figure 4, Table I and Table II
— sit beside eight studies of the repo's own (cost, the skew continuum,
the iterative projection and five ablations).

* ``repro paper NAME [--app APP]`` prints one artifact and its graded
  claims;
* ``benchmarks/bench_paper.py`` runs every artifact at the paper's scale
  and asserts every claim;
* :func:`evaluate_claims` is the scorecard: the headline claims (the
  ``scorecard`` ones) of Figure 3 and Figure 4 over the paper's three
  applications.

A claim *passes* when the measured value satisfies the shape band — not
when it equals the paper's absolute number (the testbed is simulated; see
EXPERIMENTS.md for the full rationale). A claim reads the apps it names;
when one of them did not run, the claim is left out, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .configs import HYBRID_ENVS
from .experiments import (
    PAPER_APPS,
    mean_hybrid_slowdown,
    run_figure3,
    run_figure4,
    run_iterative_projection,
    run_loadbalance_ablation,
    run_retrieval_ablation,
    run_robj_ablation,
    run_scheduling_ablation,
    run_skew_sweep,
    run_stealing_ablation,
    table1_rows,
    table2_rows,
)
from .paper_values import FIGURE4_SPEEDUPS, table1_row
from .reporting import (
    render_cost,
    render_figure3,
    render_figure4,
    render_iterative,
    render_loadbalance,
    render_retrieval,
    render_robj,
    render_scheduling,
    render_stealing,
    render_sweep,
    render_table,
    render_table1,
    render_table2,
)

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "Claim",
    "ClaimSpec",
    "evaluate_claims",
    "render_scorecard",
]

#: ``{app: that app's runner result}``, in the order the apps ran.
Results = dict[str, Any]


@dataclass(frozen=True)
class Claim:
    """One graded claim."""

    claim_id: str
    description: str
    paper: str
    measured: str
    passed: bool


@dataclass(frozen=True)
class ClaimSpec:
    """A claim as data: what it says, what the paper printed, the apps it
    reads, and ``judge(results) -> (measured, passed)`` over those apps'
    results. ``scorecard`` marks the headline claims
    :func:`evaluate_claims` grades."""

    claim_id: str
    description: str
    paper: str
    apps: tuple[str, ...]
    judge: Callable[[Results], tuple[str, bool]]
    scorecard: bool = False

    def grade(self, results: Results) -> Claim:
        measured, passed = self.judge({app: results[app] for app in self.apps})
        return Claim(
            self.claim_id, self.description, self.paper, measured, bool(passed)
        )


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: ``run(app, scale=, seed=)`` gives one app's
    result, ``render`` lays out the results of the apps that ran, and
    ``apps`` are the apps ``repro paper NAME`` runs by default."""

    name: str
    run: Callable[..., Any]
    render: Callable[[Results], str]
    claims: tuple[ClaimSpec, ...]
    apps: tuple[str, ...] = PAPER_APPS

    def results(
        self, apps: tuple[str, ...] | None = None, *, scale: float = 1.0,
        seed: int = 2011,
    ) -> Results:
        return {app: self.run(app, scale=scale, seed=seed) for app in apps or self.apps}

    def grade(self, results: Results) -> list[Claim]:
        """Every claim whose apps all ran, graded."""
        return [c.grade(results) for c in self.claims if set(c.apps) <= set(results)]


def _each(block: Callable[[str, Any], str]) -> Callable[[Results], str]:
    """A renderer that lays out each app's result as its own block."""
    return lambda results: "\n\n".join(block(app, r) for app, r in results.items())


def _joined(fmt: str, values) -> str:
    """``values`` formatted with ``fmt`` (``"{:.1f}%"``), slash-separated."""
    return "/".join(fmt.format(v) for v in values)


# -- Figure 3: execution over the five environments ------------------------------


def _ratios(run) -> list[float]:
    return [run.slowdown_ratio(env) for env in HYBRID_ENVS]


def _every_cluster(run, holds: Callable[[Any], bool]) -> bool:
    return all(holds(c) for r in run.reports.values() for c in r.clusters.values())


def _headline_slowdown(runs: Results) -> tuple[str, bool]:
    mean_pct = mean_hybrid_slowdown(runs) * 100.0
    return f"{mean_pct:.2f}%", 0.0 < mean_pct < 35.0


def _knn_cloud_retrieval(runs: Results) -> tuple[str, bool]:
    reports = runs["knn"].reports
    cloud = reports["env-cloud"].cluster("cloud-cluster").mean_retrieval
    local = reports["env-local"].cluster("local-cluster").mean_retrieval
    return f"{cloud:.0f}s vs {local:.0f}s", cloud < local


def _kmeans_small_penalty(runs: Results) -> tuple[str, bool]:
    worst = max(_ratios(runs["kmeans"])) * 100
    return f"worst case {worst:.1f}%", worst < 12.0


def _kmeans_efficiency(runs: Results) -> tuple[str, bool]:
    kmeans = runs["kmeans"]
    eff = kmeans.baseline.makespan / kmeans.reports["env-17/83"].makespan * 100
    return f"{eff:.1f}%", eff > 85.0


def _global_reductions(runs: Results) -> list[float]:
    """The hybrid envs' global reductions of every app in ``runs``."""
    return [run.reports[env].global_reduction
            for run in runs.values() for env in HYBRID_ENVS]


def _pagerank_robj_cost(runs: Results) -> tuple[str, bool]:
    gr = _global_reductions(runs)
    return f"{min(gr):.1f}-{max(gr):.1f} s", all(10.0 < g < 120.0 for g in gr)


def _small_robj_cost(runs: Results) -> tuple[str, bool]:
    gr = _global_reductions(runs)
    return (f"{min(gr) * 1000:.0f}-{max(gr) * 1000:.0f} ms",
            all(g < 1.0 for g in gr))


def _pcts(ratios) -> str:
    return _joined("{:.1f}%", (r * 100 for r in ratios))


def _skew_ramp(app: str) -> ClaimSpec:
    def judge(runs: Results) -> tuple[str, bool]:
        ratios = _ratios(runs[app])
        return _pcts(ratios), ratios[2] >= ratios[0] - 0.02

    return ClaimSpec(
        f"{app}-skew-ramp", f"{app}: slowdown grows from 50/50 to 17/83",
        "monotone growth (Table II)", (app,), judge, scorecard=True,
    )


def _stolen_by_env(run) -> list[int]:
    return [row["stolen"] for row in table1_rows(run)]  # HYBRID_ENVS order


def _slowdown_band(app: str, bound: float, paper: str) -> ClaimSpec:
    def judge(runs: Results) -> tuple[str, bool]:
        ratios = _ratios(runs[app])
        return _pcts(ratios), all(-0.05 < r < bound for r in ratios)

    return ClaimSpec(
        f"{app}-slowdown-band",
        f"{app}: every hybrid env is at most 5% faster and under "
        f"{bound * 100:.0f}% slower than env-local",
        paper, (app,), judge,
    )


HEADLINE_SLOWDOWN = ClaimSpec(
    "headline-slowdown", "average hybrid slowdown over the 9 runs is modest",
    "15.55%", PAPER_APPS, _headline_slowdown, scorecard=True,
)
PAGERANK_ROBJ_COST = ClaimSpec(
    "pagerank-robj-cost",
    "pagerank's ~300 MB reduction object costs tens of seconds of global "
    "reduction",
    "36.6-42.5 s", ("pagerank",), _pagerank_robj_cost, scorecard=True,
)
SMALL_ROBJ_COST = ClaimSpec(
    "small-robj-cost", "knn/kmeans global reduction is negligible", "66-76 ms",
    ("knn", "kmeans"), _small_robj_cost, scorecard=True,
)
BALANCED_5050 = ClaimSpec(
    "5050-balanced", "env-50/50 needs (almost) no stealing for any app",
    "0 stolen (Table I)", PAPER_APPS,
    lambda runs: ("checked 3 apps",
                  all(_stolen_by_env(run)[0] <= 40 for run in runs.values())),
    scorecard=True,
)
STEALING_MONOTONE = ClaimSpec(
    "stealing-monotone", "stolen jobs grow with data skew for every app",
    "64->128 / 128->256 / 112->240 (Table I)", PAPER_APPS,
    lambda runs: ("checked 3 apps",
                  all(a <= b <= c for a, b, c in map(_stolen_by_env, runs.values()))),
    scorecard=True,
)

FIGURE3 = Artifact(
    "figure3", run_figure3, _each(lambda app, run: render_figure3(run)),
    (
        HEADLINE_SLOWDOWN,
        ClaimSpec(
            "knn-retrieval-bound",
            "knn retrieval exceeds processing in every environment",
            "retrieval dominates (Sec. IV-B)", ("knn",),
            lambda runs: ("checked in 5 envs x clusters", _every_cluster(
                runs["knn"], lambda c: c.mean_retrieval > c.mean_processing)),
            scorecard=True,
        ),
        ClaimSpec(
            "knn-cloud-retrieval",
            "env-cloud retrieval is shorter than env-local (multi-threaded S3)",
            "shorter (Sec. IV-B)", ("knn",), _knn_cloud_retrieval, scorecard=True,
        ),
        ClaimSpec(
            "kmeans-small-penalty",
            "compute-bound kmeans bursts with little penalty",
            "worst case 10.4%", ("kmeans",), _kmeans_small_penalty, scorecard=True,
        ),
        ClaimSpec(
            "kmeans-17/83-efficiency",
            "kmeans env-17/83 keeps ~90% of env-local efficiency",
            ">= ~90%", ("kmeans",), _kmeans_efficiency, scorecard=True,
        ),
        PAGERANK_ROBJ_COST,
        SMALL_ROBJ_COST,
        *map(_skew_ramp, PAPER_APPS),
        BALANCED_5050,
        STEALING_MONOTONE,
        _slowdown_band("knn", 0.60, "1.7/15.4/45.9%"),
        _slowdown_band("kmeans", 0.15, "worst case 10.4%"),
        _slowdown_band("pagerank", 0.45, "10.5/16.4/30.8%"),
        ClaimSpec(
            "kmeans-compute-bound",
            "kmeans processing exceeds 5x retrieval in every environment",
            "compute dominates (Sec. IV-B)", ("kmeans",),
            lambda runs: ("checked in 5 envs x clusters", _every_cluster(
                runs["kmeans"], lambda c: c.mean_processing > 5 * c.mean_retrieval)),
        ),
    ),
)


# -- Figure 4: scalability with all data in S3 -----------------------------------


def _headline_speedup(runs: Results) -> tuple[str, bool]:
    speedups = [run.speedups() for run in runs.values()]
    mean = sum(sum(s) for s in speedups) / sum(len(s) for s in speedups)
    return f"{mean:.1f}%", 60.0 < mean < 100.0


def _kmeans_scales_best(runs: Results) -> tuple[str, bool]:
    sums = {app: sum(run.speedups()) for app, run in runs.items()}
    return (f"{sums['kmeans'] / 3:.1f}%",
            sums["kmeans"] >= max(sums["knn"], sums["pagerank"]))


def _monotone_scaling(app: str) -> ClaimSpec:
    def judge(runs: Results) -> tuple[str, bool]:
        m = runs[app].makespans()
        return _joined("{:.0f}s", m), all(a > b for a, b in zip(m, m[1:]))

    return ClaimSpec(
        f"{app}-monotone-scaling", f"{app}: makespan falls at every doubling",
        "monotone (Fig. 4)", (app,), judge, scorecard=True,
    )


def _speedup_floor(app: str, floor: float) -> ClaimSpec:
    def judge(runs: Results) -> tuple[str, bool]:
        speedups = runs[app].speedups()
        return _joined("{:.1f}%", speedups), all(s > floor for s in speedups)

    return ClaimSpec(
        f"{app}-speedup-floor", f"{app}: every doubling speeds it up by over "
        f"{floor:.0f}%", _joined("{:.1f}%", FIGURE4_SPEEDUPS[app]), (app,), judge,
    )


def _pagerank_fixed_cost(runs: Results) -> tuple[str, bool]:
    speedups = runs["pagerank"].speedups()
    return _joined("{:.1f}%", speedups), speedups[-1] < speedups[0]


def _knn_early_doubling(runs: Results) -> tuple[str, bool]:
    first = runs["knn"].speedups()[0]
    return f"{first:.1f}%", first > 60.0


def _flat_robj_exchange(runs: Results) -> tuple[str, bool]:
    gr = [r.global_reduction for r in runs["pagerank"].reports.values()]
    return f"{min(gr):.1f}-{max(gr):.1f} s", max(gr) - min(gr) < 0.2 * max(gr)


FIGURE4 = Artifact(
    "figure4", run_figure4, _each(lambda app, run: render_figure4(run)),
    (
        ClaimSpec(
            "headline-speedup", "average speedup per core-doubling", "81%",
            PAPER_APPS, _headline_speedup, scorecard=True,
        ),
        ClaimSpec(
            "kmeans-scales-best",
            "compute-bound kmeans has the best mean scalability",
            "86-88% per doubling", PAPER_APPS, _kmeans_scales_best, scorecard=True,
        ),
        ClaimSpec(
            "pagerank-fixed-cost",
            "pagerank's last doubling is its worst (fixed robj exchange)",
            "85.8 -> 66.4%", ("pagerank",), _pagerank_fixed_cost, scorecard=True,
        ),
        *map(_monotone_scaling, PAPER_APPS),
        _speedup_floor("knn", 30.0),
        _speedup_floor("kmeans", 70.0),
        ClaimSpec(
            "knn-early-doubling", "knn's first doubling is near-ideal (over 60%)",
            f"{FIGURE4_SPEEDUPS['knn'][0]:.1f}%", ("knn",), _knn_early_doubling,
        ),
        ClaimSpec(
            "pagerank-flat-robj-exchange",
            "pagerank's global reduction does not shrink with cores (within 20%)",
            "fixed cost (Sec. IV-C)", ("pagerank",), _flat_robj_exchange,
        ),
    ),
)


# -- Table I: job assignment -----------------------------------------------------


def _table1_claims(app: str) -> tuple[ClaimSpec, ...]:
    def rows(runs: Results) -> dict[str, dict]:
        return {row["env"]: row for row in table1_rows(runs[app])}

    def conserved(runs: Results) -> tuple[str, bool]:
        jobs = [row["ec2_jobs"] + row["local_jobs"] for row in rows(runs).values()]
        return _joined("{}", jobs), all(n == 960 for n in jobs)

    def skewed(runs: Results) -> tuple[str, bool]:
        row = rows(runs)["env-17/83"]
        return (f"{row['stolen']} stolen, EC2 {row['ec2_jobs']} vs local "
                f"{row['local_jobs']}",
                row["stolen"] > 50 and row["ec2_jobs"] > row["local_jobs"])

    paper = table1_row(app, "env-17/83")
    return (
        ClaimSpec(f"{app}-jobs-conserved",
                  f"{app}: every hybrid run processes each of the 960 jobs once",
                  "960 (Table I)", (app,), conserved),
        ClaimSpec(f"{app}-17/83-stealing",
                  f"{app}: env-17/83 steals over 50 jobs and EC2 processes "
                  "the majority",
                  f"{paper.stolen} stolen, EC2 {paper.ec2_jobs} vs local "
                  f"{paper.local_jobs}", (app,), skewed),
    )


TABLE1 = Artifact(
    "table1", run_figure3, render_table1,
    (BALANCED_5050, STEALING_MONOTONE,
     *(c for app in PAPER_APPS for c in _table1_claims(app))),
)


# -- Table II: overheads ---------------------------------------------------------


def _overheads_nonnegative(app: str) -> ClaimSpec:
    def judge(runs: Results) -> tuple[str, bool]:
        rows = table2_rows(runs[app])
        return (_joined("{:.1f}s", (row["total_slowdown"] for row in rows)),
                all(row["total_slowdown"] > -5.0 and row["idle_local"] >= 0
                    and row["idle_ec2"] >= 0 for row in rows))

    return ClaimSpec(
        f"{app}-overheads-nonnegative",
        f"{app}: no hybrid run is over 5 s faster than env-local, and no "
        "cluster idles a negative time",
        "slowdown > 0 (Table II)", (app,), judge,
    )


def _knn_outslows_kmeans(runs: Results) -> tuple[str, bool]:
    knn, kmeans = _ratios(runs["knn"]), _ratios(runs["kmeans"])
    return f"{_pcts(knn)} vs {_pcts(kmeans)}", all(a > b for a, b in zip(knn, kmeans))


TABLE2 = Artifact(
    "table2", run_figure3, render_table2,
    (
        HEADLINE_SLOWDOWN, PAGERANK_ROBJ_COST, SMALL_ROBJ_COST,
        *map(_overheads_nonnegative, PAPER_APPS),
        ClaimSpec(
            "knn-outslows-kmeans",
            "retrieval-bound knn slows down more than compute-bound kmeans at "
            "every skew",
            "1.7/15.4/45.9% vs <= 10.4%", ("knn", "kmeans"), _knn_outslows_kmeans,
        ),
    ),
)


# -- Cost: the 2011 AWS bill of each environment ---------------------------------


def _cost_claims(app: str) -> tuple[ClaimSpec, ...]:
    def local_free(runs: Results) -> tuple[str, bool]:
        bill = runs[app].bills()["env-local"].cloud_total
        return f"${bill:.2f}", bill == 0.0

    def cloud_largest(runs: Results) -> tuple[str, bool]:
        ec2 = {env: cost.ec2_compute for env, cost in runs[app].bills().items()}
        return (f"${ec2['env-cloud']:.2f} of max ${max(ec2.values()):.2f}",
                ec2["env-cloud"] >= max(ec2.values()) - 1e-9)

    def egress_grows(runs: Results) -> tuple[str, bool]:
        egress = [runs[app].bills()[env].s3_egress for env in HYBRID_ENVS]
        return _joined("${:.2f}", egress), egress[0] <= egress[1] <= egress[2]

    return (
        ClaimSpec(f"{app}-local-no-cloud-bill",
                  f"{app}: env-local pays the cloud nothing", "extension",
                  (app,), local_free),
        ClaimSpec(f"{app}-cloud-largest-ec2",
                  f"{app}: env-cloud pays the largest EC2 compute bill",
                  "extension", (app,), cloud_largest),
        ClaimSpec(f"{app}-egress-grows",
                  f"{app}: S3 egress grows with data skew (stealing does)",
                  "extension", (app,), egress_grows),
    )


def _kmeans_priciest_cloud(runs: Results) -> tuple[str, bool]:
    kmeans, knn = (runs[app].bills()["env-cloud"].ec2_compute
                   for app in ("kmeans", "knn"))
    return f"${kmeans:.2f} vs ${knn:.2f}", kmeans > knn


def _knn_skew_costs_more(runs: Results) -> tuple[str, bool]:
    bills = runs["knn"].bills()
    skewed, cloud = bills["env-17/83"].cloud_total, bills["env-cloud"].cloud_total
    return f"${skewed:.2f} vs ${cloud:.2f}", skewed > cloud


COST = Artifact(
    "cost", run_figure3, render_cost,
    (
        *(c for app in PAPER_APPS for c in _cost_claims(app)),
        ClaimSpec(
            "kmeans-priciest-cloud",
            "kmeans' env-cloud EC2 bill beats knn's (longer runs, 44 cores)",
            "extension", ("knn", "kmeans"), _kmeans_priciest_cloud,
        ),
        ClaimSpec(
            "knn-skew-costs-more",
            "knn: env-17/83's cloud bill (egress included) exceeds env-cloud's",
            "extension", ("knn",), _knn_skew_costs_more,
        ),
    ),
)


# -- The skew continuum ----------------------------------------------------------


def _sweep_claims(app: str) -> tuple[ClaimSpec, ...]:
    def best(runs: Results) -> tuple[str, bool]:
        sweep = runs[app]
        fraction = min(sweep, key=lambda f: sweep[f].makespan)
        return f"{fraction * 100:.0f}% local", 0.25 <= fraction <= 0.75

    def at(runs: Results, attr: str) -> list:
        return [getattr(runs[app][f], attr) for f in (1.0, 0.5, 0.0)]

    def extremes_pay(runs: Results) -> tuple[str, bool]:
        local, matched, cloud = at(runs, "makespan")
        return _joined("{:.0f}s", (local, matched, cloud)), min(local, cloud) > matched

    def stealing_u(runs: Results) -> tuple[str, bool]:
        local, matched, cloud = at(runs, "total_stolen")
        return _joined("{}", (local, matched, cloud)), matched <= min(local, cloud)

    claims = [
        ClaimSpec(f"{app}-best-placement",
                  f"{app}: the best placement matches the compute split "
                  "(25-75% local)",
                  "perfect distribution (Sec. IV-B)", (app,), best),
        ClaimSpec(f"{app}-stealing-u-shape",
                  f"{app}: 50% local steals no more than either extreme "
                  "(100/50/0% local)",
                  "extension", (app,), stealing_u),
    ]
    if app != "kmeans":  # compute-bound kmeans barely feels the WAN
        claims.insert(1, ClaimSpec(
            f"{app}-extremes-pay",
            f"{app}: all-local and all-cloud data are both slower than 50/50 "
            "(100/50/0% local)",
            "extension", (app,), extremes_pay,
        ))
    return tuple(claims)


SWEEP = Artifact(
    "sweep", run_skew_sweep, _each(render_sweep),
    tuple(c for app in PAPER_APPS for c in _sweep_claims(app)),
)


# -- The iterative projection ----------------------------------------------------


def _overhead_adds_up(runs: Results) -> tuple[str, bool]:
    result = runs["pagerank"]
    per_pass = sum(h.makespan - b.makespan for h, b in
                   zip(result["hybrid_passes"], result["base_passes"]))
    return (f"{result['total_overhead']:.0f} s",
            math.isclose(result["total_overhead"], per_pass, rel_tol=1e-9))


def _robj_recurs(runs: Results) -> tuple[str, bool]:
    robj = runs["pagerank"]["robj_overhead"]
    overhead = runs["pagerank"]["total_overhead"]
    return (f"{robj:.0f} s, {robj / overhead * 100:.0f}% of the overhead",
            250.0 < robj < 600.0 and robj > 0.5 * overhead)


ITERATIVE = Artifact(
    "iterative", run_iterative_projection, _each(render_iterative),
    (
        ClaimSpec(
            "pagerank-overhead-adds-up",
            "pagerank: the cumulative overhead is the sum of the per-pass ones",
            "extension", ("pagerank",), _overhead_adds_up,
        ),
        ClaimSpec(
            "pagerank-robj-recurs",
            "pagerank: 10 passes exchange 250-600 s of reduction object, over "
            "half the cumulative overhead",
            "~10 x 36.6 s (Table II)", ("pagerank",), _robj_recurs,
        ),
    ),
    apps=("pagerank",),
)


# -- Ablation: work stealing -----------------------------------------------------


def _stealing_gains(runs: Results) -> tuple[str, bool]:
    g = {env: without.makespan / with_steal.makespan
         for env, (with_steal, without) in runs["knn"].items()}
    return (_joined("{:.2f}x", g.values()),
            g["env-33/67"] > 1.05 and g["env-17/83"] > 1.25
            and g["env-17/83"] > g["env-33/67"] >= g["env-50/50"] * 0.99)


def _stranded_idle(runs: Results) -> tuple[str, bool]:
    _, without = runs["knn"]["env-17/83"]
    stranded = max(c.idle for c in without.clusters.values())
    return (f"{stranded:.0f} s of {without.makespan:.0f} s",
            stranded > 0.3 * without.makespan)


def _colocated_conserves(runs: Results) -> tuple[str, bool]:
    without = [w for _, w in runs["knn"].values()]
    return (_joined("{}", (r.total_jobs for r in without)),
            all(r.total_jobs == 960 and r.total_stolen == 0 for r in without))


STEALING = Artifact(
    "stealing", run_stealing_ablation, _each(render_stealing),
    (
        ClaimSpec(
            "knn-stealing-pays-with-skew",
            "knn: stealing gains over 5% at 33/67 and 25% at 17/83, growing "
            "with skew (50/50, 33/67, 17/83)",
            "extension (Sec. I)", ("knn",), _stealing_gains,
        ),
        ClaimSpec(
            "knn-stranded-idle",
            "knn 17/83 without stealing idles the data-poor cluster for over "
            "30% of the run",
            "extension", ("knn",), _stranded_idle,
        ),
        ClaimSpec(
            "knn-colocated-conserves",
            "knn: without stealing every job still runs once, none stolen",
            "extension", ("knn",), _colocated_conserves,
        ),
    ),
    apps=("knn",),
)


# -- Ablation: retrieval connections ---------------------------------------------


def _connections_pay(runs: Results) -> tuple[str, bool]:
    one, four = runs["knn"][1].makespan, runs["knn"][4].makespan
    return f"{one:.0f}s vs {four:.0f}s", one > four * 1.5


def _trunk_saturates(runs: Results) -> tuple[str, bool]:
    eight, sixteen = runs["knn"][8].makespan, runs["knn"][16].makespan
    return f"{eight:.0f}s vs {sixteen:.0f}s", abs(eight - sixteen) < 0.15 * eight


RETRIEVAL = Artifact(
    "retrieval", run_retrieval_ablation, _each(render_retrieval),
    (
        ClaimSpec(
            "knn-connections-pay",
            "knn env-cloud: 4 connections per slave beat 1 by over 1.5x",
            "multi-threaded retrieval (Sec. III-B)", ("knn",), _connections_pay,
        ),
        ClaimSpec(
            "knn-trunk-saturates",
            "knn env-cloud: 8 and 16 connections differ by under 15% (the "
            "site trunk is full)",
            "extension", ("knn",), _trunk_saturates,
        ),
    ),
    apps=("knn",),
)


# -- Ablation: reduction-object size ---------------------------------------------


def _robj_grows(runs: Results) -> tuple[str, bool]:
    gr = [r.global_reduction for r in runs["pagerank"].values()]
    return _joined("{:.1f}s", gr), all(a < b for a, b in zip(gr, gr[1:]))


def _robj_bands(runs: Results) -> tuple[str, bool]:
    gr = {mb: r.global_reduction for mb, r in runs["pagerank"].items()}
    return (_joined("{:.1f}s", (gr[1], gr[300], gr[1000])),
            gr[1] < 1.0 and 10.0 < gr[300] < 120.0 and gr[1000] > 60.0)


ROBJ = Artifact(
    "robj", run_robj_ablation, _each(render_robj),
    (
        ClaimSpec(
            "pagerank-robj-size-grows",
            "pagerank: global reduction grows strictly with object size",
            "Sec. IV-B feasibility warning", ("pagerank",), _robj_grows,
        ),
        ClaimSpec(
            "pagerank-robj-size-bands",
            "pagerank: 1 MB costs under 1 s, 300 MB 10-120 s, 1000 MB over 60 s "
            "of global reduction",
            "36.6-42.5 s at ~300 MB", ("pagerank",), _robj_bands,
        ),
    ),
    apps=("pagerank",),
)


# -- Ablation: the head scheduler's heuristics -----------------------------------


def _heuristics_pay(runs: Results) -> tuple[str, bool]:
    out = runs["knn"]
    cost = {label: out[label].makespan / out["baseline"].makespan
            for label in ("no-consecutive", "no-min-contention", "neither")}
    return (_joined("{:+.1%}", (c - 1 for c in cost.values())),
            cost["no-consecutive"] > 1.02 and cost["no-min-contention"] > 1.005
            and cost["neither"] > 1.015)


SCHEDULING = Artifact(
    "scheduling", run_scheduling_ablation, _each(render_scheduling),
    (
        ClaimSpec(
            "knn-heuristics-pay",
            "knn env-17/83: dropping consecutive assignment costs over 2%, "
            "min-contention stealing over 0.5%, both over 1.5%",
            "Sec. III-B design", ("knn",), _heuristics_pay,
        ),
    ),
    apps=("knn",),
)


# -- Ablation: pooling vs static load balancing ----------------------------------


def _static_gaps(runs: Results) -> list[float]:
    return [static.makespan / pooled.makespan
            for pooled, static in runs["kmeans"]["jitter"].values()]


def _static_calm(runs: Results) -> tuple[str, bool]:
    calm = _static_gaps(runs)[0]
    return f"{calm:.3f}x", 0.95 < calm < 1.05


def _static_penalty_grows(runs: Results) -> tuple[str, bool]:
    gaps = _static_gaps(runs)
    return _joined("{:.3f}x", gaps), gaps[-1] > gaps[0] + 0.01 and gaps[-1] > 1.02


def _skew_penalty(runs: Results) -> tuple[str, bool]:
    pooled, static = runs["knn"]["skew"]
    return (f"{static.makespan:.0f}s vs {pooled.makespan:.0f}s",
            static.makespan > pooled.makespan * 1.05)


LOADBALANCE = Artifact(
    "loadbalance", run_loadbalance_ablation, _each(render_loadbalance),
    (
        ClaimSpec(
            "kmeans-static-calm",
            "kmeans env-50/50 without EC2 jitter: static assignment is within "
            "5% of pooling",
            "extension", ("kmeans",), _static_calm,
        ),
        ClaimSpec(
            "kmeans-static-penalty-grows",
            "kmeans env-50/50: static assignment's penalty grows with EC2 "
            "jitter and passes 2%",
            "normalizes performance changes (Sec. IV-B)", ("kmeans",),
            _static_penalty_grows,
        ),
        ClaimSpec(
            "knn-static-loses-under-skew",
            "knn env-17/83: a static 50/50 job split is over 5% slower than "
            "pooling",
            "fairness in load balancing (Sec. III-B)", ("knn",), _skew_penalty,
        ),
    ),
    apps=("kmeans", "knn"),
)


#: Every artifact, by the name ``repro paper`` takes.
ARTIFACTS: dict[str, Artifact] = {
    a.name: a
    for a in (FIGURE3, FIGURE4, TABLE1, TABLE2, COST, SWEEP, ITERATIVE,
              STEALING, RETRIEVAL, ROBJ, SCHEDULING, LOADBALANCE)
}


def evaluate_claims(*, scale: float = 1.0, seed: int = 2011) -> list[Claim]:
    """The scorecard: run Figure 3 and Figure 4 for the paper's three apps
    and grade their headline claims."""
    graded: list[Claim] = []
    for artifact in (FIGURE3, FIGURE4):
        results = artifact.results(PAPER_APPS, scale=scale, seed=seed)
        graded += [c.grade(results) for c in artifact.claims if c.scorecard]
    return graded


def render_scorecard(claims: list[Claim], title: str = "Reproduction scorecard") -> str:
    """ASCII table of graded claims under a ``title: P/N claims hold`` line."""
    rows = [
        ("PASS" if c.passed else "FAIL", c.claim_id, c.paper, c.measured,
         c.description)
        for c in claims
    ]
    passed = sum(c.passed for c in claims)
    header = f"{title}: {passed}/{len(claims)} claims hold\n"
    return header + render_table(
        ("", "claim", "paper", "measured", "description"), rows
    )
