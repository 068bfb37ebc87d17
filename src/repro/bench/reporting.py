"""ASCII rendering of the paper's tables and figures, with paper-vs-measured
columns, and of the repo's own studies beside them.

Everything returns a string (``repro paper`` and the bench print it), so
tests can assert on content without capturing stdout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..units import fmt_seconds
from .experiments import (
    Figure3Run,
    Figure4Run,
    mean_hybrid_slowdown,
    table1_rows,
    table2_rows,
)
from .paper_values import FIGURE4_SPEEDUPS, HEADLINE, table1_row, table2_row

__all__ = [
    "render_table",
    "render_figure3",
    "render_figure4",
    "render_table1",
    "render_table2",
    "render_cost",
    "render_sweep",
    "render_stealing",
    "render_iterative",
    "render_retrieval",
    "render_robj",
    "render_scheduling",
    "render_loadbalance",
    "render_bar",
]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    out = [line(list(headers)), sep]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_bar(label: str, parts: dict[str, float], unit_per_char: float) -> str:
    """One stacked text bar: ``label |PPPPRRRS| total``."""
    glyphs = {"processing": "P", "retrieval": "R", "sync": "S"}
    bar = "".join(
        glyphs.get(name, "?") * max(0, int(round(value / unit_per_char)))
        for name, value in parts.items()
    )
    total = sum(parts.values())
    return f"{label:>14s} |{bar}| {total:.1f}s"


def render_figure3(run: Figure3Run) -> str:
    """Figure 3 for one app: per-env, per-cluster time decomposition."""
    headers = (
        "env", "cluster", "slaves",
        "processing", "retrieval", "sync", "total",
        "slowdown", "ratio",
    )
    rows = []
    for env, report in run.reports.items():
        slowdown = run.slowdown_seconds(env)
        ratio = run.slowdown_ratio(env) * 100.0
        for cluster in report.clusters.values():
            rows.append(
                (
                    env,
                    cluster.site,
                    cluster.slaves,
                    fmt_seconds(cluster.mean_processing),
                    fmt_seconds(cluster.mean_retrieval),
                    fmt_seconds(cluster.sync),
                    fmt_seconds(cluster.total),
                    fmt_seconds(slowdown) if env != "env-local" else "-",
                    f"{ratio:.1f}%" if env != "env-local" else "-",
                )
            )
    title = f"Figure 3 ({run.app}): execution time decomposition"
    return title + "\n" + render_table(headers, rows)


def render_figure4(run: Figure4Run) -> str:
    """Figure 4 for one app: ladder makespans + speedups vs paper."""
    headers = ("cores", "makespan", "speedup", "paper speedup")
    paper = FIGURE4_SPEEDUPS.get(run.app, ())
    speedups = run.speedups()
    rows = []
    for i, (name, report) in enumerate(run.reports.items()):
        measured = f"{speedups[i - 1]:.1f}%" if i > 0 else "-"
        expected = f"{paper[i - 1]:.1f}%" if i > 0 and i - 1 < len(paper) else "-"
        rows.append((name, fmt_seconds(report.makespan), measured, expected))
    title = f"Figure 4 ({run.app}): scalability (all data in S3)"
    return title + "\n" + render_table(headers, rows)


def _paper(lookup, app: str, env: str, fmt, *fields: str) -> list[str]:
    """The paper's ``fields`` for ``app`` in ``env``, each through ``fmt``;
    "-" for an app the paper did not run."""
    try:
        row = lookup(app, env)
    except KeyError:
        return ["-"] * len(fields)
    return [fmt(getattr(row, name)) for name in fields]


def render_table1(runs: dict[str, Figure3Run]) -> str:
    """Table I with measured and paper columns side by side."""
    headers = (
        "app", "env",
        "EC2 jobs", "paper", "local jobs", "paper", "stolen", "paper",
    )
    rows = []
    for app, run in runs.items():
        for measured in table1_rows(run):
            ec2, local, stolen = _paper(
                table1_row, app, measured["env"], str,
                "ec2_jobs", "local_jobs", "stolen",
            )
            rows.append(
                (
                    app,
                    measured["env"],
                    measured["ec2_jobs"],
                    ec2,
                    measured["local_jobs"],
                    local,
                    measured["stolen"],
                    stolen,
                )
            )
    return "Table I: job assignment per application\n" + render_table(headers, rows)


def render_table2(runs: dict[str, Figure3Run]) -> str:
    """Table II with measured and paper columns side by side."""
    headers = (
        "app", "env",
        "glob.red.", "paper",
        "idle(local)", "paper", "idle(EC2)", "paper",
        "slowdown", "paper",
    )
    rows = []
    for app, run in runs.items():
        for measured in table2_rows(run):
            reduction, idle_local, idle_ec2, slowdown = _paper(
                table2_row, app, measured["env"], fmt_seconds,
                "global_reduction", "idle_local", "idle_ec2", "total_slowdown",
            )
            rows.append(
                (
                    app,
                    measured["env"],
                    fmt_seconds(measured["global_reduction"]),
                    reduction,
                    fmt_seconds(measured["idle_local"]),
                    idle_local,
                    fmt_seconds(measured["idle_ec2"]),
                    idle_ec2,
                    fmt_seconds(measured["total_slowdown"]),
                    slowdown,
                )
            )
    mean = mean_hybrid_slowdown(runs) * 100
    return (
        "Table II: slowdowns with respect to data distribution (seconds)\n"
        + render_table(headers, rows)
        + f"\n\nAverage hybrid slowdown: {mean:.2f}% "
        f"(paper: {HEADLINE['mean_hybrid_slowdown_pct']:.2f}%)"
    )


def render_cost(runs: dict[str, Figure3Run]) -> str:
    """Dollars per environment under the 2011 AWS tariff; an app column once
    several apps are priced."""
    app_column = len(runs) > 1
    rows = []
    for app, run in runs.items():
        for env, cost in run.bills().items():
            rows.append(
                ((app,) if app_column else ())
                + (env, f"{run.reports[env].makespan:.0f}s",
                   f"${cost.ec2_compute:.2f}", f"${cost.s3_egress:.2f}",
                   f"${cost.cloud_total:.2f}", f"${cost.total:.2f}")
            )
    headers = ("env", "makespan", "EC2", "S3 egress", "cloud bill", "total")
    return render_table((("app",) if app_column else ()) + headers, rows)


def render_sweep(app: str, sweep: dict) -> str:
    """The data-skew continuum for one app, and its best placement."""
    rows = [
        (f"{fraction * 100:.0f}% local", fmt_seconds(report.makespan),
         report.total_stolen)
        for fraction, report in sweep.items()
    ]
    best = min(sweep, key=lambda f: sweep[f].makespan)
    return (
        f"Data-skew continuum ({app}, halved hybrid compute)\n"
        + render_table(("placement", "makespan (s)", "stolen"), rows)
        + f"\n\nbest placement: {best * 100:.0f}% local "
        f"({fmt_seconds(sweep[best].makespan)} s)"
    )


def render_stealing(app: str, results: dict) -> str:
    rows = [
        (env, fmt_seconds(with_steal.makespan), fmt_seconds(without.makespan),
         f"{(without.makespan / with_steal.makespan - 1) * 100:+.1f}%")
        for env, (with_steal, without) in results.items()
    ]
    return f"Work stealing on vs off ({app})\n" + render_table(
        ("env", "stealing (s)", "no stealing (s)", "stealing gain"), rows
    )


def render_iterative(app: str, result: dict) -> str:
    rows = [
        ("hybrid total", f"{result['hybrid_total']:.0f} s"),
        ("centralized total", f"{result['base_total']:.0f} s"),
        ("cumulative overhead", f"{result['total_overhead']:.0f} s"),
        ("of which robj exchange", f"{result['robj_overhead']:.0f} s"),
    ]
    return (
        f"{app} x {result['iterations']} iterations "
        f"({result['env']} vs env-local)\n"
        + render_table(("quantity", "value"), rows)
    )


def render_retrieval(app: str, out: dict) -> str:
    rows = [
        (n, f"{report.cluster('cloud-cluster').mean_retrieval:.1f}",
         f"{report.makespan:.1f}")
        for n, report in out.items()
    ]
    return f"Retrieval-connection sweep ({app}, env-cloud)\n" + render_table(
        ("connections", "mean retrieval (s)", "makespan (s)"), rows
    )


def render_robj(app: str, out: dict) -> str:
    rows = [
        (f"{mb} MB", f"{report.global_reduction:.2f}", f"{report.makespan:.1f}")
        for mb, report in out.items()
    ]
    return (
        f"Reduction-object size sweep ({app} profile, env-50/50)\n"
        + render_table(("robj size", "global reduction (s)", "makespan (s)"), rows)
    )


def render_scheduling(app: str, out: dict) -> str:
    base = out["baseline"].makespan
    rows = [
        (label, f"{report.makespan:.1f}",
         f"{(report.makespan / base - 1) * 100:+.1f}%")
        for label, report in out.items()
    ]
    return f"Scheduling-heuristic ablation ({app}, env-17/83)\n" + render_table(
        ("variant", "makespan (s)", "vs baseline"), rows
    )


def render_loadbalance(app: str, out: dict) -> str:
    rows = [
        (f"{sigma:.2f}", f"{pooled.makespan:.1f}", f"{static.makespan:.1f}",
         f"{(static.makespan / pooled.makespan - 1) * 100:+.1f}%")
        for sigma, (pooled, static) in out["jitter"].items()
    ]
    pooled, static = (r.makespan for r in out["skew"])
    return (
        f"Pooling vs static assignment under EC2 jitter ({app}, env-50/50)\n"
        + render_table(
            ("EC2 sigma", "pooling (s)", "static (s)", "static penalty"), rows
        )
        + f"\n\n{app} env-17/83: pooling {pooled:.1f}s vs static split "
        f"{static:.1f}s ({(static / pooled - 1) * 100:+.1f}%)"
    )
