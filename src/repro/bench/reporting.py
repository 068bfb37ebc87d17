"""ASCII rendering of the paper's tables and figures, with paper-vs-measured
columns.

Everything returns a string (and the benches print it), so tests can assert
on content without capturing stdout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..units import fmt_seconds
from .experiments import Figure3Run, Figure4Run, table1_rows, table2_rows
from .paper_values import FIGURE4_SPEEDUPS, table1_row, table2_row

__all__ = [
    "render_table",
    "render_figure3",
    "render_figure4",
    "render_table1",
    "render_table2",
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
    names = [f"({m},{m})" for m in run.ladder]
    for i, name in enumerate(names):
        measured = f"{speedups[i - 1]:.1f}%" if i > 0 else "-"
        expected = f"{paper[i - 1]:.1f}%" if i > 0 and i - 1 < len(paper) else "-"
        rows.append(
            (name, fmt_seconds(run.reports[name].makespan), measured, expected)
        )
    title = f"Figure 4 ({run.app}): scalability (all data in S3)"
    return title + "\n" + render_table(headers, rows)


def render_table1(runs: dict[str, Figure3Run]) -> str:
    """Table I with measured and paper columns side by side."""
    headers = (
        "app", "env",
        "EC2 jobs", "paper", "local jobs", "paper", "stolen", "paper",
    )
    rows = []
    for app, run in runs.items():
        for measured in table1_rows(run):
            paper = table1_row(app, measured["env"])
            rows.append(
                (
                    app,
                    measured["env"],
                    measured["ec2_jobs"],
                    paper.ec2_jobs,
                    measured["local_jobs"],
                    paper.local_jobs,
                    measured["stolen"],
                    paper.stolen,
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
            paper = table2_row(app, measured["env"])
            rows.append(
                (
                    app,
                    measured["env"],
                    fmt_seconds(measured["global_reduction"]),
                    fmt_seconds(paper.global_reduction),
                    fmt_seconds(measured["idle_local"]),
                    fmt_seconds(paper.idle_local),
                    fmt_seconds(measured["idle_ec2"]),
                    fmt_seconds(paper.idle_ec2),
                    fmt_seconds(measured["total_slowdown"]),
                    fmt_seconds(paper.total_slowdown),
                )
            )
    return (
        "Table II: slowdowns with respect to data distribution (seconds)\n"
        + render_table(headers, rows)
    )
