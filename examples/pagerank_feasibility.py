#!/usr/bin/env python3
"""Scenario: when does cloud bursting stop paying off?

Section IV-B's warning, explored: PageRank's reduction object is a dense
per-page accumulator (~300 MB for the paper's 50M-page graph), and every
cloud-bursting run must push it across the WAN during global reduction.
This example runs the paper's pagerank configuration, then sweeps the
reduction-object size to find the break-even point against centralized
processing — exactly the feasibility analysis the paper sketches in prose.

Run:  python examples/pagerank_feasibility.py
"""

from __future__ import annotations

from repro.bench.experiments import run_figure3, run_robj_ablation
from repro.units import fmt_seconds


def main() -> None:
    print("PageRank at the paper's scale (50M pages, ~1e9 edges, 120 GB):")
    run = run_figure3("pagerank")
    base = run.baseline
    hybrid = run.reports["env-50/50"]
    print(f"  env-local : {base.makespan:7.1f} s")
    print(
        f"  env-50/50 : {hybrid.makespan:7.1f} s "
        f"(global reduction {hybrid.global_reduction:.1f} s of that)"
    )
    print()

    print("Sweeping the reduction-object size (env-50/50, pagerank profile):")
    sweep = run_robj_ablation("pagerank",
                              robj_mb=(1, 10, 30, 100, 300, 600, 1000, 2000))
    print(f"  {'robj':>8s}  {'global red.':>12s}  {'makespan':>9s}  {'vs local':>9s}")
    baseline = base.makespan
    for mb, report in sweep.items():
        delta = (report.makespan - baseline) / baseline * 100.0
        print(
            f"  {mb:5d} MB  {fmt_seconds(report.global_reduction):>12s}"
            f"  {report.makespan:8.1f}s  {delta:+8.1f}%"
        )
    print()
    print(
        "Reading the sweep: below ~100 MB the object transfer hides inside "
        "the run; around the paper's 300 MB it costs tens of seconds; by "
        "1-2 GB the WAN push dominates and centralized processing wins — "
        "the paper's 'may not be feasible' regime, quantified."
    )


if __name__ == "__main__":
    main()
