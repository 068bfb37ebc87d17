"""The paper's artifacts at full scale, each claim asserted.

One case per artifact and app set of ``repro.bench.artifacts.ARTIFACTS``
(the ids are the names of the per-artifact benches it replaces): each runs
the artifact at the paper's scale (120 GB, 960 jobs — simulated, about half
a second per configuration), prints its table and graded claims, and fails
on any claim that does not hold. A claim reads the apps it names, so a
one-app case grades that app's claims; the all-app cases grade the claims
across apps (the headline averages, Table I's stealing shape).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -q -s``.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.artifacts import ARTIFACTS, render_scorecard

from conftest import print_block

#: case id -> (artifact name, apps; None for the artifact's default apps)
CASES = {
    "figure3_knn": ("figure3", ("knn",)),
    "figure3_kmeans": ("figure3", ("kmeans",)),
    "figure3_pagerank": ("figure3", ("pagerank",)),
    "figure4_knn": ("figure4", ("knn",)),
    "figure4_kmeans": ("figure4", ("kmeans",)),
    "figure4_pagerank": ("figure4", ("pagerank",)),
    "figure4_headline_average": ("figure4", None),
    "table1": ("table1", None),
    "table2": ("table2", None),
    "cost_of_bursting": ("cost", None),
    "skew_continuum": ("sweep", None),
    "iterative_pagerank_projection": ("iterative", None),
    "work_stealing_value": ("stealing", None),
    "retrieval_threads_ablation": ("retrieval", None),
    "robj_size_ablation": ("robj", None),
    "scheduling_heuristics_ablation": ("scheduling", None),
    "pooling_vs_static_under_jitter": ("loadbalance", ("kmeans",)),
    "pooling_vs_static_under_skew": ("loadbalance", ("knn",)),
}


@functools.cache
def _result(run, app: str):
    """One full-scale run per (runner, app): Figure 3, both tables and the
    cost study read the same sweep."""
    return run(app)


def _apps(name: str, apps: tuple[str, ...] | None) -> tuple[str, ...]:
    return apps or ARTIFACTS[name].apps


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_paper(case):
    name, apps = CASES[case]
    artifact = ARTIFACTS[name]
    results = {app: _result(artifact.run, app) for app in _apps(name, apps)}
    graded = artifact.grade(results)
    print_block(artifact.render(results) + "\n\n"
                + render_scorecard(graded, title=name))
    failed = [c.claim_id for c in graded if not c.passed]
    assert graded and not failed, f"failed claims: {failed}"


def test_every_claim_is_graded_by_a_case():
    graded = {
        id(c)
        for name, apps in CASES.values()
        for c in ARTIFACTS[name].claims
        if set(c.apps) <= set(_apps(name, apps))
    }
    missing = [c.claim_id for a in ARTIFACTS.values() for c in a.claims
               if id(c) not in graded]
    assert not missing, missing
