"""Tests for the benchmark harness: configurations, experiment runners
(at reduced scale), and reporting."""

from __future__ import annotations

import pytest

from repro.bench.configs import (
    ENV_NAMES,
    HYBRID_ENVS,
    env_config,
    figure3_configs,
    figure4_configs,
    paper_dataset,
)
from repro.bench.experiments import (
    mean_hybrid_slowdown,
    run_figure3,
    run_figure4,
    run_retrieval_ablation,
    run_robj_ablation,
    run_scheduling_ablation,
    table1_rows,
    table2_rows,
)
from repro.bench.paper_values import (
    FIGURE4_SPEEDUPS,
    HEADLINE,
    TABLE1,
    TABLE2,
    table1_row,
    table2_row,
)
from repro.bench.reporting import (
    render_bar,
    render_figure3,
    render_figure4,
    render_table,
    render_table1,
    render_table2,
)

SCALE = 0.03


def test_paper_dataset_shapes():
    for app in ("knn", "kmeans", "pagerank"):
        spec = paper_dataset(app)
        assert spec.num_files == 32
        assert spec.num_chunks == 960
    small = paper_dataset("knn", scale=0.01)
    assert small.num_chunks == 960
    assert small.total_bytes < paper_dataset("knn").total_bytes


def test_env_configs_match_paper_cores():
    assert env_config("knn", "env-local").compute.label() == "(32,0)"
    assert env_config("knn", "env-cloud").compute.label() == "(0,32)"
    assert env_config("kmeans", "env-cloud").compute.label() == "(0,44)"
    assert env_config("kmeans", "env-50/50").compute.label() == "(16,22)"
    assert env_config("pagerank", "env-17/83").compute.label() == "(16,16)"
    with pytest.raises(KeyError):
        env_config("knn", "env-99/1")


def test_env_config_placements():
    assert env_config("knn", "env-local").placement.local_fraction == 1.0
    assert env_config("knn", "env-cloud").placement.local_fraction == 0.0
    assert env_config("knn", "env-33/67").local_files == 11


def test_figure_config_factories():
    f3 = figure3_configs("pagerank", scale=SCALE)
    assert set(f3) == set(ENV_NAMES)
    f4 = figure4_configs("knn", scale=SCALE)
    assert set(f4) == {"(4,4)", "(8,8)", "(16,16)", "(32,32)"}
    for config in f4.values():
        assert config.placement.local_fraction == 0.0


def test_paper_values_complete_and_consistent():
    assert len(TABLE1) == 9 and len(TABLE2) == 9
    for row in TABLE1:
        assert row.ec2_jobs + row.local_jobs == 960
    assert table1_row("kmeans", "env-17/83").stolen == 256
    assert table2_row("pagerank", "env-33/67").global_reduction == 41.320
    with pytest.raises(KeyError):
        table1_row("knn", "env-1/99")
    assert set(FIGURE4_SPEEDUPS) == {"knn", "kmeans", "pagerank"}
    assert HEADLINE["mean_hybrid_slowdown_pct"] == 15.55


@pytest.fixture(scope="module")
def knn_run():
    return run_figure3("knn", scale=SCALE)


def test_run_figure3_structure(knn_run):
    assert set(knn_run.reports) == set(ENV_NAMES)
    assert knn_run.baseline.experiment == "env-local"
    for env in HYBRID_ENVS:
        assert knn_run.reports[env].total_jobs == 960


def test_table_extraction(knn_run):
    t1 = table1_rows(knn_run)
    assert len(t1) == 3
    for row in t1:
        assert row["ec2_jobs"] + row["local_jobs"] == 960
    t2 = table2_rows(knn_run)
    assert len(t2) == 3
    for row in t2:
        assert row["global_reduction"] >= 0


def test_stealing_monotone_in_skew(knn_run):
    rows = {r["env"]: r["stolen"] for r in table1_rows(knn_run)}
    assert rows["env-50/50"] <= rows["env-33/67"] <= rows["env-17/83"]


def test_mean_hybrid_slowdown(knn_run):
    mean = mean_hybrid_slowdown({"knn": knn_run})
    assert -0.1 < mean < 0.6  # fraction, not percent


def test_run_figure4_speedups():
    run = run_figure4("kmeans", scale=SCALE)
    speedups = run.speedups()
    assert len(speedups) == 3
    assert all(s > 30.0 for s in speedups)  # compute-bound scales well


def test_scheduling_ablation_variants():
    out = run_scheduling_ablation("knn", scale=SCALE)
    assert set(out) == {"baseline", "no-consecutive", "no-min-contention", "neither"}
    for report in out.values():
        assert report.total_jobs == 960


def test_retrieval_ablation_monotone_until_saturation():
    out = run_retrieval_ablation("knn", scale=SCALE)
    assert out[1].makespan > out[4].makespan  # more connections help


def test_robj_ablation_grows_global_reduction():
    out = run_robj_ablation("pagerank", robj_mb=(1, 300), scale=SCALE)
    assert out[300].global_reduction > out[1].global_reduction * 10


# -- reporting -------------------------------------------------------------------


def test_render_table_alignment():
    text = render_table(("a", "long"), [(1, 2), (333, 4)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # rectangular


def test_render_figure3_contains_envs(knn_run):
    text = render_figure3(knn_run)
    for env in ENV_NAMES:
        assert env in text
    assert "slowdown" in text


def test_render_figure4_contains_paper_column():
    run = run_figure4("knn", scale=SCALE)
    text = render_figure4(run)
    assert "(4,4)" in text and "(8,8)" in text
    assert "paper speedup" in text
    assert "82.4%" in text


def test_render_tables_side_by_side(knn_run):
    t1 = render_table1({"knn": knn_run})
    assert "Table I" in t1 and "stolen" in t1 and "paper" in t1
    t2 = render_table2({"knn": knn_run})
    assert "Table II" in t2 and "glob.red." in t2


def test_render_bar():
    bar = render_bar("env-local", {"processing": 10.0, "retrieval": 20.0,
                                   "sync": 5.0}, unit_per_char=5.0)
    assert bar.count("P") == 2
    assert bar.count("R") == 4
    assert bar.count("S") == 1
    assert "35.0s" in bar
