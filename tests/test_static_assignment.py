"""Tests for the static-assignment ablation baseline."""

from __future__ import annotations

import pytest

from repro.bench.configs import env_config
from repro.cli import main

from conftest import two_site

SCALE = 0.03


def run(env, static, app="knn", seed=2011):
    config = env_config(app, env, scale=SCALE, seed=seed)
    return two_site(app, *config, static_assignment=static).run()


def test_static_processes_every_job():
    report = run("env-50/50", static=True)
    assert report.total_jobs == 960
    report.validate()


def test_static_split_is_even_when_balanced():
    report = run("env-50/50", static=True)
    jobs = [c.jobs_processed for c in report.clusters.values()]
    assert abs(jobs[0] - jobs[1]) <= 8  # round-robin deal, group-size quanta


def test_static_disables_rate_matching_under_skew():
    pooled = run("env-17/83", static=False)
    static = run("env-17/83", static=True)
    # The static deal cannot shift work away from the WAN-bound cluster.
    assert static.makespan > pooled.makespan * 1.02
    # Static still deals stolen (remote) jobs up front — accounting holds.
    assert static.total_jobs == 960


def test_static_deterministic():
    a = run("env-33/67", static=True)
    b = run("env-33/67", static=True)
    assert a.makespan == b.makespan


def test_static_single_cluster_equivalent():
    """With one cluster there is nothing to balance: static == pooling up
    to control-plane timing (the static run skips head round-trips)."""
    pooled = run("env-local", static=False)
    static = run("env-local", static=True)
    assert static.total_jobs == pooled.total_jobs == 960
    assert static.makespan == pytest.approx(pooled.makespan, rel=0.05)


def test_trace_cli_command(capsys):
    code = main(["--scale", "0.02", "trace", "knn", "env-50/50",
                 "--width", "30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    assert "w000" in out
    assert "idle fraction" in out
