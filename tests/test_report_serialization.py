"""Tests for SimReport JSON persistence and the runner helpers at
reduced scale."""

from __future__ import annotations

import json

import pytest

from repro.bench import experiments
from repro.bench.configs import env_config
from repro.bench.experiments import (
    run_iterative_projection,
    run_stealing_ablation,
)
from repro.cli import main
from repro.errors import SimulationError
from repro.sim.metrics import SimReport
from repro.sim.simulation import simulate

SCALE = 0.03


@pytest.fixture(scope="module")
def report():
    return simulate(env_config("knn", "env-33/67", scale=SCALE))


def test_json_roundtrip(report):
    restored = SimReport.from_json(report.to_json())
    assert restored.makespan == report.makespan
    assert restored.global_reduction == report.global_reduction
    assert set(restored.clusters) == set(report.clusters)
    for name in report.clusters:
        assert (
            restored.clusters[name].jobs_stolen
            == report.clusters[name].jobs_stolen
        )
    restored.validate()


def test_json_is_plain_data(report):
    doc = json.loads(report.to_json())
    assert doc["app"] == "knn"
    assert doc["experiment"] == "env-33/67"
    assert isinstance(doc["clusters"], dict)


def test_malformed_report_rejected():
    with pytest.raises(SimulationError):
        SimReport.from_json("{not json")
    with pytest.raises(SimulationError):
        SimReport.from_json('{"app": "knn"}')


def test_cli_json_flag(capsys):
    code = main(["--scale", "0.02", "simulate", "knn", "env-50/50", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "env-50/50"
    assert doc["makespan"] > 0


# -- runner helpers at reduced scale --------------------------------------------


def test_stealing_runner_structure():
    out = run_stealing_ablation("knn", scale=SCALE)
    with_steal, without = out["env-17/83"]
    assert with_steal.total_stolen > 0
    assert without.total_stolen == 0
    assert without.makespan > with_steal.makespan


def test_iterative_projection_structure(monkeypatch):
    monkeypatch.setattr(experiments, "ITERATIONS", 3)
    result = run_iterative_projection("pagerank", scale=SCALE)
    assert len(result["hybrid_passes"]) == 3
    assert result["hybrid_total"] == pytest.approx(
        sum(r.makespan for r in result["hybrid_passes"])
    )
    assert result["robj_overhead"] > 0
    # Passes are reseeded: they differ.
    makespans = [r.makespan for r in result["hybrid_passes"]]
    assert len(set(makespans)) == 3
