"""RunTelemetry's and SimReport's whole-run fold and their serializers
share one walk over the dataclass's fields; these tests walk the same
fields, so a counter added later is covered without being named here."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.runtime.telemetry import ClusterTelemetry, RunTelemetry
from repro.sim.metrics import ClusterReport, SimReport

NUMERIC = [
    f for f in dataclasses.fields(RunTelemetry) if f.type in ("int", "float")
]
OTHERS = {"clusters", "metrics", "spans"}


def _pass(n: int) -> RunTelemetry:
    """A pass whose i-th numeric field reads ``n * (i + 1)`` (+ 0.5 if float)."""
    numbers = {
        f.name: n * (i + 1) + (0.5 if f.type == "float" else 0)
        for i, f in enumerate(NUMERIC)
    }
    return RunTelemetry(
        clusters={f"c{n}": ClusterTelemetry(f"c{n}", "local", 2, n, 0, 0.1, 0.2)},
        metrics={"pass": n},
        spans={"critical_path": [n]},
        **numbers,
    )


def test_every_field_is_numeric_or_taken_from_the_last_pass():
    names = {f.name for f in dataclasses.fields(RunTelemetry)}
    assert names == {f.name for f in NUMERIC} | OTHERS
    assert "wall_seconds" in {f.name for f in NUMERIC}


def test_fold_sums_every_numeric_field_and_keeps_the_last_pass():
    passes = [_pass(1), _pass(2), _pass(3)]
    folded = RunTelemetry.fold(passes)
    for f in NUMERIC:
        expected = sum(getattr(t, f.name) for t in passes)
        assert getattr(folded, f.name) == expected, f.name
        assert type(getattr(folded, f.name)).__name__ == f.type, f.name
    assert folded.clusters == passes[-1].clusters
    assert folded.metrics == {"pass": 3}
    assert folded.spans == {"critical_path": [3]}
    # Folding reads the passes; it does not rewrite them.
    assert passes[-1] == _pass(3)


def test_fold_of_one_pass_is_that_pass():
    assert RunTelemetry.fold([_pass(4)]) == _pass(4)


def test_every_numeric_field_survives_a_json_round_trip():
    original = _pass(5)
    doc = original.to_dict()
    assert set(doc) == {f.name for f in NUMERIC} | OTHERS
    assert RunTelemetry.from_json(original.to_json()) == original
    # Counters a document omits read as their defaults.
    sparse = RunTelemetry.from_dict({"wall_seconds": 1, "clusters": {}})
    assert sparse == RunTelemetry(wall_seconds=1.0)


# -- SimReport: the same walk; counters are the numeric fields with a default --

SIM_NUMERIC = [
    f for f in dataclasses.fields(SimReport) if f.type in ("int", "float")
]
SIM_COUNTERS = [f for f in SIM_NUMERIC if f.default is not dataclasses.MISSING]
SIM_PER_PASS = {"experiment", "app", "makespan", "global_reduction", "clusters"}


def _sim_pass(n: int) -> SimReport:
    """A pass whose i-th numeric field reads ``n * (i + 1)`` (+ 0.5 if float)."""
    numbers = {
        f.name: n * (i + 1) + (0.5 if f.type == "float" else 0)
        for i, f in enumerate(SIM_NUMERIC)
    }
    cluster = ClusterReport(
        f"c{n}", "local", 2, n, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0
    )
    return SimReport(
        experiment="env", app="knn", clusters={cluster.name: cluster}, **numbers
    )


def test_sim_report_fields_are_counters_or_describe_one_pass():
    names = {f.name for f in dataclasses.fields(SimReport)}
    assert names == {f.name for f in SIM_COUNTERS} | SIM_PER_PASS
    assert {"cache_hits", "dollars_spent"} <= {f.name for f in SIM_COUNTERS}


def test_sim_fold_sums_every_counter_and_keeps_the_last_pass():
    passes = [_sim_pass(1), _sim_pass(2), _sim_pass(3)]
    folded = SimReport.fold(passes)
    for f in SIM_COUNTERS:
        expected = sum(getattr(r, f.name) for r in passes)
        assert getattr(folded, f.name) == expected, f.name
        assert type(getattr(folded, f.name)).__name__ == f.type, f.name
    for name in SIM_PER_PASS:
        assert getattr(folded, name) == getattr(passes[-1], name), name
    assert passes[-1] == _sim_pass(3)
    assert SimReport.fold([_sim_pass(4)]) == _sim_pass(4)


def test_every_sim_report_field_survives_a_json_round_trip():
    original = _sim_pass(5)
    assert set(original.to_dict()) == {f.name for f in dataclasses.fields(SimReport)}
    assert SimReport.from_json(original.to_json()) == original
    # Counters a document omits read as their defaults; the fields that
    # describe the pass are required.
    required = {"experiment": "env", "app": "knn", "makespan": 1,
                "global_reduction": 2, "clusters": {}}
    assert SimReport.from_dict(required) == SimReport("env", "knn", 1.0, 2.0)
    for name in required:
        partial = {k: v for k, v in required.items() if k != name}
        with pytest.raises(SimulationError, match="malformed"):
            SimReport.from_dict(partial)
