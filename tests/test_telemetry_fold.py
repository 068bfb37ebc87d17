"""RunTelemetry's whole-run fold and its serializers share one walk over
the dataclass's numeric fields; these tests walk the same fields, so a
counter added later is covered without being named here."""

from __future__ import annotations

import dataclasses

from repro.runtime.telemetry import ClusterTelemetry, RunTelemetry

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
