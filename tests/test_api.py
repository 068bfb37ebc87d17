"""Tests for the Generalized Reduction programming API surface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import GeneralizedReductionApp, run_serial
from repro.core.reduction import ScalarReduction
from repro.errors import ReductionError


class SummingApp(GeneralizedReductionApp):
    """Minimal app: sum of float64 records."""

    name = "summing"

    def create_reduction_object(self) -> ScalarReduction:
        return ScalarReduction("sum")

    def local_reduction(self, robj, units):
        robj.add(float(np.sum(units)))

    def decode_chunk(self, raw: bytes):
        return np.frombuffer(raw, dtype=np.float64)


def chunk_of(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_run_serial_sums_all_chunks():
    app = SummingApp()
    chunks = [chunk_of([1, 2, 3]), chunk_of([4, 5]), chunk_of([])]
    assert run_serial(app, chunks) == 15.0


def test_unit_groups_cover_everything_in_views():
    app = SummingApp()
    units = np.arange(10, dtype=np.float64)
    groups = list(app.unit_groups(units, 4))
    assert [len(g) for g in groups] == [4, 4, 2]
    assert np.concatenate(groups).tolist() == units.tolist()
    # Views, not copies.
    assert groups[0].base is units


def test_unit_groups_rejects_bad_size():
    app = SummingApp()
    with pytest.raises(ReductionError):
        list(app.unit_groups(np.zeros(3), 0))


@given(units=st.integers(0, 500), per_group=st.integers(1, 64))
def test_group_cover_property(units, per_group):
    """Every unit lands in exactly one group, in order, none oversized."""
    data = np.arange(units)
    groups = list(SummingApp().unit_groups(data, per_group))
    assert len(groups) == -(-units // per_group)
    assert all(0 < len(g) <= per_group for g in groups)
    assert [u for g in groups for u in g.tolist()] == data.tolist()


def test_group_size_does_not_change_result():
    app = SummingApp()
    chunks = [chunk_of(range(100))]
    results = {run_serial(app, chunks, units_per_group=g) for g in (1, 7, 64, 1000)}
    assert results == {4950.0}


def test_default_global_reduction_merges():
    app = SummingApp()
    parts = []
    for vals in ([1.0, 2.0], [3.0]):
        robj = app.create_reduction_object()
        app.local_reduction(robj, np.asarray(vals))
        parts.append(robj)
    assert app.global_reduction(parts).value() == 6.0


def test_finalize_default_extracts_value():
    app = SummingApp()
    robj = app.create_reduction_object()
    robj.add(3.5)
    assert app.finalize(robj) == 3.5
