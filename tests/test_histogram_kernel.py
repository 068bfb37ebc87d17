"""The histogram kernel against the scatter it replaced.

``HistogramApp.local_reduction`` adds one ``np.bincount`` of the bin
indices to the reduction object. The reference here is the kernel as it
was — an ``np.add.at`` scatter of ones — kept as the oracle. Counts are
int64, so the two must agree exactly, group by group and in total.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.histogram import HistogramApp


def scatter_reference(app: HistogramApp, values: np.ndarray) -> np.ndarray:
    """Counts by the kernel's former arithmetic, a scatter of ones."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    scaled = (vals - app.lo) / (app.hi - app.lo) * app.bins
    idx = np.clip(scaled.astype(np.int64), 0, app.bins - 1)
    counts = np.zeros(app.bins, dtype=np.int64)
    np.add.at(counts, idx, 1)
    return counts


values = st.lists(
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, width=64),
    max_size=400,
)


@settings(deadline=None, max_examples=150)
@given(values, st.integers(1, 300), st.integers(1, 64), st.sampled_from(
    [(0.0, 1.0), (-0.5, 1.5), (-3.0, -1.0)]
))
def test_counts_equal_the_scatter(vals, bins, group, bounds):
    app = HistogramApp(bins=bins, lo=bounds[0], hi=bounds[1])
    units = np.asarray(vals, dtype=np.float64)
    robj = app.create_reduction_object()
    for piece in app.unit_groups(units, group):
        app.local_reduction(robj, piece)
    got = app.finalize(robj)
    assert got.dtype == np.int64 and got.shape == (bins,)
    np.testing.assert_array_equal(got, scatter_reference(app, units))
    assert got.sum() == len(units)  # out-of-range samples land in the edge bins
