"""The kmeans kernel against the scatter it replaced.

``KMeansApp.local_reduction`` accumulates per-cluster sums with one
``np.bincount`` per dimension. The reference here is the kernel as it
was — a 2-D ``np.add.at`` scatter of float64 points — kept as the
oracle: a cluster's points are added in index order in float64 either
way, so one group reduced into a fresh object must come out *bit-equal*,
and only regrouping (which reorders the additions) may move the last
ulps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kmeans import KMeansApp


def scatter_reference(points: np.ndarray, centroids: np.ndarray):
    """(sums, counts) by the kernel's arithmetic up to PR 16."""
    pts = np.asarray(points, dtype=np.float32)
    cents = np.asarray(centroids, dtype=np.float32)
    c_norm = np.einsum("ij,ij->i", cents, cents)
    assign = np.argmin(c_norm[None, :] - 2.0 * (pts @ cents.T), axis=1)
    sums = np.zeros(cents.shape, dtype=np.float64)
    counts = np.zeros(len(cents), dtype=np.int64)
    np.add.at(sums, assign, pts.astype(np.float64))
    np.add.at(counts, assign, 1)
    return sums, counts


def reduce_in_groups(app: KMeansApp, points: np.ndarray, group: int):
    robj = app.create_reduction_object()
    for piece in app.unit_groups(points, group):
        app.local_reduction(robj, piece)
    return robj["sums"].value(), robj["counts"].value()


@st.composite
def problems(draw, min_points=0):
    n = draw(st.integers(min_points, 300))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Centroids spread far wider than the points: most clusters get none.
    spread = draw(st.sampled_from([1.0, 50.0]))
    points = rng.normal(size=(n, d)).astype(np.float32)
    centroids = (spread * rng.normal(size=(k, d))).astype(np.float32)
    return points, centroids


@settings(deadline=None, max_examples=150)
@given(problems())
def test_one_group_is_bit_equal_to_the_scatter(problem):
    points, centroids = problem
    sums, counts = reduce_in_groups(
        KMeansApp(centroids), points, max(1, len(points))
    )
    want_sums, want_counts = scatter_reference(points, centroids)
    assert sums.shape == want_sums.shape and counts.shape == want_counts.shape
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(sums, want_sums)  # bit for bit
    assert counts.sum() == len(points)


def test_no_points_and_empty_clusters():
    centroids = np.array([[0.0, 0.0], [100.0, 100.0], [-100.0, 5.0]], np.float32)
    app = KMeansApp(centroids)
    sums, counts = reduce_in_groups(app, np.empty((0, 2), np.float32), 8)
    assert not sums.any() and not counts.any()
    # Every point nearest centroid 0: clusters 1 and 2 stay full-width zeros.
    points = np.array([[0.5, -0.5], [1.0, 1.0]], np.float32)
    sums, counts = reduce_in_groups(app, points, 8)
    assert counts.tolist() == [2, 0, 0]
    assert sums.tolist() == [[1.5, 0.5], [0.0, 0.0], [0.0, 0.0]]
    # ... and keep their position through the update.
    robj = app.create_reduction_object()
    app.local_reduction(robj, points)
    np.testing.assert_array_equal(app.next_centroids(robj)[1:], centroids[1:])


@settings(deadline=None, max_examples=60)
@given(problems(min_points=1))
def test_input_layouts_agree(problem):
    """Non-contiguous and float64 inputs reduce like their float32 copy."""
    points, centroids = problem
    app = KMeansApp(centroids)
    want = reduce_in_groups(app, points, len(points))

    wide = np.zeros((len(points), 2 * points.shape[1]), np.float32)
    wide[:, ::2] = points
    strided = wide[:, ::2]
    every_other = np.repeat(points, 2, axis=0)[::2]
    for layout in (strided, every_other, points.astype(np.float64)):
        got = reduce_in_groups(app, layout, len(points))
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[0], want[0])


@settings(deadline=None, max_examples=80)
@given(problems(min_points=1), st.integers(1, 64), st.integers(1, 64))
def test_group_size_moves_only_the_last_ulps(problem, group_a, group_b):
    points, centroids = problem
    app = KMeansApp(centroids)
    sums_a, counts_a = reduce_in_groups(app, points, group_a)
    sums_b, counts_b = reduce_in_groups(app, points, group_b)
    np.testing.assert_array_equal(counts_a, counts_b)
    # Reordering n same-cluster additions moves a float64 sum by at most
    # n ulps of the largest partial sum, which sum(|x|) bounds.
    n = len(points)
    bound = n * np.finfo(np.float64).eps * np.abs(points).astype(np.float64).sum()
    assert np.abs(sums_a - sums_b).max() <= bound


def test_read_only_input_is_accepted_and_never_written():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(257, 3)).astype(np.float32)
    before = points.copy()
    points.setflags(write=False)
    app = KMeansApp(rng.normal(size=(4, 3)).astype(np.float32))
    got = reduce_in_groups(app, points, 64)
    np.testing.assert_array_equal(points, before)
    np.testing.assert_array_equal(got[1], scatter_reference(before, app.centroids)[1])


def test_update_rebinds_the_hoisted_norm():
    """``c_norm`` is computed when centroids are bound, not per group: an
    ``update`` must rebind it or the next pass assigns by stale norms."""
    rng = np.random.default_rng(11)
    points = rng.normal(size=(200, 2)).astype(np.float32)
    first = rng.normal(size=(5, 2)).astype(np.float32)
    second = (3.0 * rng.normal(size=(5, 2))).astype(np.float32)
    app = KMeansApp(first)
    app.update(second)
    got = reduce_in_groups(app, points, 200)
    want = scatter_reference(points, second)
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[0], want[0])
    with pytest.raises(ValueError):
        app.update(second[:3])
