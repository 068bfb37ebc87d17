"""The kmeans kernel against the scatter it replaced.

``KMeansApp.local_reduction`` accumulates per-cluster sums with one
``np.bincount`` per dimension. The reference here is the kernel as it
was — a 2-D ``np.add.at`` scatter of float64 points — kept as the
oracle: a cluster's points are added in index order in float64 either
way, so one group reduced into a fresh object must come out *bit-equal*,
and only regrouping (which reorders the additions) may move the last
ulps. The reference also keeps the row-wise ``argmin`` the kernel's
running minimum replaced at or below ``ARGMIN_ABOVE_K`` centroids and
from ``ARGMIN_BELOW_ROWS`` points a group: ties, NaN and infinite
coordinates must land where argmin puts them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kmeans
from repro.apps.kmeans import ARGMIN_ABOVE_K, ARGMIN_BELOW_ROWS, KMeansApp


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


def assert_matches_the_scatter(points, centroids):
    """One group against the reference: as the kernel picks its branch,
    then forced to argmin and forced to the running minimum."""
    want_sums, want_counts = scatter_reference(points, centroids)
    for above_k, below_rows in (
        (ARGMIN_ABOVE_K, ARGMIN_BELOW_ROWS), (0, 0), (len(centroids), 0)
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmeans, "ARGMIN_ABOVE_K", above_k)
            patch.setattr(kmeans, "ARGMIN_BELOW_ROWS", below_rows)
            sums, counts = reduce_in_groups(
                KMeansApp(centroids), points, max(1, len(points))
            )
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(sums, want_sums)  # NaN where it is
        assert counts.sum() == len(points)


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.integers(1, 300),
        st.integers(ARGMIN_BELOW_ROWS - 8, ARGMIN_BELOW_ROWS + 300),
    ),
    st.integers(1, 16),
    st.integers(ARGMIN_ABOVE_K - 8, ARGMIN_ABOVE_K + 8),
    st.integers(0, 2**32 - 1),
)
def test_both_sides_of_the_crossover_match_the_scatter(n, d, k, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)).astype(np.float32)
    centroids = rng.normal(size=(k, d)).astype(np.float32)
    assert_matches_the_scatter(points, centroids)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 200),
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_exact_ties_go_to_the_first_centroid(n, d, k, copies, seed):
    """Duplicate centroids and points on a 0.1 grid: distances tie exactly,
    and argmin's first index must win every tie."""
    rng = np.random.default_rng(seed)
    points = np.round(rng.uniform(-1, 1, size=(n, d)), 1).astype(np.float32)
    distinct = np.round(rng.uniform(-1, 1, size=(k, d)), 1).astype(np.float32)
    centroids = np.repeat(distinct, copies, axis=0)
    rng.shuffle(centroids)
    assert_matches_the_scatter(points, centroids)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 120),
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_non_finite_rows_are_assigned_as_argmin_does(n, d, k, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)).astype(np.float32)
    rows = rng.random(n) < 0.3
    cols = rng.integers(0, d, size=n)
    specials = rng.choice(np.array([np.nan, np.inf, -np.inf], np.float32), size=n)
    points[rows, cols[rows]] = specials[rows]
    centroids = rng.normal(size=(k, d)).astype(np.float32)
    centroids[rng.random(k) < 0.2, 0] = 0.0  # inf * 0 is a NaN distance
    with np.errstate(invalid="ignore", over="ignore"):
        assert_matches_the_scatter(points, centroids)


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
