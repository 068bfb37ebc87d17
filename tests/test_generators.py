"""Tests for synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import (
    gaussian_points,
    labeled_gaussian_points,
    mixture_values,
    powerlaw_edges,
    zipf_tokens,
)
from repro.data.records import idpoint_schema
from repro.errors import DataFormatError


def gaussian_formula(n, dims, *, centers=8, spread=0.15, seed=2011):
    """The points by the one-line formula every committed number was
    measured on; the generator must reproduce it bit for bit."""
    rng = np.random.default_rng(seed)
    mus = rng.uniform(0.0, 1.0, size=(centers, dims))
    labels = rng.integers(0, centers, size=n)
    return (mus[labels] + rng.normal(0.0, spread, (n, dims))).astype(np.float32)


#: Sizes around the generator's slab of 32,768 float64 values: one row,
#: part of a slab, exactly one, one more, several and a ragged tail.
PIN_SHAPES = [
    (1, 1), (7, 3), (1000, 4), (8192, 4), (8193, 4), (32768, 1),
    (40000, 2), (131072, 4), (5000, 17), (3, 40000),
]


@pytest.mark.parametrize("n,dims", PIN_SHAPES)
@pytest.mark.parametrize("seed", [0, 2011, 2011 + 7919 * 3 + 65536])
def test_gaussian_points_pinned_to_the_formula(n, dims, seed):
    got = gaussian_points(n, dims, seed=seed)
    want = gaussian_formula(n, dims, seed=seed)
    assert got.dtype == np.float32 and got.shape == (n, dims)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("centers,spread", [(1, 0.15), (3, 0.0), (16, 2.5)])
def test_gaussian_points_pinned_for_other_mixtures(centers, spread):
    got = gaussian_points(9000, 5, centers=centers, spread=spread, seed=11)
    want = gaussian_formula(9000, 5, centers=centers, spread=spread, seed=11)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,dims", [(1, 2), (500, 3), (70000, 4)])
@pytest.mark.parametrize("seed", [1, 99])
def test_labeled_gaussian_points_pinned_to_the_formula(n, dims, seed):
    got = labeled_gaussian_points(n, dims, seed=seed, id_offset=40)
    assert got.dtype == idpoint_schema(dims).dtype
    assert got["id"].tolist() == list(range(40, 40 + n))
    want = gaussian_formula(n, dims, seed=seed)
    assert got["coords"].tobytes() == want.tobytes()


def test_gaussian_points_shape_and_determinism():
    a = gaussian_points(100, 3, seed=5)
    b = gaussian_points(100, 3, seed=5)
    c = gaussian_points(100, 3, seed=6)
    assert a.shape == (100, 3)
    assert a.dtype == np.float32
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_labeled_points_ids():
    arr = labeled_gaussian_points(10, 2, id_offset=100)
    assert arr["id"].tolist() == list(range(100, 110))
    assert arr["coords"].shape == (10, 2)


def test_powerlaw_edges_bounds_and_skew():
    edges = powerlaw_edges(20_000, 500, seed=1)
    assert edges.shape == (20_000, 2)
    assert edges.min() >= 0
    assert edges.max() < 500
    indeg = np.bincount(edges[:, 1], minlength=500)
    # Power-law: the top page collects far more than the mean in-degree.
    assert indeg.max() > 10 * indeg.mean()


def test_zipf_tokens_bounds_and_skew():
    tokens = zipf_tokens(20_000, 100, seed=2)
    assert tokens.shape == (20_000, 1)
    assert tokens.min() >= 0 and tokens.max() < 100
    counts = np.bincount(tokens.ravel(), minlength=100)
    assert counts[0] > counts[50] > 0 or counts[0] > 20 * counts.mean() / 10


def test_mixture_values_bimodal_range():
    vals = mixture_values(10_000, seed=3).ravel()
    assert vals.shape == (10_000,)
    assert 0.0 < vals.mean() < 1.0


def test_generator_validation():
    with pytest.raises(DataFormatError):
        gaussian_points(0, 3)
    with pytest.raises(DataFormatError):
        powerlaw_edges(10, 10, zipf_a=0.9)
    with pytest.raises(DataFormatError):
        zipf_tokens(10, 0)
    with pytest.raises(DataFormatError):
        mixture_values(-1)
