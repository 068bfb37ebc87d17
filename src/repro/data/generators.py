"""Synthetic dataset generators.

The paper's datasets (120 GB of points, edges, and documents) are not
available; these generators produce statistically-shaped substitutes at any
size, deterministic per seed:

* :func:`gaussian_points` — a Gaussian-mixture point cloud (kmeans, knn);
* :func:`powerlaw_edges` — a Zipf-destination web graph (pagerank; real web
  graphs have power-law in-degree, which is what makes the pagerank
  reduction object dense and large);
* :func:`zipf_tokens` — Zipf-distributed token ids (wordcount);
* :func:`mixture_values` — bimodal float samples (histogram).

All generators yield fixed-size blocks so datasets far larger than memory
can be streamed straight into the storage layer.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataFormatError

__all__ = [
    "gaussian_points",
    "labeled_gaussian_points",
    "powerlaw_edges",
    "zipf_tokens",
    "mixture_values",
]


#: Float64 values in one slab of :func:`gaussian_points`' noise (256 KiB).
_SLAB_VALUES = 1 << 15


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise DataFormatError(f"{name} must be positive, got {value}")


def gaussian_points(
    n: int,
    dims: int,
    *,
    centers: int = 8,
    spread: float = 0.15,
    seed: int = 2011,
) -> np.ndarray:
    """``n`` float32 points drawn around ``centers`` random centroids.

    The centroids are uniform in the unit cube; cluster membership is
    uniform. ``spread`` is the per-axis standard deviation around a center.

    The points are ``(mus[labels] + noise).astype(np.float32)``, computed
    slab by slab of rows straight into the float32 result: the noise of a
    slab (:data:`_SLAB_VALUES` float64 values) is the one float64
    temporary, and each centroid coordinate is added to it one column at a
    time. The normal draws come off the generator in the same order as one
    ``(n, dims)`` draw, so the bits are those of that one-line formula.
    """
    _check_positive(n=n, dims=dims, centers=centers)
    rng = np.random.default_rng(seed)
    mus = rng.uniform(0.0, 1.0, size=(centers, dims))
    labels = rng.integers(0, centers, size=n)
    out = np.empty((n, dims), dtype=np.float32)
    rows = max(1, _SLAB_VALUES // dims)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        noise = rng.normal(0.0, spread, size=(stop - start, dims))
        slab_labels = labels[start:stop]
        for dim in range(dims):
            noise[:, dim] += mus[slab_labels, dim]
        out[start:stop] = noise
    return out


def labeled_gaussian_points(
    n: int,
    dims: int,
    *,
    centers: int = 8,
    spread: float = 0.15,
    seed: int = 2011,
    id_offset: int = 0,
) -> np.ndarray:
    """Gaussian points packaged in the ``idpoint`` structured schema.

    Ids are ``id_offset .. id_offset + n - 1``, globally unique when the
    caller offsets per block.
    """
    from .records import idpoint_schema

    pts = gaussian_points(n, dims, centers=centers, spread=spread, seed=seed)
    schema = idpoint_schema(dims)
    out = np.empty(n, dtype=schema.dtype)
    out["id"] = np.arange(id_offset, id_offset + n, dtype=np.int64)
    out["coords"] = pts
    return out


def powerlaw_edges(
    n_edges: int,
    n_pages: int,
    *,
    zipf_a: float = 1.6,
    seed: int = 2011,
) -> np.ndarray:
    """``n_edges`` int32 (src, dst) pairs with Zipf-distributed destinations.

    Sources are uniform (every page links out); destinations follow a
    truncated Zipf, giving the heavy-tailed in-degree of real web graphs.
    The paper's graph is 50M pages / 926M edges; tests use thousands.
    """
    _check_positive(n_edges=n_edges, n_pages=n_pages)
    if zipf_a <= 1.0:
        raise DataFormatError("zipf_a must be > 1")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_pages, size=n_edges, dtype=np.int64)
    # Truncated Zipf via inverse-CDF on a precomputed table: exact, fast,
    # and bounded to [0, n_pages) unlike rng.zipf.
    ranks = np.arange(1, min(n_pages, 100_000) + 1, dtype=np.float64)
    weights = ranks**-zipf_a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(n_edges)
    dst_rank = np.searchsorted(cdf, u)
    # Map popularity ranks onto page ids via a seeded permutation slice.
    perm = rng.permutation(n_pages)[: len(ranks)]
    dst = perm[dst_rank]
    edges = np.stack([src, dst], axis=1).astype(np.int32)
    return edges


def zipf_tokens(
    n: int,
    vocabulary: int,
    *,
    zipf_a: float = 1.3,
    seed: int = 2011,
) -> np.ndarray:
    """``n`` int32 token ids with a Zipf frequency profile (wordcount)."""
    _check_positive(n=n, vocabulary=vocabulary)
    if zipf_a <= 1.0:
        raise DataFormatError("zipf_a must be > 1")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocabulary + 1, dtype=np.float64)
    weights = ranks**-zipf_a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    tokens = np.searchsorted(cdf, rng.random(n)).astype(np.int32)
    return tokens.reshape(-1, 1)


def mixture_values(
    n: int,
    *,
    seed: int = 2011,
) -> np.ndarray:
    """``n`` float64 samples from a bimodal Gaussian mixture (histogram)."""
    _check_positive(n=n)
    rng = np.random.default_rng(seed)
    which = rng.random(n) < 0.7
    vals = np.where(
        which,
        rng.normal(0.3, 0.08, size=n),
        rng.normal(0.75, 0.05, size=n),
    )
    return vals.reshape(-1, 1)
