"""k-Means clustering under Generalized Reduction.

The paper's second application: "heavy computation resulting in low to
medium I/O, and a small reduction object. The value of k is set to 1000.
The total number of processed points is 10.7e9."

One execution is one Lloyd iteration: every point is assigned to its
nearest centroid and the reduction object accumulates per-centroid
coordinate sums and counts (a :class:`~repro.core.reduction.StructReduction`
of two arrays). :meth:`KMeansApp.next_centroids` turns the final object
into updated centroids, and :meth:`KMeansApp.update` rebinds them so an
iterative driver can run to convergence — the natural extension the
FREERIDE lineage supports.
"""

from __future__ import annotations

import numpy as np

from ..core.api import GeneralizedReductionApp
from ..core.reduction import ArrayReduction, ReductionObject, StructReduction
from ..data.generators import gaussian_points
from ..data.records import point_schema
from ..units import KB
from .base import AppBundle, AppProfile, register_app

__all__ = ["KMeansApp", "KMEANS_PROFILE"]

#: The assignment step: a running minimum over the k distance columns
#: (`first_minimum`) for a group of at least ARGMIN_BELOW_ROWS points
#: against at most ARGMIN_ABOVE_K centroids, numpy's row-wise ``argmin``
#: otherwise (`use_running_minimum`). The running minimum saves per row
#: and pays five numpy calls per centroid per group. Min of 50–400 calls
#: on one core, float32 blocks, in two runs: per 32768 points it took
#: 1.0–1.2 ms against argmin's 2.5–2.8 at k = 32 and 1.8–2.4 against
#: 3.0–4.4 at k = 56, and lost from k = 64 (2.1–2.5 against 1.9–2.3; 2.8–3.5
#: against 1.8–2.6 at 80); at k = 8 it lost at 1024 points a group (28–30
#: µs against 13–15) and won at 4096 (47–68 against 104–118), where at
#: k = 32 and 56 it ran from 1.2x slower to 1.4x faster.
ARGMIN_ABOVE_K = 56
ARGMIN_BELOW_ROWS = 4096


def use_running_minimum(rows: int, k: int) -> bool:
    """Whether a group of ``rows`` points against ``k`` centroids is
    assigned by `first_minimum` rather than by row-wise ``argmin``."""
    return k <= ARGMIN_ABOVE_K and rows >= ARGMIN_BELOW_ROWS


#: Calibration: 10.7e9 points in 120 GB; k=1000 distance evaluations per
#: point dominate everything (Fig. 3(b) env-local ~2300 s on 32 cores).
#: 22 EC2 cores matched 16 local cores -> cloud_slowdown = 22/16.
KMEANS_PROFILE = AppProfile(
    key="kmeans",
    unit_cost_local=8.9e-6,
    cloud_slowdown=22.0 / 16.0,
    robj_bytes=32 * KB,  # k x (d sums + count), k=1000, small dims
    record_bytes=16,
    description="k-means clustering: heavy compute, low I/O, small robj",
)


def first_minimum(dist: np.ndarray) -> np.ndarray:
    """``dist.argmin(axis=1)`` — each row's first minimum, a row's first
    NaN if it has one — for an F-ordered (n, k) float32 array.

    numpy's argmin runs once per row. This is a strict-``<`` running
    minimum over the k contiguous columns instead, one vectorised pass per
    column; the index update ``idx += (j - idx) * less`` is branch-free,
    allocates nothing per column, and moves half the bytes in int32.
    """
    n, k = dist.shape
    best = dist[:, 0].copy()
    idx = np.zeros(n, dtype=np.int32)
    step = np.empty(n, dtype=np.int32)
    less = np.empty(n, dtype=bool)
    for j in range(1, k):
        col = dist[:, j]
        np.less(col, best, out=less)
        np.minimum(best, col, out=best)
        np.subtract(j, idx, out=step)
        np.multiply(step, less, out=step)
        idx += step
    # ``minimum`` carries a NaN through; argmin picks the row's first NaN.
    nan = np.isnan(best)
    if nan.any():
        idx[nan] = dist[nan].argmin(axis=1)
    return idx.astype(np.intp)


class KMeansApp(GeneralizedReductionApp):
    """One Lloyd iteration against a fixed set of centroids."""

    name = "kmeans"

    def __init__(self, centroids: np.ndarray) -> None:
        centroids = np.asarray(centroids, dtype=np.float32)
        if centroids.ndim != 2:
            raise ValueError("centroids must be a (k, d) array")
        self.k, self.dims = centroids.shape
        self._schema = point_schema(self.dims)
        self._bind(centroids)

    def _bind(self, centroids: np.ndarray) -> None:
        self.centroids = centroids
        # |c|^2 and -2c change only when the centroids do, not once per
        # group. Scaling by -2 is exact, so ``pts @ _m2c.T`` is bit-equal
        # to ``-2 * (pts @ centroids.T)``.
        self._c_norm = np.einsum("ij,ij->i", centroids, centroids)
        self._m2c = -2.0 * centroids

    def create_reduction_object(self) -> StructReduction:
        return StructReduction(
            {
                "sums": ArrayReduction((self.k, self.dims), dtype=np.float64),
                "counts": ArrayReduction((self.k,), dtype=np.int64),
            }
        )

    def local_reduction(self, robj: ReductionObject, units: np.ndarray) -> None:
        assert isinstance(robj, StructReduction)
        pts = np.asarray(units, dtype=np.float32)
        # Pairwise squared distances via the expansion |p|^2 - 2 p.c + |c|^2;
        # the |p|^2 term is constant per point and drops out of the minimum.
        # ``dist`` is this call's own (n, k) temporary, so the distances are
        # formed in it; ``units`` itself is read-only and never written.
        running = use_running_minimum(len(pts), self.k)
        dist = np.empty(
            (len(pts), self.k), dtype=np.float32, order="F" if running else "C"
        )
        np.matmul(pts, self._m2c.T, out=dist)
        dist += self._c_norm
        assign = first_minimum(dist) if running else dist.argmin(axis=1)
        sums = robj["sums"]
        counts = robj["counts"]
        assert isinstance(sums, ArrayReduction) and isinstance(counts, ArrayReduction)
        # One bincount per dimension adds a cluster's points in index order
        # in float64 — the order a 2-D ``np.add.at`` scatter would use, four
        # to six times cheaper — so a group reduced into a fresh object is
        # bit-identical to the scatter (tests/test_kmeans_kernel.py).
        for j in range(self.dims):
            sums.data[:, j] += np.bincount(
                assign, weights=pts[:, j], minlength=self.k
            )
        counts.data += np.bincount(assign, minlength=self.k)

    def finalize(self, robj: ReductionObject) -> np.ndarray:
        return self.next_centroids(robj)

    def next_centroids(self, robj: ReductionObject) -> np.ndarray:
        """Updated centroids; empty clusters keep their previous position."""
        assert isinstance(robj, StructReduction)
        sums = robj["sums"].value()
        counts = robj["counts"].value()
        out = self.centroids.astype(np.float64).copy()
        occupied = counts > 0
        out[occupied] = sums[occupied] / counts[occupied, None]
        return out.astype(np.float32)

    def update(self, centroids: np.ndarray) -> None:
        """Rebind centroids between iterations (iterative driver hook)."""
        centroids = np.asarray(centroids, dtype=np.float32)
        if centroids.shape != self.centroids.shape:
            raise ValueError(
                f"centroid shape changed: {self.centroids.shape} -> {centroids.shape}"
            )
        self._bind(centroids)

    def decode_chunk(self, raw: bytes) -> np.ndarray:
        return self._schema.decode(raw)


def _make_bundle(
    total_units: int, *, seed: int = 2011, dims: int = 4, k: int = 8, centers: int = 8
) -> AppBundle:
    """Small-scale kmeans bundle: Gaussian mixture points, seeded initial
    centroids drawn uniformly from the unit cube."""
    schema = point_schema(dims)
    profile = AppProfile(
        key=KMEANS_PROFILE.key,
        unit_cost_local=KMEANS_PROFILE.unit_cost_local,
        cloud_slowdown=KMEANS_PROFILE.cloud_slowdown,
        robj_bytes=KMEANS_PROFILE.robj_bytes,
        record_bytes=schema.record_bytes,
        description=KMEANS_PROFILE.description,
    )
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(0.0, 1.0, size=(k, dims)).astype(np.float32)
    app = KMeansApp(centroids)

    def block_fn(start: int, count: int, block_index: int) -> np.ndarray:
        return gaussian_points(
            count, dims, centers=centers, seed=seed + block_index * 7919 + start
        )

    return AppBundle(profile=profile, app=app, schema=schema, block_fn=block_fn)


register_app(KMEANS_PROFILE, _make_bundle)
