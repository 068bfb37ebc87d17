"""Fixed-range histogram — an extra example application.

Demonstrates the dense-array reduction object at a size between knn's tiny
top-k and pagerank's ~300 MB accumulator; used by the reduction-object-size
ablation (`bench_ablation_robj`) to sweep robj size without changing the
compute profile.
"""

from __future__ import annotations

import numpy as np

from ..core.api import GeneralizedReductionApp
from ..core.reduction import ArrayReduction, ReductionObject
from ..data.generators import mixture_values
from ..data.records import VALUE_SCHEMA
from .base import AppBundle, AppProfile, register_app

__all__ = ["HistogramApp", "HISTOGRAM_PROFILE"]

HISTOGRAM_PROFILE = AppProfile(
    key="histogram",
    unit_cost_local=5.0e-8,
    cloud_slowdown=1.0,
    robj_bytes=8 * 4096,
    record_bytes=8,
    description="fixed-range histogram: trivial compute, array robj",
)


class HistogramApp(GeneralizedReductionApp):
    """Count samples into ``bins`` equal-width bins over ``[lo, hi)``.

    Out-of-range samples are clipped into the edge bins, so every unit is
    counted exactly once (the conservation property the tests check).
    """

    name = "histogram"

    def __init__(self, bins: int = 4096, lo: float = 0.0, hi: float = 1.0) -> None:
        if bins <= 0:
            raise ValueError("bins must be positive")
        if not hi > lo:
            raise ValueError("hi must exceed lo")
        self.bins = int(bins)
        self.lo = float(lo)
        self.hi = float(hi)

    def create_reduction_object(self) -> ArrayReduction:
        return ArrayReduction((self.bins,), dtype=np.int64)

    def local_reduction(self, robj: ReductionObject, units: np.ndarray) -> None:
        assert isinstance(robj, ArrayReduction)
        vals = np.asarray(units, dtype=np.float64).ravel()
        scaled = (vals - self.lo) / (self.hi - self.lo) * self.bins
        idx = np.clip(scaled.astype(np.int64), 0, self.bins - 1)
        # int64 counts: bincount's sum is exact, and far cheaper than a
        # ``np.add.at`` scatter (tests/test_histogram_kernel.py).
        robj.data += np.bincount(idx, minlength=self.bins)

    def finalize(self, robj: ReductionObject) -> np.ndarray:
        assert isinstance(robj, ArrayReduction)
        return robj.data

    def decode_chunk(self, raw: bytes) -> np.ndarray:
        return VALUE_SCHEMA.decode(raw)


def _make_bundle(total_units: int, *, seed: int = 2011, bins: int = 256) -> AppBundle:
    app = HistogramApp(bins=bins, lo=-0.5, hi=1.5)

    def block_fn(start: int, count: int, block_index: int) -> np.ndarray:
        return mixture_values(count, seed=seed + block_index * 4241 + start)

    return AppBundle(
        profile=HISTOGRAM_PROFILE, app=app, schema=VALUE_SCHEMA, block_fn=block_fn
    )


register_app(HISTOGRAM_PROFILE, _make_bundle)
