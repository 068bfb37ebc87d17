"""PageRank under Generalized Reduction.

The paper's third application: "low to medium computation leading to high
I/O, and a very large reduction object. The number of page links is 50e6
with 9.26e8 edges." The large reduction object (~300 MB — a dense rank
accumulator over every page) is what makes PageRank the stress case for
inter-cluster global reduction in Sections IV-B and IV-C.

One execution is one power iteration over a streamed edge list: each edge
``(s, d)`` deposits ``rank[s] / outdeg[s]`` into the accumulator slot of
``d``. The final object plus the damping/dangling correction yields the
next rank vector; :meth:`PageRankApp.update` rebinds it for iterative
drivers.
"""

from __future__ import annotations

import numpy as np

from ..core.api import GeneralizedReductionApp
from ..core.reduction import ArrayReduction, ReductionObject
from ..data.generators import powerlaw_graph
from ..data.records import EDGE_SCHEMA
from .base import PAGERANK_ROBJ_BYTES, AppBundle, AppProfile, register_app

__all__ = ["PageRankApp", "PAGERANK_PROFILE"]

#: Calibration: 9.26e8 edges in 120 GB -> ~128 B/unit in the cost model
#: (the paper's format carries adjacency metadata); moderate compute per
#: edge; the ~300 MB reduction object is the headline number.
PAGERANK_PROFILE = AppProfile(
    key="pagerank",
    unit_cost_local=1.15e-5,
    cloud_slowdown=1.0,
    robj_bytes=PAGERANK_ROBJ_BYTES,
    record_bytes=128,
    description="PageRank: moderate compute, high I/O, very large robj",
)

DAMPING = 0.85


class PageRankApp(GeneralizedReductionApp):
    """One PageRank power iteration over a streamed edge list."""

    name = "pagerank"

    def __init__(
        self,
        n_pages: int,
        out_degrees: np.ndarray,
        ranks: np.ndarray | None = None,
        damping: float = DAMPING,
    ) -> None:
        if n_pages <= 0:
            raise ValueError("n_pages must be positive")
        self.n_pages = int(n_pages)
        self.out_degrees = np.asarray(out_degrees, dtype=np.int64)
        if self.out_degrees.shape != (self.n_pages,):
            raise ValueError("out_degrees must have shape (n_pages,)")
        if ranks is None:
            ranks = np.full(n_pages, 1.0 / n_pages, dtype=np.float64)
        self.ranks = np.asarray(ranks, dtype=np.float64)
        if self.ranks.shape != (self.n_pages,):
            raise ValueError("ranks must have shape (n_pages,)")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = float(damping)
        # Precompute per-page contribution; zero for dangling pages.
        self._contrib = np.zeros(self.n_pages, dtype=np.float64)
        has_out = self.out_degrees > 0
        self._contrib[has_out] = self.ranks[has_out] / self.out_degrees[has_out]

    def create_reduction_object(self) -> ArrayReduction:
        return ArrayReduction((self.n_pages,), dtype=np.float64)

    def local_reduction(self, robj: ReductionObject, units: np.ndarray) -> None:
        assert isinstance(robj, ArrayReduction)
        # One conversion to contiguous ``intp`` indices puts ``np.add.at``
        # on numpy's fast path, which the strided int32 columns miss; the
        # additions happen in the same order, so the sums are bit-equal.
        src, dst = np.asarray(units).T.astype(np.intp)
        np.add.at(robj.data, dst, self._contrib[src])

    def finalize(self, robj: ReductionObject) -> np.ndarray:
        """Apply damping and dangling-mass correction to the accumulator."""
        assert isinstance(robj, ArrayReduction)
        dangling_mass = float(self.ranks[self.out_degrees == 0].sum())
        base = (1.0 - self.damping) / self.n_pages
        return base + self.damping * (robj.data + dangling_mass / self.n_pages)

    def update(self, ranks: np.ndarray) -> None:
        """Rebind the rank vector between iterations."""
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != (self.n_pages,):
            raise ValueError("rank vector shape mismatch")
        self.ranks = ranks
        self._contrib = np.zeros(self.n_pages, dtype=np.float64)
        has_out = self.out_degrees > 0
        self._contrib[has_out] = self.ranks[has_out] / self.out_degrees[has_out]

    def decode_chunk(self, raw: bytes) -> np.ndarray:
        return EDGE_SCHEMA.decode(raw)


def _make_bundle(
    total_units: int, *, seed: int = 2011, n_pages: int | None = None
) -> AppBundle:
    """Small-scale pagerank bundle.

    The edge list is pre-generated (deterministically) so the out-degree
    vector the app needs is exact; ``block_fn`` then serves slices. The
    paper's page:edge ratio is ~1:18.5; we default to 1:16.
    """
    if n_pages is None:
        n_pages = max(4, total_units // 16)
    edges, out_degrees = powerlaw_graph(total_units, n_pages, seed=seed)
    profile = AppProfile(
        key=PAGERANK_PROFILE.key,
        unit_cost_local=PAGERANK_PROFILE.unit_cost_local,
        cloud_slowdown=PAGERANK_PROFILE.cloud_slowdown,
        robj_bytes=PAGERANK_PROFILE.robj_bytes,
        record_bytes=EDGE_SCHEMA.record_bytes,
        description=PAGERANK_PROFILE.description,
    )
    app = PageRankApp(n_pages, out_degrees)

    def block_fn(start: int, count: int, block_index: int) -> np.ndarray:
        return edges[start : start + count]

    return AppBundle(
        profile=profile, app=app, schema=EDGE_SCHEMA, block_fn=block_fn
    )


register_app(PAGERANK_PROFILE, _make_bundle)
