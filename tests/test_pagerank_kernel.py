"""The pagerank kernel against the scatter it replaced.

``PageRankApp.local_reduction`` converts a group's edges to contiguous
``intp`` indices once before its ``np.add.at`` scatter. The reference
here is the kernel as it was — the scatter over the strided int32
columns of the edge array — kept as the oracle. Both add the same
contributions in edge order, so every accumulator must come out
*bit-equal*, whatever it held before the group.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pagerank import PageRankApp
from repro.data.records import EDGE_SCHEMA


def scatter_reference(app: PageRankApp, acc: np.ndarray, edges: np.ndarray) -> None:
    """One group by the kernel's former arithmetic, into ``acc``."""
    np.add.at(acc, edges[:, 1], app._contrib[edges[:, 0]])


def decoded(edges: np.ndarray) -> np.ndarray:
    """``edges`` as a slave sees them: a read-only int32 view of the chunk."""
    view = EDGE_SCHEMA.decode(np.asarray(edges, dtype=np.int32).tobytes())
    assert view.dtype == np.int32 and not view.flags.writeable
    return view


def reduced(app: PageRankApp, groups, start: np.ndarray) -> np.ndarray:
    robj = app.create_reduction_object()
    robj.data[:] = start
    for group in groups:
        app.local_reduction(robj, group)
    return robj.data


def referenced(app: PageRankApp, groups, start: np.ndarray) -> np.ndarray:
    acc = start.copy()
    for group in groups:
        scatter_reference(app, acc, group)
    return acc


def assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@st.composite
def graphs(draw):
    """A graph with dangling pages, its edges cut into groups, and a start."""
    n_pages = draw(st.integers(1, 64))
    n_edges = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Sources from a subset of pages, so the rest are dangling.
    linked = rng.choice(n_pages, size=max(1, n_pages // 2), replace=False)
    edges = np.stack(
        [rng.choice(linked, size=n_edges), rng.integers(0, n_pages, n_edges)],
        axis=1,
    )
    out_degrees = np.bincount(edges[:, 0], minlength=n_pages)
    # Ranks are arbitrary between iterations; non-uniform ones make every
    # contribution differ.
    ranks = rng.random(n_pages)
    app = PageRankApp(n_pages, out_degrees, ranks=ranks)
    cuts = sorted(draw(st.lists(st.integers(0, n_edges), max_size=5)))
    groups = [decoded(part) for part in np.split(edges, cuts)]
    nonzero = draw(st.booleans())
    start = rng.normal(size=n_pages) if nonzero else np.zeros(n_pages)
    return app, groups, start


@settings(deadline=None, max_examples=150)
@given(graphs())
def test_groups_equal_the_scatter(problem):
    app, groups, start = problem
    assert_bit_equal(reduced(app, groups, start), referenced(app, groups, start))


def test_repeated_destination_in_one_group():
    out_degrees = np.array([2, 1, 1, 0])
    app = PageRankApp(4, out_degrees, ranks=np.array([0.1, 0.2, 0.3, 0.4]))
    group = decoded([[0, 3], [1, 3], [2, 3], [0, 3], [1, 0]])
    start = np.array([0.5, -0.25, 0.0, 1e-3])
    got = reduced(app, [group], start)
    assert_bit_equal(got, referenced(app, [group], start))
    assert got[3] > start[3] and got[0] > start[0]


def test_dangling_sources_contribute_nothing():
    app = PageRankApp(3, np.array([1, 0, 0]))
    group = decoded([[0, 1], [1, 2], [2, 2], [2, 0]])
    got = reduced(app, [group], np.zeros(3))
    assert_bit_equal(got, referenced(app, [group], np.zeros(3)))
    assert got.tolist() == [0.0, 1.0 / 3, 0.0]


def test_empty_group_leaves_the_object_as_it_was():
    app = PageRankApp(5, np.ones(5, dtype=np.int64))
    start = np.arange(5, dtype=np.float64)
    empty = decoded(np.empty((0, 2), dtype=np.int32))
    assert_bit_equal(reduced(app, [empty], start), start)


def test_pagerank_bundle_groups_equal_the_scatter():
    from repro.apps import make_bundle

    bundle = make_bundle("pagerank", 4096, seed=5)
    app = bundle.app
    chunk = decoded(bundle.block_fn(0, 4096, 0))
    groups = list(app.unit_groups(chunk, 700))
    start = np.full(app.n_pages, 0.125)
    assert_bit_equal(reduced(app, groups, start), referenced(app, groups, start))
