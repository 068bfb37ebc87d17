"""Cross-substrate consistency: the dynamic simulator models must agree
with the closed-form network estimates in steady state, randomized
experiment configurations must preserve the global accounting
invariants, and — the golden-equivalence matrix — every application must
produce bit-identical reduction results across the serial oracle and the
threaded runtime under every cache/prefetch combination.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import (
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.network.topology import Link
from repro.network.transfer import parallel_transfer_time, transfer_time
from repro.sim.engine import Environment
from repro.sim.linkmodel import FairShareLink

from conftest import two_site


@settings(deadline=None, max_examples=30)
@given(
    bandwidth=st.floats(10.0, 1000.0),
    latency=st.floats(0.0, 1.0),
    cap=st.floats(1.0, 100.0),
    nbytes=st.integers(1, 100_000),
)
def test_single_flow_matches_closed_form(bandwidth, latency, cap, nbytes):
    """One flow alone on a link: the fluid model equals transfer_time()."""
    link_spec = Link("a", "b", bandwidth=bandwidth, latency=latency,
                     per_flow_cap=cap)
    expected = transfer_time(link_spec, nbytes)

    env = Environment()
    fluid = FairShareLink(env, bandwidth=bandwidth, latency=latency,
                          per_flow_cap=cap)
    finished = {}

    def go():
        yield fluid.transfer(nbytes)
        finished["t"] = env.now

    env.process(go())
    env.run()
    assert finished["t"] == pytest.approx(expected, rel=1e-9, abs=1e-6)


@settings(deadline=None, max_examples=20)
@given(
    bandwidth=st.floats(50.0, 500.0),
    cap=st.floats(5.0, 50.0),
    nbytes=st.integers(1000, 50_000),
    connections=st.integers(1, 16),
)
def test_parallel_fetch_matches_closed_form(bandwidth, cap, nbytes, connections):
    """N simultaneous near-equal flows: completion lands between the
    closed-form estimate for a perfectly even split (nothing beats the
    aggregate rate) and the estimate for every flow carrying the largest
    share (per-flow rates never drop as flows drain, so the last —
    largest — flow can only finish sooner than that)."""
    link_spec = Link("a", "b", bandwidth=bandwidth, latency=0.0,
                     per_flow_cap=cap)
    expected = parallel_transfer_time(link_spec, nbytes, connections)
    largest = -(-nbytes // connections)  # plan_ranges-style 1-byte skew
    upper = parallel_transfer_time(
        link_spec, largest * connections, connections
    )

    env = Environment()
    fluid = FairShareLink(env, bandwidth=bandwidth, per_flow_cap=cap)
    share, remainder = divmod(nbytes, connections)
    events = [
        fluid.transfer(share + (1 if i < remainder else 0))
        for i in range(connections)
    ]
    done = env.all_of(events)
    env.run(done)
    assert expected - 1e-9 <= env.now <= upper * (1 + 1e-9)


@settings(deadline=None, max_examples=10)
@given(
    files=st.integers(2, 8),
    chunks=st.integers(1, 4),
    fraction=st.floats(0.0, 1.0),
    local_cores=st.integers(0, 6),
    cloud_cores=st.integers(0, 6),
    seed=st.integers(0, 10_000),
)
def test_random_configs_preserve_invariants(
    files, chunks, fraction, local_cores, cloud_cores, seed
):
    """Any valid configuration: every job processed once, accounting holds."""
    if local_cores + cloud_cores == 0:
        local_cores = 1
    chunk_bytes = 64 * 1024
    dataset = DatasetSpec(
        total_bytes=files * chunks * chunk_bytes,
        num_files=files,
        chunk_bytes=chunk_bytes,
        record_bytes=4,
    )
    config = repro.RunConfig(
        name="fuzz",
        placement=PlacementSpec(local_fraction=fraction),
        compute=ComputeSpec(local_cores=local_cores, cloud_cores=cloud_cores),
        tuning=MiddlewareTuning(job_group_size=3, pool_low_water=1),
        seed=seed,
    )
    report = two_site("knn", dataset, config).run()
    report.validate()
    assert report.total_jobs == files * chunks
    for cluster in report.clusters.values():
        assert 0 <= cluster.jobs_stolen <= cluster.jobs_processed


# -- Golden-equivalence matrix ----------------------------------------------
#
# Every application, serial oracle vs threaded runtime, under every
# cache/prefetch combination: integer and dict reductions must be
# bit-identical; float reductions must agree to the last few ulps (the
# job-to-slave partition is scheduling-dependent and float addition is
# not associative). Sim rows can't compare values — the simulator models
# costs, not bytes — so they assert the accounting invariants plus the
# cache bookkeeping instead.

GOLDEN_APPS = ("histogram", "kmeans", "knn", "moments", "pagerank", "wordcount")

#: (cache_bytes, prefetch) corners of the feature matrix.
CACHE_MATRIX = (
    pytest.param(0, False, id="plain"),
    pytest.param(1 << 22, False, id="cache"),
    pytest.param(0, True, id="prefetch"),
    pytest.param(1 << 22, True, id="cache+prefetch"),
)


def _golden_dataset(app: str) -> DatasetSpec:
    units = 1024  # 16 chunks of 64 units each
    # The bundle's schema is authoritative for the record size (pagerank's
    # rows scale with the node count, so the static profile can't be used).
    rb = repro.make_bundle(app, units).schema.record_bytes
    return DatasetSpec(
        total_bytes=units * rb,
        num_files=4,
        chunk_bytes=(units // 16) * rb,
        record_bytes=rb,
    )


def _assert_same_value(a, b) -> None:
    if isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.floating):
        # Which slave sums which jobs varies with scheduling, and float
        # addition isn't associative — demand agreement to the last few
        # ulps rather than bit-identity.
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)  # integer reductions: exact
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key, value in a.items():
            if isinstance(value, float):
                assert b[key] == pytest.approx(value, rel=1e-12)
            else:
                assert b[key] == value
    else:
        assert a == b


_golden_baselines: dict[str, object] = {}


def _baseline(app: str):
    """Serial-oracle result, computed once per app (fresh bundle per call,
    so registry apps stay deterministic across the whole matrix)."""
    if app not in _golden_baselines:
        _golden_baselines[app] = repro.run(
            app, _golden_dataset(app), repro.RunConfig(mode="serial")
        ).value
    return _golden_baselines[app]


@pytest.mark.parametrize("cache_bytes,prefetch", CACHE_MATRIX)
@pytest.mark.parametrize("app", GOLDEN_APPS)
def test_golden_matrix_runtime_matches_serial(app, cache_bytes, prefetch):
    config = repro.RunConfig(
        mode="runtime",
        cache=repro.CacheOptions(bytes=cache_bytes, prefetch=prefetch),
    )
    result = repro.run(app, _golden_dataset(app), config)
    _assert_same_value(_baseline(app), result.value)
    if prefetch:
        assert result.telemetry.prefetches > 0
    if cache_bytes == 0:
        # Disabled cache constructs no accounting at all.
        assert result.telemetry.cache_hits == 0
        assert result.telemetry.cache_misses == 0


@pytest.mark.parametrize("app", GOLDEN_APPS)
@pytest.mark.parametrize("cache_bytes", [0, 1 << 30])
def test_golden_matrix_simulator_stays_consistent(app, cache_bytes):
    config = repro.RunConfig(mode="simulate", iterations=2,
                             cache=repro.CacheOptions(bytes=cache_bytes))
    result = repro.run(app, _golden_dataset(app), config)
    report = result.telemetry
    report.validate()
    if cache_bytes:
        # Iteration 2 pays no cross-site transfer the cache already holds.
        assert report.cache_hits >= report.cache_misses
    else:
        assert report.cache_hits == 0 and report.cache_misses == 0


#: Every sync_encoding x sync_topology x streaming combination. The
#: dense/star/barrier corner (with compress "none") is the default spec —
#: the paper's layout, through the same codec and plan as every other
#: corner; the matrix pins that it matches the oracle and ships dense.
#: The ids keep their historical names: ``ring`` runs as a fanout-1 tree
#: and ``auto`` as ``delta``.
SYNC_MATRIX = tuple(
    pytest.param(
        encoding, topology, stream,
        id=f"{encoding}-{topology}-{'stream' if stream else 'barrier'}",
    )
    for encoding in ("dense", "sparse", "delta", "auto")
    for topology in ("star", "tree", "ring")
    for stream in (False, True)
)


@pytest.mark.parametrize("encoding,topology,stream", SYNC_MATRIX)
@pytest.mark.parametrize("app", GOLDEN_APPS)
def test_golden_matrix_sync_matches_serial(app, encoding, topology, stream):
    config = repro.RunConfig(
        mode="runtime",
        sync=repro.SyncSpec(
            encoding="delta" if encoding == "auto" else encoding,
            topology="tree" if topology == "ring" else topology,
            fanout=1 if topology == "ring" else 2,
            stream=stream,
            compress="zlib" if stream else "none",
            watermark=2,
        ),
    )
    result = repro.run(app, _golden_dataset(app), config)
    _assert_same_value(_baseline(app), result.value)
    t = result.telemetry
    assert t.sync_bytes_saved >= 0
    if (encoding, topology, stream) == ("dense", "star", False):
        # Each upload is the object's own serialization: nothing saved.
        assert t.sync_uploads >= 1
        assert t.sync_bytes_saved == 0
        assert t.sync_partial_merges == 0
    else:
        assert t.sync_uploads >= 1
        assert t.sync_bytes_sent > 0
        if stream:
            assert t.sync_partial_merges > 0


def test_golden_matrix_iterative_pagerank_delta():
    """Three pagerank power iterations with the full WAN-shrinking stack
    (delta+zlib over a tree, streamed partials) end in the same ranks as
    the serial oracle, and the persistent codec saves wire bytes."""
    dataset = _golden_dataset("pagerank")
    serial = repro.run(
        "pagerank", dataset, repro.RunConfig(mode="serial", iterations=3)
    )
    runtime = repro.run(
        "pagerank", dataset,
        repro.RunConfig(mode="runtime", iterations=3,
                        sync=repro.SyncSpec(
                            encoding="delta", compress="zlib",
                            topology="tree", stream=True)),
    )
    assert serial.passes == runtime.passes == 3
    _assert_same_value(serial.value, runtime.value)
    assert runtime.telemetry.sync_bytes_saved > 0


# -- Process substrate (GIL-free slaves) ------------------------------------
#
# The same golden matrix extended to slave_mode="process": decode + local
# reduction run in worker processes over shared memory, and the results
# must stay indistinguishable from the threaded runtime and the oracle.


@pytest.mark.parametrize("app", GOLDEN_APPS)
def test_golden_matrix_process_matches_serial(app):
    config = repro.RunConfig(mode="runtime", slave_mode="process")
    result = repro.run(app, _golden_dataset(app), config)
    _assert_same_value(_baseline(app), result.value)


def test_golden_matrix_process_sync_stream():
    """Streamed partial flushes come out of the worker process at each
    watermark; the merged result still matches the oracle."""
    config = repro.RunConfig(
        mode="runtime", slave_mode="process",
        sync=repro.SyncSpec(stream=True, watermark=2, encoding="sparse"),
    )
    result = repro.run("histogram", _golden_dataset("histogram"), config)
    _assert_same_value(_baseline("histogram"), result.value)
    assert result.telemetry.sync_partial_merges > 0


def test_golden_matrix_process_cache_prefetch():
    """Process slaves compose with the cache + prefetch pipeline (the
    proxy thread still owns the fetch; only compute moved out)."""
    config = repro.RunConfig(
        mode="runtime", slave_mode="process",
        cache=repro.CacheOptions(bytes=1 << 22, prefetch=True),
    )
    result = repro.run("moments", _golden_dataset("moments"), config)
    _assert_same_value(_baseline("moments"), result.value)
    assert result.telemetry.prefetches > 0


def test_golden_matrix_process_ragged_groups():
    """A units_per_group that does not divide the chunk's unit count
    exercises the ragged final group inside the worker process."""
    config = repro.RunConfig(
        mode="runtime", slave_mode="process",
        tuning=MiddlewareTuning(units_per_group=7),
    )
    result = repro.run("knn", _golden_dataset("knn"), config)
    _assert_same_value(_baseline("knn"), result.value)


# -- Zero-copy corners -------------------------------------------------------


@pytest.mark.parametrize("slave_mode", ["thread", "process"])
def test_golden_matrix_zero_copy_hot_loop(slave_mode):
    """With stealing off every read is same-site: the whole run is served
    as read-only views and the copy counter stays at zero."""
    config = repro.RunConfig(
        mode="runtime", slave_mode=slave_mode,
        tuning=MiddlewareTuning(allow_stealing=False),
    )
    result = repro.run("histogram", _golden_dataset("histogram"), config)
    _assert_same_value(_baseline("histogram"), result.value)
    t = result.telemetry
    assert t.bytes_copied == 0
    assert t.zero_copy_reads == t.total_jobs == 16


def test_golden_matrix_zero_copy_serial_cached():
    """Serial two-pass run over a cache: single-stream reads against
    in-memory stores are views even cross-site, and pass 2's cloud chunks
    come back as cache hits — the whole run never copies a byte."""
    dataset = _golden_dataset("kmeans")
    result = repro.run(
        "kmeans", dataset,
        repro.RunConfig(mode="serial", iterations=2, app_params={"k": 4},
                        cache=repro.CacheOptions(bytes=1 << 22)),
    )
    t = result.telemetry
    # 16 chunks/pass x 2 passes, all served as views; the 8 cloud chunks
    # hit the cache on pass 2.
    assert t.zero_copy_reads == 32
    assert t.bytes_copied == 0
    assert t.cache_hits == 8


@pytest.mark.parametrize("cache_bytes,prefetch", CACHE_MATRIX)
def test_golden_matrix_iterative_kmeans(cache_bytes, prefetch):
    """Three kmeans passes end in the same centroids on both executable
    substrates, with or without the cache/prefetch machinery."""
    dataset = _golden_dataset("kmeans")
    serial = repro.run(
        "kmeans", dataset,
        repro.RunConfig(mode="serial", iterations=3, app_params={"k": 4}),
    )
    runtime = repro.run(
        "kmeans", dataset,
        repro.RunConfig(mode="runtime", iterations=3, app_params={"k": 4},
                        cache=repro.CacheOptions(
                            bytes=cache_bytes, prefetch=prefetch)),
    )
    assert serial.passes == runtime.passes == 3
    _assert_same_value(serial.value, runtime.value)
