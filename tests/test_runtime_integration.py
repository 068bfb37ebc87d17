"""End-to-end runtime integration: distributed result == serial oracle.

Every bundled application is built at small scale, materialized into the
two-site storage layer, run through the full head/master/slave middleware
in a hybrid configuration, and compared against both the Generalized
Reduction serial runner and the independent NumPy reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.baselines.serial import (
    histogram_reference,
    kmeans_reference,
    knn_reference,
    pagerank_reference,
    wordcount_reference,
)
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import iterate_passes, run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

TOTAL_UNITS = 2048
FILES = 4
CHUNKS_PER_FILE = 4
UNITS_PER_CHUNK = TOTAL_UNITS // (FILES * CHUNKS_PER_FILE)


def materialize(app_key, local_fraction=0.5, **bundle_params):
    bundle = make_bundle(app_key, TOTAL_UNITS, **bundle_params)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=TOTAL_UNITS * rb,
        num_files=FILES,
        chunk_bytes=UNITS_PER_CHUNK * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction), bundle.schema, bundle.block_fn, stores
    )
    return bundle, spec, index, stores


def run_hybrid(bundle, index, stores, local_cores=2, cloud_cores=2):
    runtime = CloudBurstingRuntime(
        bundle.app,
        index,
        stores,
        ComputeSpec(local_cores=local_cores, cloud_cores=cloud_cores),
        tuning=MiddlewareTuning(units_per_group=100),
    )
    return runtime.run()


def all_units(bundle, index, stores):
    reader = DatasetReader(index, stores)
    decoded = [bundle.app.decode_chunk(raw) for raw in reader.read_all_chunks()]
    return np.concatenate(decoded)


def test_knn_hybrid_matches_references():
    bundle, spec, index, stores = materialize("knn", dims=3, k=9)
    result = run_hybrid(bundle, index, stores)
    serial = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    assert result.value == serial
    units = all_units(bundle, index, stores)
    reference = knn_reference(units["id"], units["coords"], bundle.app.query, 9)
    assert result.value == reference
    assert result.telemetry.total_jobs == spec.num_chunks


def test_kmeans_hybrid_matches_references():
    bundle, spec, index, stores = materialize("kmeans", dims=2, k=5)
    result = run_hybrid(bundle, index, stores)
    units = all_units(bundle, index, stores)
    reference = kmeans_reference(units, bundle.app.centroids)
    np.testing.assert_allclose(result.value, reference, atol=1e-4)


def test_pagerank_hybrid_matches_references():
    bundle, spec, index, stores = materialize("pagerank")
    result = run_hybrid(bundle, index, stores)
    units = all_units(bundle, index, stores)
    reference = pagerank_reference(units, bundle.app.n_pages)
    np.testing.assert_allclose(result.value, reference, rtol=1e-9)
    assert result.value.sum() == pytest.approx(1.0)


def test_wordcount_hybrid_matches_references():
    bundle, spec, index, stores = materialize("wordcount", vocabulary=64)
    result = run_hybrid(bundle, index, stores)
    units = all_units(bundle, index, stores)
    assert result.value == wordcount_reference(units)
    assert sum(result.value.values()) == TOTAL_UNITS


def test_histogram_hybrid_matches_references():
    bundle, spec, index, stores = materialize("histogram", bins=32)
    result = run_hybrid(bundle, index, stores)
    units = all_units(bundle, index, stores)
    reference = histogram_reference(units, 32, bundle.app.lo, bundle.app.hi)
    np.testing.assert_array_equal(result.value, reference)
    assert result.value.sum() == TOTAL_UNITS


def test_skewed_placement_forces_stealing():
    bundle, spec, index, stores = materialize("knn", local_fraction=0.25, dims=3, k=4)
    result = run_hybrid(bundle, index, stores, local_cores=3, cloud_cores=1)
    # 3 local cores but only 1/4 of the data local: the local cluster must
    # fetch remote chunks; result stays correct.
    serial = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    assert result.value == serial
    assert result.telemetry.total_jobs == spec.num_chunks


def test_centralized_baseline_matches_hybrid():
    bundle, spec, index, stores = materialize("histogram", bins=16)
    hybrid = run_hybrid(bundle, index, stores)
    # The centralized baseline is the same middleware with one cluster:
    # all the data local, no cloud cores.
    bundle2, _, index2, stores2 = materialize(
        "histogram", local_fraction=1.0, bins=16
    )
    central = CloudBurstingRuntime(
        bundle2.app, index2, stores2, ComputeSpec(local_cores=2, cloud_cores=0)
    ).run()
    np.testing.assert_array_equal(hybrid.value, central.value)


def test_single_core_single_site_runtime():
    bundle, spec, index, stores = materialize("wordcount", local_fraction=1.0,
                                              vocabulary=16)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=1, cloud_cores=0)
    )
    result = runtime.run()
    assert sum(result.value.values()) == TOTAL_UNITS
    assert result.telemetry.total_stolen == 0


def test_iterative_kmeans_converges():
    bundle, spec, index, stores = materialize("kmeans", dims=2, k=4)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2)
    )
    result, passes = iterate_passes(
        lambda: runtime.run().value, bundle.app.update, iterations=30,
        tolerance=1e-3,
    )
    assert passes < 30  # converged before the cap
    # Fixed point: one more iteration barely moves the centroids.
    units = all_units(bundle, index, stores)
    again = kmeans_reference(units, np.asarray(result))
    np.testing.assert_allclose(again, result, atol=5e-3)


def test_iterative_pagerank_converges_to_stationary():
    bundle, spec, index, stores = materialize("pagerank")
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2)
    )
    result, passes = iterate_passes(
        lambda: runtime.run().value, bundle.app.update, iterations=60,
        tolerance=1e-10,
    )
    units = all_units(bundle, index, stores)
    reference = pagerank_reference(units, bundle.app.n_pages, iterations=passes)
    assert result.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(result, reference, atol=1e-8)


def test_telemetry_structure():
    bundle, spec, index, stores = materialize("knn", dims=3, k=4)
    result = run_hybrid(bundle, index, stores)
    assert set(result.telemetry.clusters) == {"local-cluster", "cloud-cluster"}
    for cluster in result.telemetry.clusters.values():
        assert cluster.slaves == 2
        assert cluster.jobs_processed >= 0
        assert cluster.mean_processing >= 0
        assert cluster.mean_retrieval >= 0
    assert result.telemetry.makespan > 0
    assert result.global_reduction_seconds >= 0
