#!/usr/bin/env python3
"""Quickstart: run a Generalized Reduction application with cloud bursting.

Two ways to use the library, both shown below:

1. the **executable runtime** — real data, real threads, functional
   results (here: k-nearest neighbors over a dataset split between a
   "campus" store and an S3-like object store);
2. the **simulator** — the paper's testbed at full 120 GB scale, modeled,
   to predict performance of any configuration in under a second.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CLOUD_SITE,
    LOCAL_SITE,
    CloudBurstingRuntime,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
    env_config,
    make_bundle,
    simulate,
)
from repro.data.dataset import build_dataset
from repro.storage.objectstore import ObjectStore


def run_executable_runtime() -> None:
    print("=== 1. Executable runtime: knn over a hybrid data placement ===")
    # An application bundle: the app, its record schema, and a synthetic
    # data generator sized to 16k reference points.
    bundle = make_bundle("knn", 16_384, dims=4, k=10)
    record = bundle.schema.record_bytes

    # Dataset shape: 8 files x 4 chunks; half the files stay "local", the
    # rest go to the cloud object store.
    spec = DatasetSpec(
        total_bytes=16_384 * record,
        num_files=8,
        chunk_bytes=512 * record,
        record_bytes=record,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction=0.5), bundle.schema, bundle.block_fn,
        stores,
    )

    # Burst: two local cores plus two cloud cores.
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2)
    )
    result = runtime.run()

    print(f"10 nearest neighbors of the query point {bundle.app.query}:")
    for distance, point_id in result.value[:5]:
        print(f"  point {point_id:6d}  squared distance {distance:.5f}")
    print("  ...")
    for name, cluster in result.telemetry.clusters.items():
        print(
            f"{name}: {cluster.jobs_processed} jobs ({cluster.jobs_stolen} stolen), "
            f"processing {cluster.mean_processing * 1000:.1f} ms/slave, "
            f"retrieval {cluster.mean_retrieval * 1000:.1f} ms/slave"
        )
    print(f"wall time: {result.telemetry.wall_seconds:.3f} s")


def run_simulator() -> None:
    print()
    print("=== 2. Simulator: the paper's env-33/67 at full 120 GB scale ===")
    report = simulate(env_config("knn", "env-33/67"))
    print(f"makespan: {report.makespan:.1f} simulated seconds")
    print(f"global reduction: {report.global_reduction * 1000:.1f} ms")
    for name, cluster in report.clusters.items():
        print(
            f"{name}: {cluster.jobs_processed} jobs "
            f"({cluster.jobs_stolen} stolen), "
            f"processing {cluster.mean_processing:.1f} s, "
            f"retrieval {cluster.mean_retrieval:.1f} s, "
            f"sync {cluster.sync:.1f} s"
        )


if __name__ == "__main__":
    run_executable_runtime()
    run_simulator()
