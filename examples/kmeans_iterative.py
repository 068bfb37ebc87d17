#!/usr/bin/env python3
"""Scenario: iterative k-means clustering over a hybrid data placement.

The paper evaluates one Lloyd iteration (the middleware's unit of
execution); real clustering runs iterate to convergence. This example
drives the executable runtime through the shared pass loop
(``iterate_passes``): each pass is a full cloud-bursting execution
(head/master/slave, work stealing, global reduction), and the resulting
centroids feed the next pass.

Run:  python examples/kmeans_iterative.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CLOUD_SITE,
    LOCAL_SITE,
    CloudBurstingRuntime,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
    make_bundle,
)
from repro.core.api import iterate_passes
from repro.data.dataset import build_dataset
from repro.storage.objectstore import ObjectStore

POINTS = 32_768
TRUE_CENTERS = 6


def main() -> None:
    bundle = make_bundle(
        "kmeans", POINTS, dims=2, k=TRUE_CENTERS, centers=TRUE_CENTERS
    )
    record = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=POINTS * record,
        num_files=8,
        chunk_bytes=1024 * record,
        record_bytes=record,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    # Most of the data lives in the cloud: the campus keeps 25%.
    index = build_dataset(
        spec, PlacementSpec(local_fraction=0.25), bundle.schema, bundle.block_fn,
        stores,
    )
    print(f"Clustering {POINTS} points into {TRUE_CENTERS} clusters,")
    print("25% of data on campus, 75% in the object store, 2+2 cores.")
    print()
    history = []

    def update(centroids: np.ndarray) -> None:
        history.append(np.asarray(centroids).copy())
        bundle.app.update(centroids)

    with CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2)
    ) as runtime:
        final, passes = iterate_passes(
            lambda: runtime.run().value, update, iterations=40, tolerance=1e-4
        )
    print(f"Converged after {passes} cloud-bursting passes.")
    print("Final centroids:")
    for i, c in enumerate(np.asarray(final)):
        print(f"  cluster {i}: ({c[0]:+.4f}, {c[1]:+.4f})")
    if len(history) >= 2:
        moves = [
            float(np.max(np.abs(a - b))) for a, b in zip(history, history[1:])
        ]
        print()
        print("Max centroid movement per pass:")
        for i, move in enumerate(moves[:10], start=2):
            print(f"  pass {i:2d}: {move:.6f}")


if __name__ == "__main__":
    main()
