#!/usr/bin/env python3
"""Writing your own Generalized Reduction application.

The paper's API asks the developer for three things: a reduction object,
a local reduction, and (optionally) a global reduction. This example
implements **streaming linear regression** — fit y = a*x + b over records
scattered across two sites — by accumulating the sufficient statistics
(n, Σx, Σy, Σxx, Σxy) in an ArrayReduction. The middleware handles chunk
retrieval, work stealing, and merging; the app never sees the
distribution.

Run:  python examples/custom_app.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CLOUD_SITE,
    LOCAL_SITE,
    CloudBurstingRuntime,
    ComputeSpec,
    DatasetSpec,
    GeneralizedReductionApp,
    PlacementSpec,
)
from repro.core.reduction import ArrayReduction
from repro.data.dataset import build_dataset
from repro.data.records import RecordSchema
from repro.storage.objectstore import ObjectStore

TRUE_A, TRUE_B = 2.5, -0.7

#: one record = (x, y) as float64
XY_SCHEMA = RecordSchema(name="xy", dtype=np.dtype(np.float64), columns=2)


class LinearRegressionApp(GeneralizedReductionApp):
    """Least-squares fit via sufficient statistics.

    Reduction object: [n, sum_x, sum_y, sum_xx, sum_xy]. Merging is plain
    addition, so the result is independent of how the runtime partitions
    the data — the API's core contract.
    """

    name = "linreg"

    def create_reduction_object(self) -> ArrayReduction:
        return ArrayReduction((5,), dtype=np.float64)

    def local_reduction(self, robj, units: np.ndarray) -> None:
        x = units[:, 0]
        y = units[:, 1]
        robj.data += np.array(
            [len(x), x.sum(), y.sum(), (x * x).sum(), (x * y).sum()]
        )

    def finalize(self, robj) -> tuple[float, float]:
        n, sx, sy, sxx, sxy = robj.value()
        denom = n * sxx - sx * sx
        a = (n * sxy - sx * sy) / denom
        b = (sy - a * sx) / n
        return float(a), float(b)

    def decode_chunk(self, raw: bytes) -> np.ndarray:
        return XY_SCHEMA.decode(raw)


def noisy_line_block(start: int, count: int, block_index: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + start)
    x = rng.uniform(-3.0, 3.0, size=count)
    y = TRUE_A * x + TRUE_B + rng.normal(0.0, 0.3, size=count)
    return np.stack([x, y], axis=1)


def main() -> None:
    points = 65_536
    spec = DatasetSpec(
        total_bytes=points * XY_SCHEMA.record_bytes,
        num_files=8,
        chunk_bytes=2048 * XY_SCHEMA.record_bytes,
        record_bytes=XY_SCHEMA.record_bytes,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction=0.5), XY_SCHEMA, noisy_line_block,
        stores,
    )
    runtime = CloudBurstingRuntime(
        LinearRegressionApp(), index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
    )
    result = runtime.run()
    a, b = result.value
    print(f"Fitted  y = {a:.4f} x + {b:.4f}")
    print(f"Truth   y = {TRUE_A:.4f} x + {TRUE_B:.4f}")
    assert abs(a - TRUE_A) < 0.02 and abs(b - TRUE_B) < 0.02
    print()
    for name, cluster in result.telemetry.clusters.items():
        print(f"{name}: {cluster.jobs_processed} chunks processed, "
              f"{cluster.jobs_stolen} stolen")
    print("(the app never mentioned sites, chunks, or transfers)")


if __name__ == "__main__":
    main()
