"""Extension bench — the *executable* runtime exhibits Figure 3's shape.

The figure/table benches use the simulator; this bench cross-checks the
real middleware: actual threads, actual bytes, with wall-clock traffic
shaping standing in for the WAN (slow shaped GETs for the "cloud" store).
At laptop scale it verifies the same qualitative ordering the paper
measured at testbed scale: centralized-local is fastest, and the hybrid's
penalty grows as data skews toward the remote store.

Wall-clock assertions are deliberately loose (2x bands) — this is a shape
check, not a timing benchmark. The per-cluster decomposition (processing,
retrieval, sync, idle) is asserted on relations that hold by construction
or by a wide margin: every pass validates, idle never exceeds sync, the
hybrid cluster that finished processing first is the one that idled, and
centralized-local spends the smallest share of its time retrieving.
"""

from __future__ import annotations

import pytest

from repro.apps import make_bundle
from repro.cli import _cluster_table
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.data.dataset import build_dataset
from repro.runtime.driver import CloudBurstingRuntime
from repro.obs.record import RunTelemetry
from repro.storage.objectstore import ObjectStore, TrafficShaper

from conftest import print_block

TOTAL_UNITS = 8192
FILES = 8
CHUNKS_PER_FILE = 4

#: "WAN": 40 ms per GET and ~2 MB/s per connection, vs an unshaped local
#: store — the same asymmetry the calibration gives the simulator.
WAN_SHAPER = TrafficShaper(request_latency=0.040, bandwidth=2 * 1024 * 1024)


def run_env(
    local_fraction: float, local_cores: int, cloud_cores: int
) -> RunTelemetry:
    bundle = make_bundle("histogram", TOTAL_UNITS, bins=64)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=TOTAL_UNITS * rb,
        num_files=FILES,
        chunk_bytes=(TOTAL_UNITS // (FILES * CHUNKS_PER_FILE)) * rb,
        record_bytes=rb,
    )
    stores = {
        LOCAL_SITE: ObjectStore(),
        CLOUD_SITE: ObjectStore(shaper=WAN_SHAPER),
    }
    index = build_dataset(
        spec, PlacementSpec(local_fraction), bundle.schema, bundle.block_fn,
        stores,
    )
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=local_cores, cloud_cores=cloud_cores),
        tuning=MiddlewareTuning(retrieval_threads=4),
    )
    result = runtime.run()
    assert result.value.sum() == TOTAL_UNITS  # every unit counted once
    return result.telemetry


def retrieval_share(telemetry: RunTelemetry) -> float:
    """Summed mean retrieval over summed bar heights, across clusters."""
    clusters = telemetry.clusters.values()
    return sum(c.mean_retrieval for c in clusters) / sum(c.total for c in clusters)


@pytest.mark.benchmark(group="runtime-shape")
def test_runtime_reproduces_hybrid_ordering(benchmark):
    def sweep():
        return {
            "env-local": run_env(1.0, 4, 0),
            "env-50/50": run_env(0.5, 2, 2),
            "env-25/75": run_env(0.25, 2, 2),
        }

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    walls = {env: t.makespan for env, t in runs.items()}
    print_block(
        "Executable runtime, shaped stores (seconds of wall time):\n"
        + "\n".join(
            f"{env} {t.makespan:.3f}s, retrieval share "
            f"{retrieval_share(t):.0%}\n{_cluster_table(t, 'cluster', idle=True)}"
            for env, t in runs.items()
        )
    )
    for env, t in runs.items():
        t.validate()
        assert all(c.idle <= c.sync for c in t.clusters.values()), env
        if len(t.clusters) == 2:
            # Whoever ran out of jobs first waited for the other.
            first = min(t.clusters.values(), key=lambda c: c.processing_end)
            assert first.idle == max(c.idle for c in t.clusters.values()), env
    # An unshaped local store: the least time spent retrieving.
    assert retrieval_share(runs["env-local"]) < retrieval_share(runs["env-50/50"])
    assert retrieval_share(runs["env-local"]) < retrieval_share(runs["env-25/75"])
    # Centralized local (unshaped store) beats both hybrids, whose slaves
    # pay real shaped latency for remote chunks.
    assert walls["env-local"] < walls["env-50/50"]
    assert walls["env-local"] < walls["env-25/75"]
    # More skew -> more shaped GETs -> slower (loose band: scheduling noise).
    assert walls["env-25/75"] > walls["env-50/50"] * 0.8
