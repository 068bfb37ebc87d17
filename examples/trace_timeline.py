#!/usr/bin/env python3
"""Scenario: where does the time actually go? Tracing a bursting run.

Attaches a trace recorder to a simulated env-33/67 knn run, then renders
a per-worker Gantt chart and a utilization table — the observability a
middleware operator needs to diagnose load imbalance and WAN stalls.

With ``--runtime`` the same event log, Gantt chart, and utilization
table come from a real threaded :class:`CloudBurstingRuntime` run over
an in-memory dataset instead of the simulator — the observability layer
is substrate-agnostic, so the two views read identically.

Run:  python examples/trace_timeline.py [--runtime]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import repro
from repro.bench.configs import env_config
from repro.obs import EventLog, render_gantt, utilization


def simulated_trace():
    trace = EventLog()
    # Scale down to 1/20 of the paper's data so the chart stays readable
    # (the job structure — 960 chunks, 32 files — is unchanged).
    dataset, config = env_config("knn", "env-33/67", scale=0.05)
    report = repro.run("knn", dataset, replace(config, trace=trace)).telemetry
    header = (f"env-33/67 knn (scaled): makespan {report.makespan:.1f} s, "
              f"{len(trace)} trace events")
    local_cores = 16
    return trace, report.makespan, header, local_cores


def runtime_trace():
    from repro.apps import make_bundle
    from repro.config import (
        CLOUD_SITE,
        LOCAL_SITE,
        ComputeSpec,
        DatasetSpec,
        PlacementSpec,
    )
    from repro.data.dataset import build_dataset
    from repro.obs import EventLog
    from repro.runtime.driver import CloudBurstingRuntime
    from repro.storage.objectstore import ObjectStore

    units, files, chunks_per_file = 4096, 4, 8
    bundle = make_bundle("knn", units, k=8)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=units * rb,
        num_files=files,
        chunk_bytes=units // (files * chunks_per_file) * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction=1 / 3), bundle.schema,
        bundle.block_fn, stores,
    )
    trace = EventLog()
    compute = ComputeSpec(local_cores=2, cloud_cores=4)
    CloudBurstingRuntime(
        bundle.app, index, stores, compute, trace=trace
    ).run()
    makespan = trace.makespan()
    header = (f"runtime knn, 1/3 of {units} units local: wall "
              f"{makespan:.3f} s, {len(trace)} trace events")
    return trace, makespan, header, compute.local_cores


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runtime", action="store_true",
        help="trace a real threaded run instead of the simulator",
    )
    args = parser.parse_args(argv)

    if args.runtime:
        trace, makespan, header, local_cores = runtime_trace()
    else:
        trace, makespan, header, local_cores = simulated_trace()

    print(header)
    print()
    print(render_gantt(trace, makespan, width=70))
    print()

    util = utilization(trace, makespan)
    local_workers = [w for w in util if w < local_cores]
    cloud_workers = [w for w in util if w >= local_cores]

    def mean(workers, key):
        return sum(util[w][key] for w in workers) / len(workers)

    print("Mean utilization by cluster:")
    for label, crew in (("local", local_workers), ("cloud", cloud_workers)):
        print(
            f"  {label:6s} retrieval {mean(crew, 'retrieval') * 100:5.1f}%  "
            f"processing {mean(crew, 'processing') * 100:5.1f}%  "
            f"idle {mean(crew, 'idle') * 100:5.1f}%"
        )
    print()
    if args.runtime:
        print(
            "Reading the chart: the same Gantt view, but timed with a wall "
            "clock over real threads — cloud workers (the later rows) chew "
            "through the 2/3 of the data placed on S3 while the two local "
            "cores steal what they can over the simulated-latency link."
        )
    else:
        print(
            "Reading the chart: local workers (w000-w015) stream the campus "
            "disk, then switch to slow WAN fetches once their files run out — "
            "the long 'r' stretches late in the run are the stolen S3 chunks."
        )


if __name__ == "__main__":
    main()
