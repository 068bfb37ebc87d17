#!/usr/bin/env python3
"""Scenario: bursting across two cloud providers.

Section II of the paper: "our solution will also be applicable if the
data and/or processing power is spread across two different cloud
providers." A lab's dataset has grown across its campus storage node,
an AWS-like provider, and a second, cheaper-but-slower provider; compute
is drawn from all three. The head scheduler needs no changes — pooling
load balancing and minimum-contention stealing just see three clusters.

Run:  python examples/two_providers.py
"""

from __future__ import annotations

from repro.bench.configs import paper_dataset
from repro.cluster.variability import EC2_VARIABILITY
from repro.sim.multisite import (
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)
from repro.sim.storagemodel import StorePath
from repro.units import MB


def main() -> None:
    campus_disk = StorePath(name="campus-disk", bandwidth=600 * MB,
                            per_connection_cap=18 * MB, request_latency=0.0005,
                            seek_time=0.008, random_penalty=1.6)
    provider_a = StorePath(name="providerA", bandwidth=700 * MB,
                           per_connection_cap=5 * MB, request_latency=0.045)
    provider_b = StorePath(name="providerB", bandwidth=500 * MB,
                           per_connection_cap=4 * MB, request_latency=0.055)
    wan = StorePath(name="wan", bandwidth=120 * MB, per_connection_cap=3 * MB,
                    request_latency=0.065, file_service_cap=64 * MB)

    sites = (
        SiteSpec(name="campus", cores=16, data_files=10, storage=campus_disk),
        SiteSpec(name="provider-a", cores=12, data_files=12, storage=provider_a,
                 compute_slowdown=1.1, variability=EC2_VARIABILITY,
                 intra_bandwidth=400 * MB),
        SiteSpec(name="provider-b", cores=12, data_files=10, storage=provider_b,
                 compute_slowdown=1.25, variability=EC2_VARIABILITY,
                 intra_bandwidth=300 * MB),
    )
    names = [s.name for s in sites]
    config = MultiSiteConfig(
        name="two-providers",
        app="pagerank",
        dataset=paper_dataset("pagerank"),
        sites=sites,
        cross_paths=tuple(
            CrossPath(src=a, dst=b, path=wan)
            for a in names for b in names if a != b
        ),
        head_site="campus",
    )

    print("Simulating PageRank over campus + two cloud providers (120 GB)...")
    report = MultiSiteSimulation(config).run()
    print(f"makespan: {report.makespan:.1f} s")
    print(f"global reduction (two ~300 MB objects over the WAN): "
          f"{report.global_reduction:.1f} s")
    print()
    print(f"{'site':>12s} {'slaves':>6s} {'jobs':>5s} {'stolen':>6s} "
          f"{'proc':>7s} {'retr':>7s} {'sync':>7s}")
    for cluster in report.clusters.values():
        print(
            f"{cluster.site:>12s} {cluster.slaves:6d} "
            f"{cluster.jobs_processed:5d} {cluster.jobs_stolen:6d} "
            f"{cluster.mean_processing:6.1f}s {cluster.mean_retrieval:6.1f}s "
            f"{cluster.sync:6.1f}s"
        )
    print()
    print(
        "Note the global reduction: with TWO remote clusters, two ~300 MB "
        "reduction objects cross the WAN — the paper's fixed-cost warning "
        "compounds with every additional provider."
    )


if __name__ == "__main__":
    main()
