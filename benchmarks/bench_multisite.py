"""Extension bench — bursting across two cloud providers.

Section II claims the framework "will also be applicable if the data
and/or processing power is spread across two different cloud providers."
This bench runs that experiment at the paper's dataset scale: the 120 GB
knn dataset split campus / provider-A / provider-B, compute drawn from all
three, with provider-B's cores slower and its WAN to the campus head
narrower. The scheduling policy needs no modification — the claim the
bench demonstrates.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import paper_dataset
from repro.bench.reporting import render_table
from repro.cluster.variability import EC2_VARIABILITY
from repro.sim.multisite import (
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)
from repro.sim.storagemodel import StorePath
from repro.units import MB

from conftest import print_block


def _paths():
    campus = StorePath(name="campus-disk", bandwidth=600 * MB,
                       per_connection_cap=18 * MB, request_latency=0.0005,
                       seek_time=0.008, random_penalty=1.6)
    provider_a = StorePath(name="providerA-store", bandwidth=700 * MB,
                           per_connection_cap=5 * MB, request_latency=0.045)
    provider_b = StorePath(name="providerB-store", bandwidth=500 * MB,
                           per_connection_cap=4 * MB, request_latency=0.055)
    wan_fast = StorePath(name="wan-fast", bandwidth=120 * MB,
                         per_connection_cap=3 * MB, request_latency=0.065,
                         file_service_cap=64 * MB)
    wan_slow = StorePath(name="wan-slow", bandwidth=70 * MB,
                         per_connection_cap=2 * MB, request_latency=0.090,
                         file_service_cap=48 * MB)
    return campus, provider_a, provider_b, wan_fast, wan_slow


def two_provider_config(seed: int = 2011) -> MultiSiteConfig:
    campus, pa, pb, wan_fast, wan_slow = _paths()
    sites = (
        SiteSpec(name="campus", cores=16, data_files=10, storage=campus),
        SiteSpec(name="provider-a", cores=8, data_files=12, storage=pa,
                 compute_slowdown=1.1, variability=EC2_VARIABILITY,
                 intra_bandwidth=400 * MB),
        SiteSpec(name="provider-b", cores=8, data_files=10, storage=pb,
                 compute_slowdown=1.25, variability=EC2_VARIABILITY,
                 intra_bandwidth=300 * MB),
    )
    names = [s.name for s in sites]
    cross = tuple(
        CrossPath(src=a, dst=b,
                  path=wan_slow if "provider-b" in (a, b) else wan_fast)
        for a in names for b in names if a != b
    )
    return MultiSiteConfig(
        name="two-providers",
        app="knn",
        dataset=paper_dataset("knn"),
        sites=sites,
        cross_paths=cross,
        head_site="campus",
        seed=seed,
    )


@pytest.mark.benchmark(group="multisite")
def test_two_cloud_providers(benchmark):
    report = benchmark.pedantic(
        lambda: MultiSiteSimulation(two_provider_config()).run(),
        rounds=1, iterations=1,
    )
    rows = [
        (c.site, c.slaves, c.jobs_processed, c.jobs_stolen,
         f"{c.mean_processing:.1f}", f"{c.mean_retrieval:.1f}",
         f"{c.sync:.1f}")
        for c in report.clusters.values()
    ]
    print_block(
        f"Two-provider bursting (knn, 120 GB): makespan {report.makespan:.1f} s, "
        f"global reduction {report.global_reduction:.3f} s\n"
        + render_table(
            ("site", "slaves", "jobs", "stolen", "proc", "retr", "sync"), rows
        )
    )
    # Every job processed exactly once across the three sites.
    assert report.total_jobs == 960
    # All three sites contribute meaningfully (pooling balances throughput,
    # not core counts: campus has 2x the cores of each provider).
    jobs = {c.site: c.jobs_processed for c in report.clusters.values()}
    assert all(count > 100 for count in jobs.values()), jobs
    assert jobs["campus"] > jobs["provider-b"]
    # The run completes in the same regime as two-site hybrids (no
    # pathological serialization across providers).
    assert report.makespan < 800.0
    report.validate()
