"""Tests for the N-site generalization (Section II's two-providers claim)."""

from __future__ import annotations

import pytest

from repro.config import DatasetSpec, MiddlewareTuning
from repro.errors import ConfigurationError, SimulationError
from repro.sim.multisite import (
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)
from repro.sim.storagemodel import StorePath
from repro.units import MB


def storage(name, bandwidth_mb=200, conn_mb=20):
    return StorePath(
        name=name,
        bandwidth=bandwidth_mb * MB,
        per_connection_cap=conn_mb * MB,
        request_latency=0.001,
    )


def wan(name, bandwidth_mb=40, conn_mb=3):
    return StorePath(
        name=name,
        bandwidth=bandwidth_mb * MB,
        per_connection_cap=conn_mb * MB,
        request_latency=0.05,
    )


def small_dataset(files=6, chunks_per_file=4):
    # files x chunks x 1 MB
    return DatasetSpec(
        total_bytes=files * chunks_per_file * MB,
        num_files=files,
        chunk_bytes=1 * MB,
        record_bytes=4,
    )


def three_provider_config(**overrides):
    """Campus + two cloud providers, data split evenly."""
    sites = (
        SiteSpec(name="campus", cores=4, data_files=2, storage=storage("campus")),
        SiteSpec(name="aws", cores=4, data_files=2, storage=storage("aws"),
                 compute_slowdown=1.2),
        SiteSpec(name="azure", cores=4, data_files=2, storage=storage("azure"),
                 compute_slowdown=1.3),
    )
    cross = tuple(
        CrossPath(src=a, dst=b, path=wan(f"{a}->{b}"))
        for a in ("campus", "aws", "azure")
        for b in ("campus", "aws", "azure")
        if a != b
    )
    params = dict(
        name="three-provider",
        app="knn",
        dataset=small_dataset(),
        sites=sites,
        cross_paths=cross,
        head_site="campus",
    )
    params.update(overrides)
    return MultiSiteConfig(**params)


def test_three_sites_process_every_job():
    report = MultiSiteSimulation(three_provider_config()).run()
    assert report.total_jobs == 24
    assert set(report.clusters) == {
        "campus-cluster", "aws-cluster", "azure-cluster"
    }
    report.validate()


def test_deterministic():
    a = MultiSiteSimulation(three_provider_config()).run()
    b = MultiSiteSimulation(three_provider_config()).run()
    assert a.makespan == b.makespan
    assert a.events_processed == b.events_processed


def test_cross_provider_stealing():
    """A site with compute but no data steals from the other providers."""
    config = three_provider_config(
        sites=(
            SiteSpec(name="campus", cores=2, data_files=0,
                     storage=storage("campus")),
            SiteSpec(name="aws", cores=2, data_files=3, storage=storage("aws")),
            SiteSpec(name="azure", cores=2, data_files=3,
                     storage=storage("azure")),
        ),
    )
    report = MultiSiteSimulation(config).run()
    campus = report.cluster("campus-cluster")
    assert campus.jobs_processed > 0
    assert campus.jobs_stolen == campus.jobs_processed  # all remote
    assert report.total_jobs == 24


def test_site_without_compute_contributes_data_only():
    config = three_provider_config(
        sites=(
            SiteSpec(name="campus", cores=6, data_files=2,
                     storage=storage("campus")),
            SiteSpec(name="aws", cores=6, data_files=2, storage=storage("aws")),
            SiteSpec(name="azure", cores=0, data_files=2,
                     storage=storage("azure")),
        ),
    )
    report = MultiSiteSimulation(config).run()
    assert set(report.clusters) == {"campus-cluster", "aws-cluster"}
    assert report.total_jobs == 24  # azure's files processed remotely


def test_slower_provider_gets_fewer_jobs():
    config = three_provider_config(
        app="kmeans",
        dataset=small_dataset(files=6, chunks_per_file=16),
        sites=(
            SiteSpec(name="campus", cores=4, data_files=2,
                     storage=storage("campus")),
            SiteSpec(name="aws", cores=4, data_files=2, storage=storage("aws"),
                     compute_slowdown=1.0),
            SiteSpec(name="azure", cores=4, data_files=2,
                     storage=storage("azure"), compute_slowdown=3.0),
        ),
        # Small groups so the head retains jobs the fast providers can
        # steal once their own files are drained (large groups would let
        # each master hoard its whole site's jobs up front).
        tuning=MiddlewareTuning(job_group_size=2, pool_low_water=0),
    )
    report = MultiSiteSimulation(config).run()
    azure = report.cluster("azure-cluster")
    aws = report.cluster("aws-cluster")
    # Pooling load balancing: the 3x-slower provider processes fewer jobs,
    # and the fast providers steal its surplus.
    assert azure.jobs_processed < aws.jobs_processed
    assert aws.jobs_stolen + report.cluster("campus-cluster").jobs_stolen > 0


def test_missing_cross_path_is_reported():
    config = three_provider_config(cross_paths=())
    with pytest.raises(SimulationError, match="CrossPath|path"):
        MultiSiteSimulation(config).run()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MultiSiteConfig(name="x", app="knn", dataset=small_dataset(), sites=())
    # files must sum to the dataset's file count
    with pytest.raises(ConfigurationError):
        three_provider_config(dataset=small_dataset(files=7))
    # duplicate site names
    with pytest.raises(ConfigurationError):
        three_provider_config(
            sites=(
                SiteSpec(name="campus", cores=2, data_files=3,
                         storage=storage("a")),
                SiteSpec(name="campus", cores=2, data_files=3,
                         storage=storage("b")),
            )
        )
    # unknown head site
    with pytest.raises(ConfigurationError):
        three_provider_config(head_site="gcp")
    with pytest.raises(ConfigurationError):
        SiteSpec(name="", cores=1, data_files=0, storage=storage("x"))
    with pytest.raises(ConfigurationError):
        SiteSpec(name="x", cores=1, data_files=0, storage=storage("x"),
                 compute_slowdown=0)


def test_two_site_special_case_matches_shape():
    """With two sites the N-site machinery reproduces the familiar shape:
    hybrid slower than an all-at-one-site run with the same total cores."""
    local_only = MultiSiteConfig(
        name="central",
        app="knn",
        dataset=small_dataset(),
        sites=(
            SiteSpec(name="campus", cores=8, data_files=6,
                     storage=storage("campus")),
        ),
    )
    central = MultiSiteSimulation(local_only).run()
    hybrid_config = three_provider_config(
        sites=(
            SiteSpec(name="campus", cores=4, data_files=1,
                     storage=storage("campus")),
            SiteSpec(name="aws", cores=4, data_files=5, storage=storage("aws")),
            SiteSpec(name="azure", cores=0, data_files=0,
                     storage=storage("azure")),
        ),
    )
    hybrid = MultiSiteSimulation(hybrid_config).run()
    assert hybrid.total_jobs == central.total_jobs == 24
    # Skewed hybrid pays a WAN penalty.
    assert hybrid.makespan > central.makespan


def test_head_at_remote_provider():
    config = three_provider_config(head_site="aws")
    report = MultiSiteSimulation(config).run()
    assert report.total_jobs == 24
    report.validate()


def test_multisite_trace():
    from repro.obs import EventLog, critical_path, utilization

    trace = EventLog()
    report = MultiSiteSimulation(three_provider_config(), trace=trace).run()
    assert len(trace.of_kind("job_done")) == 24
    util = utilization(trace, report.makespan)
    assert len(util) == 12  # 4 cores x 3 sites
    for parts in util.values():
        assert parts["retrieval"] + parts["processing"] + parts["idle"] == (
            pytest.approx(1.0, abs=1e-6)
        )
    # The reduction tail and the scheduler's steals are on the timeline
    # too, so the span analyses work on N-site runs.
    for kind in ("combine_done", "robj_sent", "merge_done"):
        assert sorted(e.cluster for e in trace.of_kind(kind)) == sorted(
            report.clusters
        )
    assert trace.of_kind("steal")
    segments = critical_path(trace, report.makespan)
    assert segments[0].start == 0.0
    assert segments[-1].end == report.makespan
    for left, right in zip(segments, segments[1:]):
        assert left.end == right.start


def test_cached_second_pass_touches_no_network():
    from repro.cache import ChunkCache

    sim = MultiSiteSimulation(three_provider_config(), cache=ChunkCache(1 << 30))
    cold, warm = sim.run(), sim.run()
    assert cold.cache_hits == 0 and cold.cache_misses > 0
    assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses
    assert warm.makespan < cold.makespan


def test_faults_and_static_assignment_on_n_sites():
    from repro.resilience.faults import FaultSpec

    plain = MultiSiteSimulation(three_provider_config()).run()
    sim = MultiSiteSimulation(
        three_provider_config(),
        faults=FaultSpec(latency_rate=0.5, latency_seconds=0.2),
    )
    faulty = sim.run()
    assert faulty.faults_injected == sim.faults_injected > 0
    assert faulty.makespan > plain.makespan
    static = MultiSiteSimulation(
        three_provider_config(), static_assignment=True
    ).run()
    assert static.total_jobs == 24
    # Dealt round-robin up front: every cluster gets the same share.
    assert {c.jobs_processed for c in static.clusters.values()} == {8}


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ("campus", "nowhere", "'nowhere' is not a site"),
        ("nowhere", "aws", "'nowhere' is not a site"),
        ("aws", "aws", "'aws' -> 'aws': same-site"),
        ("campus", "aws", "duplicate cross path 'campus' -> 'aws'"),
    ],
)
def test_cross_paths_validated_at_construction(src, dst, message):
    base = three_provider_config()
    bad = base.cross_paths + (CrossPath(src=src, dst=dst, path=wan("bad")),)
    with pytest.raises(ConfigurationError, match=message):
        three_provider_config(cross_paths=bad)
