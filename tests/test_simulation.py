"""Integration tests for the end-to-end cloud-bursting simulation.

These run the paper's configurations at reduced data scale (same 960-job
structure, smaller chunks) so the whole file executes in seconds, and
check the *accounting invariants* and *qualitative shapes* rather than
absolute times.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import env_config, figure4_configs
from repro.config import CLOUD_SITE, LOCAL_SITE
from repro.errors import SimulationError
from repro.sim.calibration import PAPER_CALIBRATION

from conftest import two_site

SCALE = 0.05  # 960 jobs of 6.4 MB instead of 128 MB


@pytest.fixture(scope="module")
def knn_hybrid():
    return two_site("knn", *env_config("knn", "env-50/50", scale=SCALE)).run()


def test_every_job_processed_once(knn_hybrid):
    assert knn_hybrid.total_jobs == 960


def test_accounting_invariants(knn_hybrid):
    report = knn_hybrid
    report.validate()
    for cluster in report.clusters.values():
        assert cluster.total == pytest.approx(report.makespan, rel=1e-9)
        assert cluster.mean_processing > 0
        assert cluster.mean_retrieval > 0
        assert cluster.sync >= 0
        assert cluster.processing_end <= cluster.combine_done <= cluster.robj_arrival
    assert report.global_reduction >= 0


def test_simulation_deterministic():
    a = two_site("knn", *env_config("knn", "env-33/67", scale=SCALE)).run()
    b = two_site("knn", *env_config("knn", "env-33/67", scale=SCALE)).run()
    assert a.makespan == b.makespan
    assert a.events_processed == b.events_processed
    assert {n: c.jobs_processed for n, c in a.clusters.items()} == {
        n: c.jobs_processed for n, c in b.clusters.items()
    }


def test_seed_changes_outcome_slightly():
    a = two_site("knn", *env_config("knn", "env-33/67", scale=SCALE, seed=1)).run()
    b = two_site("knn", *env_config("knn", "env-33/67", scale=SCALE, seed=2)).run()
    assert a.makespan != b.makespan
    # But not wildly: same configuration, same resources.
    assert abs(a.makespan - b.makespan) / a.makespan < 0.2


def test_single_cluster_baselines_have_no_idle_or_transfer():
    local = two_site("knn", *env_config("knn", "env-local", scale=SCALE)).run()
    assert set(local.clusters) == {"local-cluster"}
    cluster = local.cluster("local-cluster")
    assert cluster.idle == 0.0
    assert cluster.jobs_stolen == 0
    # Single-cluster global reduction is merge-only (no WAN push).
    assert local.global_reduction < 0.1

    cloud = two_site("knn", *env_config("knn", "env-cloud", scale=SCALE)).run()
    assert set(cloud.clusters) == {"cloud-cluster"}
    assert cloud.cluster("cloud-cluster").jobs_stolen == 0


def test_a_lone_root_pays_its_upload_only_off_the_head_site():
    # The head sits on the local site: a lone local root hands its object
    # over where it is, a lone cloud root ships it across the WAN, as the
    # layout's ``cross_site`` rule, the runtime's too, counts it.
    local = two_site("knn", *env_config("knn", "env-local", scale=SCALE)).run()
    cluster = local.cluster("local-cluster")
    assert cluster.robj_arrival == cluster.combine_done
    cloud = two_site("knn", *env_config("knn", "env-cloud", scale=SCALE)).run()
    cluster = cloud.cluster("cloud-cluster")
    assert cluster.robj_arrival > cluster.combine_done


def test_stealing_grows_with_skew():
    stolen = {}
    for env in ("env-50/50", "env-33/67", "env-17/83"):
        report = two_site("knn", *env_config("knn", env, scale=SCALE)).run()
        local = report.cluster("local-cluster")
        stolen[env] = local.jobs_stolen
    assert stolen["env-50/50"] <= stolen["env-33/67"] <= stolen["env-17/83"]
    assert stolen["env-17/83"] > 0


def test_cloud_cluster_never_counts_local_steals_in_hybrid():
    """In hybrid knn runs the cloud side has ample S3 data of its own."""
    report = two_site("knn", *env_config("knn", "env-17/83", scale=SCALE)).run()
    assert report.cluster("cloud-cluster").jobs_stolen == 0


def test_pagerank_global_reduction_dominated_by_robj_transfer():
    knn = two_site("knn", *env_config("knn", "env-50/50", scale=SCALE)).run()
    pagerank = two_site(
        "pagerank", *env_config("pagerank", "env-50/50", scale=SCALE)
    ).run()
    assert pagerank.global_reduction > 100 * knn.global_reduction
    # ~300 MB at the WAN per-flow rate: tens of seconds.
    assert 10.0 < pagerank.global_reduction < 120.0


def test_unassigned_jobs_detected():
    sim = two_site("knn", *env_config("knn", "env-local", scale=SCALE))
    # Sanity: a full run assigns everything (no exception).
    report = sim.run()
    assert report.total_jobs == 960


def test_scalability_monotone():
    prev = None
    for name, config in figure4_configs("kmeans", scale=SCALE).items():
        report = two_site("kmeans", *config).run()
        if prev is not None:
            assert report.makespan < prev
        prev = report.makespan


def test_ec2_variability_increases_spread():
    calm = PAPER_CALIBRATION.with_changes(
        cloud_variability=PAPER_CALIBRATION.local_variability
    )
    jittery = PAPER_CALIBRATION
    config = env_config("kmeans", "env-cloud", scale=SCALE)
    calm_report = two_site("kmeans", *config, calm).run()
    jittery_report = two_site("kmeans", *config, jittery).run()
    # More per-job variance -> larger end-of-run barrier (sync).
    assert (
        jittery_report.cluster("cloud-cluster").sync
        >= calm_report.cluster("cloud-cluster").sync
    )
