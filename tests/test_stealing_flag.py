"""Tests for the allow_stealing switch (co-location-only baseline)."""

from __future__ import annotations

import pytest

from repro.bench.configs import env_config
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.index import build_index
from repro.core.scheduler import HeadScheduler

from conftest import small_spec, two_site

SCALE = 0.03


def test_scheduler_refuses_remote_jobs_when_disabled():
    spec = small_spec(record_bytes=4, files=4)
    index = build_index(spec, PlacementSpec(local_fraction=0.5))
    sched = HeadScheduler(index.jobs(), MiddlewareTuning(allow_stealing=False))
    sched.register_cluster("local-cluster", LOCAL_SITE)
    sched.register_cluster("cloud-cluster", CLOUD_SITE)
    # Drain the local cluster's own files.
    local_jobs = 0
    while True:
        group = sched.request_jobs("local-cluster", 4)
        if group is None:
            break
        assert group.site == LOCAL_SITE
        local_jobs += len(group)
    assert local_jobs == 8  # its two files only
    assert sched.clusters["local-cluster"].jobs_stolen == 0
    # Remote jobs remain for the cloud cluster.
    assert not sched.exhausted
    cloud = sched.request_jobs("cloud-cluster", 4)
    assert cloud is not None and cloud.site == CLOUD_SITE


def test_simulation_without_stealing_still_completes():
    config = env_config(
        "knn", "env-33/67", scale=SCALE,
        tuning=MiddlewareTuning(allow_stealing=False),
    )
    report = two_site("knn", *config).run()
    assert report.total_jobs == 960
    assert report.total_stolen == 0
    # The data-poor cluster finishes early and idles.
    local = report.cluster("local-cluster")
    assert local.idle > 0
    report.validate()


def test_no_stealing_is_slower_under_skew():
    base = two_site("knn", *env_config("knn", "env-17/83", scale=SCALE)).run()
    frozen = two_site("knn", *env_config(
        "knn", "env-17/83", scale=SCALE,
        tuning=MiddlewareTuning(allow_stealing=False),
    )).run()
    assert frozen.makespan > base.makespan
