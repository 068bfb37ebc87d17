"""Tests for the simulated compute cost model."""

from __future__ import annotations

import math

import pytest

from repro.apps.base import AppProfile
from repro.cluster.variability import VariabilityModel
from repro.config import CLOUD_SITE, LOCAL_SITE
from repro.errors import ConfigurationError, SimulationError
from repro.sim.computemodel import ComputeModel


def profile(cloud_slowdown=1.5):
    return AppProfile(
        key="t",
        unit_cost_local=2.0e-6,
        cloud_slowdown=cloud_slowdown,
        robj_bytes=1024,
        record_bytes=8,
    )


def exact_model(cloud_slowdown=1.5):
    return ComputeModel(
        profile=profile(cloud_slowdown),
        variability={
            LOCAL_SITE: VariabilityModel(sigma=0.0),
            CLOUD_SITE: VariabilityModel(sigma=0.0),
        },
        site_slowdowns={LOCAL_SITE: 1.0, CLOUD_SITE: cloud_slowdown},
    )


def test_job_seconds_scales_with_units_and_site():
    model = exact_model()
    local = model.job_seconds(LOCAL_SITE, 0, 1_000_000)
    cloud = model.job_seconds(CLOUD_SITE, 0, 1_000_000)
    assert local == pytest.approx(2.0)
    assert cloud == pytest.approx(3.0)
    with pytest.raises(SimulationError):
        model.job_seconds(LOCAL_SITE, 0, -1)


def test_jitter_deterministic_per_worker():
    model = ComputeModel(
        profile=profile(),
        variability={
            LOCAL_SITE: VariabilityModel(sigma=0.2, seed=1),
            CLOUD_SITE: VariabilityModel(sigma=0.2, seed=1),
        },
        site_slowdowns={LOCAL_SITE: 1.0, CLOUD_SITE: 1.5},
    )
    a = [model.job_seconds(CLOUD_SITE, 7, 100) for _ in range(3)]
    model2 = ComputeModel(
        profile=profile(),
        variability={
            LOCAL_SITE: VariabilityModel(sigma=0.2, seed=1),
            CLOUD_SITE: VariabilityModel(sigma=0.2, seed=1),
        },
        site_slowdowns={LOCAL_SITE: 1.0, CLOUD_SITE: 1.5},
    )
    b = [model2.job_seconds(CLOUD_SITE, 7, 100) for _ in range(3)]
    assert a == b
    assert len(set(a)) == 3  # jitter varies per job


def test_merge_and_combine_costs():
    model = exact_model()
    assert model.merge_seconds(0) == 0.0
    assert model.merge_seconds(2 * 1024**3) == pytest.approx(1.0)
    # Tree combine: log2(8) = 3 rounds.
    robj = 100 * 1024 * 1024
    bw = 1024**3
    per_round = robj / bw + model.merge_seconds(robj)
    assert model.combine_seconds(robj, 8, bw) == pytest.approx(3 * per_round)
    assert model.combine_seconds(robj, 1, bw) == 0.0
    # Non-power-of-two rounds up.
    assert model.combine_seconds(robj, 5, bw) == pytest.approx(3 * per_round)
    with pytest.raises(SimulationError):
        model.combine_seconds(robj, 0, bw)
    with pytest.raises(SimulationError):
        model.combine_seconds(robj, 2, 0)
    with pytest.raises(SimulationError):
        model.merge_seconds(-1)


def test_missing_variability_rejected():
    with pytest.raises(SimulationError):
        ComputeModel(profile=profile(),
                     variability={LOCAL_SITE: VariabilityModel(sigma=0.0)},
                     site_slowdowns={LOCAL_SITE: 1.0, CLOUD_SITE: 1.5})


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        AppProfile(key="x", unit_cost_local=-1, cloud_slowdown=1.0,
                   robj_bytes=1, record_bytes=1)
    with pytest.raises(ConfigurationError):
        AppProfile(key="x", unit_cost_local=1, cloud_slowdown=0.5,
                   robj_bytes=1, record_bytes=1)
    with pytest.raises(ConfigurationError):
        AppProfile(key="x", unit_cost_local=1, cloud_slowdown=1.0,
                   robj_bytes=-1, record_bytes=1)
