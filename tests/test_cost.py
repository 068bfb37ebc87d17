"""Tests for the pay-as-you-go cost model."""

from __future__ import annotations

import pytest

from repro.bench.configs import env_config
from repro.bench.cost import AWS_2011, CostBreakdown, PricingModel, price_run
from repro.errors import ConfigurationError

from conftest import two_site

SCALE = 0.03


def knn(env):
    """``(app, dataset, config)`` of a scaled knn env."""
    return ("knn", *env_config("knn", env, scale=SCALE))


@pytest.fixture(scope="module")
def hybrid():
    run = knn("env-17/83")
    return run, two_site(*run).run()


def test_pricing_validation():
    with pytest.raises(ConfigurationError):
        PricingModel(ec2_instance_hour=-1)
    with pytest.raises(ConfigurationError):
        PricingModel(ec2_cores_per_instance=0)


def test_local_run_is_cloud_free():
    run = knn("env-local")
    cost = price_run(*run, two_site(*run).run())
    assert cost.ec2_compute == 0.0
    assert cost.s3_egress == 0.0
    assert cost.s3_requests == 0.0
    assert cost.cloud_total == 0.0
    assert cost.local_compute > 0.0
    assert cost.total == cost.local_compute


def test_cloud_run_has_no_egress_but_pays_compute():
    run = knn("env-cloud")
    cost = price_run(*run, two_site(*run).run())
    # S3 -> EC2 is free; nothing leaves AWS in a single-cluster cloud run.
    assert cost.s3_egress == 0.0
    assert cost.ec2_compute > 0.0
    assert cost.s3_requests > 0.0  # 960 chunks x 4 ranged GETs
    assert cost.local_compute == 0.0


def test_hybrid_pays_for_stolen_chunks_and_robj(hybrid):
    run, report = hybrid
    cost = price_run(*run, report)
    stolen = report.cluster("local-cluster").jobs_stolen
    assert stolen > 0
    _, dataset, _ = run
    expected_bytes = stolen * dataset.chunk_bytes + 16 * 1024
    assert cost.s3_egress == pytest.approx(
        expected_bytes / 1024**3 * AWS_2011.s3_egress_per_gb, rel=1e-6
    )
    assert cost.ec2_compute > 0 and cost.local_compute > 0


def test_instance_hour_rounding(hybrid):
    run, report = hybrid
    # 16 cloud cores = 8 m1.large instances; short scaled run bills 1 hour.
    cost = price_run(*run, report)
    assert cost.ec2_compute == pytest.approx(8 * 0.34)


def test_breakdown_render_and_totals():
    cost = CostBreakdown(ec2_compute=1.0, s3_egress=0.5, s3_requests=0.25,
                         local_compute=0.1)
    assert cost.cloud_total == pytest.approx(1.75)
    assert cost.total == pytest.approx(1.85)
    text = cost.render()
    assert "$1.85" in text and "EC2 $1.00" in text


def test_custom_tariff_scales_linearly(hybrid):
    run, report = hybrid
    base = price_run(*run, report)
    doubled = price_run(
        *run,
        report,
        PricingModel(ec2_instance_hour=0.68, s3_egress_per_gb=0.30,
                     s3_get_per_10k=0.02, local_core_hour=0.06),
    )
    assert doubled.ec2_compute == pytest.approx(2 * base.ec2_compute)
    assert doubled.s3_egress == pytest.approx(2 * base.s3_egress)
    assert doubled.local_compute == pytest.approx(2 * base.local_compute)
