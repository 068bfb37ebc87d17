"""Tests for the EC2 variability model."""

from __future__ import annotations

import statistics

import pytest

from repro.cluster.variability import VariabilityModel
from repro.errors import ConfigurationError


def test_variability_deterministic_per_worker():
    model = VariabilityModel(sigma=0.2, seed=9)
    a = [model.sampler(1)() for _ in range(5)]
    b = [model.sampler(1)() for _ in range(5)]
    c = [model.sampler(2)() for _ in range(5)]
    assert a == b
    assert a != c
    assert all(x > 0 for x in a)


def test_variability_zero_sigma_is_exact():
    draw = VariabilityModel(sigma=0.0).sampler(3)
    assert [draw() for _ in range(4)] == [1.0] * 4


def test_variability_statistics():
    model = VariabilityModel(sigma=0.1, seed=1)
    draw = model.sampler(0)
    samples = [draw() for _ in range(4000)]
    # Median ~1 for a lognormal with mu=0.
    assert statistics.median(samples) == pytest.approx(1.0, rel=0.05)
    assert statistics.fmean(samples) == pytest.approx(
        model.expected_multiplier(), rel=0.05
    )


def test_negative_sigma_rejected():
    with pytest.raises(ConfigurationError):
        VariabilityModel(sigma=-0.1)
