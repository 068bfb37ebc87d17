"""Tests for the network substrate (links + closed-form transfers)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import Link
from repro.network.transfer import parallel_transfer_time, transfer_time


def wan():
    return Link(src="s3", dst="campus", bandwidth=100.0, latency=0.1,
                per_flow_cap=10.0)


def test_link_validation():
    with pytest.raises(ConfigurationError):
        Link("a", "b", bandwidth=0)
    with pytest.raises(ConfigurationError):
        Link("a", "b", bandwidth=1, latency=-1)
    with pytest.raises(ConfigurationError):
        Link("a", "b", bandwidth=1, per_flow_cap=0)


def test_flow_rate_fair_share_with_cap():
    link = wan()
    assert link.flow_rate(1) == 10.0  # capped
    assert link.flow_rate(20) == 5.0  # fair share below cap
    with pytest.raises(ConfigurationError):
        link.flow_rate(0)


def test_transfer_time():
    link = wan()
    assert transfer_time(link, 100) == pytest.approx(0.1 + 10.0)
    assert transfer_time(link, 100, concurrent_flows=20) == pytest.approx(0.1 + 20.0)
    with pytest.raises(ConfigurationError):
        transfer_time(link, -1)


def test_parallel_transfer_scaling():
    link = wan()
    one = parallel_transfer_time(link, 1000, 1)
    four = parallel_transfer_time(link, 1000, 4)
    twenty = parallel_transfer_time(link, 1000, 20)
    assert one == pytest.approx(0.1 + 100.0)
    assert four == pytest.approx(0.1 + 25.0)
    # Trunk saturates at 10 connections; more do not help.
    assert twenty == pytest.approx(0.1 + 10.0)
    assert parallel_transfer_time(link, 1000, 100) == twenty
    with pytest.raises(ConfigurationError):
        parallel_transfer_time(link, 10, 0)

