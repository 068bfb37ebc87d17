"""Tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.layout import lay_out
from repro.core.sync import SyncSpec
from repro.errors import ConfigurationError
from repro.units import GB, MB


def test_paper_dataset_shape():
    spec = DatasetSpec.paper(record_bytes=4)
    assert spec.total_bytes == 120 * GB
    assert spec.num_files == 32
    assert spec.num_chunks == 960
    assert spec.chunk_bytes == 128 * MB
    assert spec.chunks_per_file == 30
    assert spec.units_per_chunk == 32 * MB
    assert spec.total_units == 960 * 32 * MB


def test_dataset_divisibility_enforced():
    with pytest.raises(ConfigurationError):
        DatasetSpec(total_bytes=100, num_files=3, chunk_bytes=10, record_bytes=2)
    with pytest.raises(ConfigurationError):
        DatasetSpec(total_bytes=90, num_files=3, chunk_bytes=7, record_bytes=1)
    with pytest.raises(ConfigurationError):
        DatasetSpec(total_bytes=90, num_files=3, chunk_bytes=10, record_bytes=3)


def test_dataset_scaled_preserves_structure():
    spec = DatasetSpec.paper(record_bytes=4)
    small = spec.scaled(1e-6)
    assert small.num_files == spec.num_files
    assert small.num_chunks == spec.num_chunks
    assert small.chunk_bytes % small.record_bytes == 0
    assert small.total_bytes < spec.total_bytes
    with pytest.raises(ConfigurationError):
        spec.scaled(0)


def test_placement_split():
    spec = PlacementSpec(local_fraction=1.0 / 3.0)
    assert spec.sites(32) == ((LOCAL_SITE, 11), (CLOUD_SITE, 21))
    assert PlacementSpec(0.0).sites(10) == ((LOCAL_SITE, 0), (CLOUD_SITE, 10))
    assert PlacementSpec(1.0).sites(10) == ((LOCAL_SITE, 10), (CLOUD_SITE, 0))
    with pytest.raises(ConfigurationError):
        PlacementSpec(local_fraction=1.5)


def test_compute_spec():
    spec = ComputeSpec(local_cores=16, cloud_cores=22)
    assert spec.total_cores == 38
    assert spec.sites == ((LOCAL_SITE, 16), (CLOUD_SITE, 22))
    assert spec.label() == "(16,22)"
    with pytest.raises(ConfigurationError):
        ComputeSpec(local_cores=0, cloud_cores=0)


def test_compute_single_site():
    # A site with no cores is still listed; a pass lays out no cluster
    # there.
    for spec, site in (
        (ComputeSpec(4, 0), LOCAL_SITE), (ComputeSpec(0, 4), CLOUD_SITE)
    ):
        assert dict(spec.sites)[site] == 4
        layout = lay_out(spec.sites, LOCAL_SITE, SyncSpec())
        assert [slot.site for slot in layout.slots] == [site]


def test_tuning_validation():
    MiddlewareTuning()  # defaults valid
    with pytest.raises(ConfigurationError):
        MiddlewareTuning(job_group_size=0)
    with pytest.raises(ConfigurationError):
        MiddlewareTuning(retrieval_threads=0)
    with pytest.raises(ConfigurationError):
        MiddlewareTuning(units_per_group=-1)
    with pytest.raises(ConfigurationError):
        MiddlewareTuning(pool_low_water=-1)
