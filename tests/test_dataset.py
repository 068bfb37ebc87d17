"""Tests for dataset build/read over the storage layer."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import CLOUD_SITE, LOCAL_SITE, DatasetSpec, PlacementSpec
from repro.core.index import build_index
from repro.data.dataset import DatasetReader, build_dataset
from repro.data.records import VALUE_SCHEMA, point_schema
from repro.errors import DataFormatError
from repro.storage.objectstore import ObjectStore


def sequential_block(start, count, index):
    return np.arange(start, start + count, dtype=np.float64).reshape(-1, 1)


def make_dataset(stores, local_fraction=0.5, files=4, chunks=3, units=8):
    spec = DatasetSpec(
        total_bytes=files * chunks * units * 8,
        num_files=files,
        chunk_bytes=units * 8,
        record_bytes=8,
    )
    index = build_dataset(
        spec, PlacementSpec(local_fraction), VALUE_SCHEMA, sequential_block, stores
    )
    return spec, index


def test_build_places_files_per_placement(two_site_stores):
    spec, index = make_dataset(two_site_stores)
    assert len(list(two_site_stores[LOCAL_SITE].keys())) == 2
    assert len(list(two_site_stores[CLOUD_SITE].keys())) == 2
    assert two_site_stores[LOCAL_SITE].total_bytes() == spec.file_bytes * 2
    # One placement rule: the synthesized index, plus checksums.
    assert all(entry.checksum is not None for entry in index.files)
    unchecked = [replace(entry, checksum=None) for entry in index.files]
    assert unchecked == build_index(spec, PlacementSpec(0.5)).files


def test_read_jobs_roundtrip_global_sequence(two_site_stores):
    spec, index = make_dataset(two_site_stores)
    reader = DatasetReader(index, two_site_stores)
    values = []
    for job in index.jobs():
        raw = reader.read_job(job)
        values.extend(VALUE_SCHEMA.decode(raw).ravel().tolist())
    assert values == [float(i) for i in range(spec.total_units)]


def test_remote_read_uses_multithreaded_fetch(two_site_stores):
    spec, index = make_dataset(two_site_stores)
    reader = DatasetReader(index, two_site_stores, retrieval_threads=4)
    cloud_job = next(j for j in index.jobs() if j.site == CLOUD_SITE)
    before = two_site_stores[CLOUD_SITE].stats.gets
    raw = reader.read_job(cloud_job, from_site=LOCAL_SITE)
    after = two_site_stores[CLOUD_SITE].stats.gets
    assert after - before == 4  # one GET per retrieval thread
    assert len(raw) == cloud_job.nbytes
    # Same-site read is a single request.
    before = two_site_stores[CLOUD_SITE].stats.gets
    reader.read_job(cloud_job, from_site=CLOUD_SITE)
    assert two_site_stores[CLOUD_SITE].stats.gets - before == 1


def test_read_all_chunks_matches_job_reads(two_site_stores):
    spec, index = make_dataset(two_site_stores, files=2, chunks=2)
    reader = DatasetReader(index, two_site_stores)
    chunks = reader.read_all_chunks()
    assert len(chunks) == spec.num_chunks
    assert all(len(c) == spec.chunk_bytes for c in chunks)


def test_schema_mismatch_rejected(two_site_stores):
    spec = DatasetSpec(total_bytes=64, num_files=1, chunk_bytes=64, record_bytes=4)
    with pytest.raises(DataFormatError):
        build_dataset(spec, PlacementSpec(1.0), VALUE_SCHEMA, sequential_block,
                      two_site_stores)


def test_missing_store_rejected():
    spec = DatasetSpec(total_bytes=64, num_files=1, chunk_bytes=64, record_bytes=8)
    with pytest.raises(DataFormatError):
        build_dataset(spec, PlacementSpec(1.0), VALUE_SCHEMA, sequential_block, {})


def test_bad_block_generator_rejected(two_site_stores):
    spec = DatasetSpec(total_bytes=64, num_files=1, chunk_bytes=64, record_bytes=8)

    def short_block(start, count, index):
        return np.zeros((count - 1, 1))

    with pytest.raises(DataFormatError):
        build_dataset(spec, PlacementSpec(1.0), VALUE_SCHEMA, short_block,
                      two_site_stores)
