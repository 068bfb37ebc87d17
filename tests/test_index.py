"""Tests for the data index."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import CLOUD_SITE, LOCAL_SITE, DatasetSpec, PlacementSpec
from repro.core.index import DataIndex, FileEntry, build_index
from repro.errors import ConfigurationError, IndexError_

from conftest import small_spec


def test_build_index_prefix_placement():
    spec = small_spec(record_bytes=4, files=8)
    index = build_index(spec, PlacementSpec(local_fraction=0.5))
    assert index.num_files == 8
    assert len(index.files_at(LOCAL_SITE)) == 4
    assert len(index.files_at(CLOUD_SITE)) == 4
    # Prefix: local files come first.
    assert all(e.site == LOCAL_SITE for e in index.files[:4])


def test_build_index_takes_site_pairs_that_cover_the_dataset():
    spec = small_spec(record_bytes=4, files=4)
    index = build_index(spec, (("campus", 1), ("aws", 2), ("azure", 1)))
    assert [e.site for e in index.files] == ["campus", "aws", "aws", "azure"]
    for short_or_long in ((("campus", 1), ("aws", 1)), (("campus", 5),)):
        with pytest.raises(ConfigurationError, match="placement holds"):
            build_index(spec, short_or_long)


def test_jobs_enumerate_every_chunk_once():
    spec = small_spec(record_bytes=8, files=3, chunks_per_file=5)
    index = build_index(spec, PlacementSpec(local_fraction=1.0))
    jobs = index.jobs()
    assert len(jobs) == 15
    assert [j.job_id for j in jobs] == list(range(15))
    # Consecutive ids within one file have consecutive chunk indices/offsets.
    for a, b in zip(jobs, jobs[1:]):
        if a.file_id == b.file_id:
            assert b.chunk_index == a.chunk_index + 1
            assert b.offset == a.offset + a.nbytes


def test_index_roundtrip_json():
    spec = small_spec(record_bytes=4)
    index = build_index(spec, PlacementSpec(local_fraction=0.25))
    restored = DataIndex.from_json(index.to_json())
    assert restored.num_files == index.num_files
    assert restored.total_bytes == index.total_bytes
    assert [e.site for e in restored.files] == [e.site for e in index.files]


def test_index_save_load(tmp_path):
    spec = small_spec(record_bytes=4)
    index = build_index(spec, PlacementSpec(local_fraction=0.5))
    path = tmp_path / "index.json"
    index.save(path)
    assert DataIndex.load(path).num_chunks == index.num_chunks


def test_malformed_json_rejected():
    with pytest.raises(IndexError_):
        DataIndex.from_json("{not json")
    with pytest.raises(IndexError_):
        DataIndex.from_json("[]")
    with pytest.raises(IndexError_):
        DataIndex.from_json('{"format_version": 99, "files": []}')
    with pytest.raises(IndexError_):
        DataIndex.from_json(
            '{"format_version": 1, "files": [{"file_id": "x"}]}'
        )


def test_duplicate_file_id_rejected():
    entry = FileEntry(file_id=0, site=LOCAL_SITE, path="a", nbytes=100,
                      chunk_bytes=50, units_per_chunk=10)
    with pytest.raises(IndexError_):
        DataIndex(files=[entry, entry])


def test_ragged_file_rejected():
    with pytest.raises(IndexError_):
        FileEntry(file_id=0, site=LOCAL_SITE, path="a", nbytes=100,
                  chunk_bytes=33, units_per_chunk=10)


def test_entry_lookup():
    spec = small_spec(record_bytes=4, files=2)
    index = build_index(spec, PlacementSpec(local_fraction=0.0))
    assert index.entry(1).file_id == 1
    with pytest.raises(IndexError_):
        index.entry(99)


@given(
    files=st.integers(1, 12),
    chunks=st.integers(1, 8),
    fraction=st.floats(0.0, 1.0),
)
def test_index_job_count_invariant(files, chunks, fraction):
    spec = DatasetSpec(
        total_bytes=files * chunks * 64,
        num_files=files,
        chunk_bytes=64,
        record_bytes=8,
    )
    index = build_index(spec, PlacementSpec(local_fraction=fraction))
    jobs = index.jobs()
    assert len(jobs) == spec.num_chunks
    assert len({j.job_id for j in jobs}) == len(jobs)
    by_site = {LOCAL_SITE: 0, CLOUD_SITE: 0}
    for entry in index.files:
        by_site[entry.site] += 1
    assert tuple(by_site.items()) == PlacementSpec(fraction).sites(files)
