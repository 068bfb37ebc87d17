"""Tests for dataset build/read over the storage layer."""

from __future__ import annotations

import sys
import threading
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import available_apps, make_bundle
from repro.config import CLOUD_SITE, LOCAL_SITE, ComputeSpec, DatasetSpec, PlacementSpec
from repro.core.api import run_serial
from repro.core.index import DataIndex, build_index
from repro.data import dataset as dataset_module
from repro.data.dataset import DatasetReader, build_dataset
from repro.data.records import VALUE_SCHEMA, RecordSchema, point_schema
from repro.errors import DataFormatError
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.localfs import LocalStorage
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


# -- the parallel build against a one-block-at-a-time oracle -----------------


def serial_build(spec, placement, schema, make_block, stores):
    """The build as a plain loop: every block in index order, each file
    stored whole with the crc of its bytes. The oracle for
    :func:`build_dataset`."""
    entries, unit = [], 0
    for entry in build_index(spec, placement).files:
        parts = []
        for chunk in range(spec.chunks_per_file):
            parts.append(schema.encode(make_block(unit, spec.units_per_chunk, chunk)))
            unit += spec.units_per_chunk
        blob = b"".join(parts)
        stores[entry.site].put(entry.path, blob)
        entries.append(replace(entry, checksum=zlib.crc32(blob)))
    return DataIndex(files=entries)


def app_spec(bundle, units=4096, files=3, chunks_per_file=4):
    record = bundle.schema.record_bytes
    return DatasetSpec(
        total_bytes=units * record, num_files=files,
        chunk_bytes=units * record // (files * chunks_per_file),
        record_bytes=record,
    )


def store_pair(kind, root):
    if kind == "object":
        return {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    return {site: LocalStorage(root / site) for site in (LOCAL_SITE, CLOUD_SITE)}


def blobs(stores):
    return {
        (site, key): store.get(key)
        for site, store in stores.items() for key in store.keys()
    }


@pytest.fixture
def no_thread_outlives_a_build():
    """The case leaves as many threads alive as it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture(params=[1, 3], ids=["1-thread", "3-threads"])
def threads(request, monkeypatch, no_thread_outlives_a_build):
    """Build on this many threads, whatever this machine's core count and
    however quickly the first block is made."""
    monkeypatch.setattr(dataset_module, "available_cores", lambda: request.param)
    monkeypatch.setattr(dataset_module, "POOL_MIN_BLOCK_S", 0.0)
    return request.param


@pytest.mark.parametrize("kind", ["object", "local"])
@pytest.mark.parametrize("app", available_apps())
def test_build_equals_the_serial_oracle(app, kind, threads, tmp_path):
    bundle = make_bundle(app, 12 * 340, seed=7)
    spec = app_spec(bundle, units=12 * 340)
    placement = PlacementSpec(0.5)
    want_stores = store_pair(kind, tmp_path / "oracle")
    want = serial_build(spec, placement, bundle.schema, bundle.block_fn, want_stores)
    got_stores = store_pair(kind, tmp_path / "built")
    got = build_dataset(spec, placement, bundle.schema, bundle.block_fn, got_stores)
    assert got == want
    assert all(entry.checksum is not None for entry in got.files)
    assert blobs(got_stores) == blobs(want_stores)


@pytest.mark.parametrize("bad", [1, 6, 11])
def test_short_block_anywhere_raises(bad, threads, two_site_stores):
    spec = DatasetSpec(total_bytes=12 * 64, num_files=3, chunk_bytes=64,
                       record_bytes=8)

    def one_short(start, count, index):
        short = start // count == bad
        return sequential_block(start, count - short, index)

    with pytest.raises(DataFormatError, match="returned 7 units"):
        build_dataset(spec, PlacementSpec(0.5), VALUE_SCHEMA, one_short,
                      two_site_stores)


def test_wrong_width_block_raises(threads, two_site_stores):
    spec = DatasetSpec(total_bytes=4 * 64, num_files=2, chunk_bytes=64,
                       record_bytes=8)

    flat = RecordSchema("flat64", np.dtype(np.float64))  # no column check

    def two_columns(start, count, index):
        return np.zeros((count, 2))  # 16 B units under an 8 B record

    with pytest.raises(DataFormatError, match="encoded to 128 B"):
        build_dataset(spec, PlacementSpec(1.0), flat, two_columns,
                      two_site_stores)
    assert not list(two_site_stores[LOCAL_SITE].keys())


class BlockFailed(Exception):
    pass


def test_first_failing_block_in_index_order_propagates(threads, two_site_stores):
    spec = DatasetSpec(total_bytes=16 * 64, num_files=4, chunk_bytes=64,
                       record_bytes=8)
    gate = threading.Event()

    def failing(start, count, index):
        chunk = start // count
        if chunk == 5:
            gate.wait(0.5)  # let the later failure happen first
            raise BlockFailed(chunk)
        if chunk == 6:
            gate.set()
            raise BlockFailed(chunk)
        return sequential_block(start, count, index)

    with pytest.raises(BlockFailed) as caught:
        build_dataset(spec, PlacementSpec(0.5), VALUE_SCHEMA, failing,
                      two_site_stores)
    assert caught.value.args == (5,)
    # Files before the failing block are stored, none from it on.
    stored = sum(len(list(s.keys())) for s in two_site_stores.values())
    assert stored == 1


def test_failing_store_joins_the_pool(threads, two_site_stores):
    class Full(ObjectStore):
        def put(self, key, data):
            raise OSError("no space left")

    stores = {LOCAL_SITE: Full(), CLOUD_SITE: Full()}
    spec = DatasetSpec(total_bytes=8 * 64, num_files=2, chunk_bytes=64,
                       record_bytes=8)
    with pytest.raises(OSError, match="no space left"):
        build_dataset(spec, PlacementSpec(0.5), VALUE_SCHEMA, sequential_block,
                      stores)


def test_failing_block_leaves_no_temp_file_on_disk(threads, tmp_path):
    """``LocalStorage`` streams a file's blocks into ``<key>.tmp``; a block
    that raises mid-file removes it before the error propagates."""
    stores = store_pair("local", tmp_path)
    spec = DatasetSpec(total_bytes=16 * 64, num_files=4, chunk_bytes=64,
                       record_bytes=8)

    def failing(start, count, index):
        if start // count == 5:  # the second block of the second file
            raise BlockFailed(5)
        return sequential_block(start, count, index)

    with pytest.raises(BlockFailed):
        build_dataset(spec, PlacementSpec(0.5), VALUE_SCHEMA, failing, stores)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert sum(len(list(s.keys())) for s in stores.values()) == 1


def builder_threads(spec, block):
    """Names of the threads ``block`` ran on during one build."""
    seen = set()

    def recording(start, count, index):
        seen.add(threading.current_thread().name)
        return block(start, count, index)

    build_dataset(spec, PlacementSpec(0.5), VALUE_SCHEMA, recording,
                  {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()})
    return seen


def test_quick_blocks_build_on_the_calling_thread(
    monkeypatch, no_thread_outlives_a_build
):
    monkeypatch.setattr(dataset_module, "available_cores", lambda: 3)
    spec = DatasetSpec(total_bytes=16 * 64, num_files=4, chunk_bytes=64,
                       record_bytes=8)
    assert builder_threads(spec, sequential_block) == {
        threading.current_thread().name
    }


def test_slow_blocks_build_on_the_pool(monkeypatch, no_thread_outlives_a_build):
    monkeypatch.setattr(dataset_module, "available_cores", lambda: 3)
    monkeypatch.setattr(dataset_module, "POOL_MIN_BLOCK_S", 0.005)
    spec = DatasetSpec(total_bytes=8 * 64, num_files=2, chunk_bytes=64,
                       record_bytes=8)

    def slow(start, count, index):
        time.sleep(0.01)
        return sequential_block(start, count, index)

    names = builder_threads(spec, slow)
    # The first block on the caller's thread, the rest on the pool.
    assert threading.current_thread().name in names
    assert any(name.startswith("dataset-build") for name in names)


def test_process_slaves_forked_after_a_build_match_the_oracle(
    tmp_path, monkeypatch, no_thread_outlives_a_build
):
    """A process-mode runtime forks its workers straight after a threaded
    build; its result is the serial oracle's over the oracle's bytes."""
    monkeypatch.setattr(dataset_module, "available_cores", lambda: 3)
    monkeypatch.setattr(dataset_module, "POOL_MIN_BLOCK_S", 0.0)
    for app in ("histogram", "kmeans"):
        bundle = make_bundle(app, 8192, seed=3)
        spec = app_spec(bundle, units=8192, files=4, chunks_per_file=4)
        want_stores = store_pair("object", tmp_path)
        want_index = serial_build(spec, PlacementSpec(0.5), bundle.schema,
                                  bundle.block_fn, want_stores)
        expected = run_serial(
            bundle.app, DatasetReader(want_index, want_stores).read_all_chunks()
        )
        stores = store_pair("object", tmp_path)
        index = build_dataset(spec, PlacementSpec(0.5), bundle.schema,
                              bundle.block_fn, stores)
        with CloudBurstingRuntime(
            bundle.app, index, stores, ComputeSpec(1, 1), slave_mode="process"
        ) as runtime:
            got = runtime.run().value
        if app == "histogram":
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-6)


def test_many_threads_with_rapid_switching_build_the_oracle(
    monkeypatch, no_thread_outlives_a_build
):
    """More builder threads than cores, switching every microsecond."""
    monkeypatch.setattr(dataset_module, "available_cores", lambda: 8)
    monkeypatch.setattr(dataset_module, "POOL_MIN_BLOCK_S", 0.0)
    bundle = make_bundle("kmeans", 64 * 256, seed=9)
    spec = app_spec(bundle, units=64 * 256, files=4, chunks_per_file=16)
    want_stores = store_pair("object", None)
    want = serial_build(spec, PlacementSpec(0.5), bundle.schema,
                        bundle.block_fn, want_stores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            stores = store_pair("object", None)
            got = build_dataset(spec, PlacementSpec(0.5), bundle.schema,
                                bundle.block_fn, stores)
            assert got == want
            assert blobs(stores) == blobs(want_stores)
    finally:
        sys.setswitchinterval(interval)
