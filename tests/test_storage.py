"""Tests for the storage substrate: base validation, local FS, object store."""

from __future__ import annotations

import time

import pytest

from repro.errors import ObjectNotFoundError, StorageError
from repro.storage.base import validate_range
from repro.storage.localfs import LocalStorage
from repro.storage.objectstore import ObjectStore, TrafficShaper


# -- validate_range -------------------------------------------------------------


def test_validate_range_clamps_and_checks():
    assert validate_range(100, 0, None) == 100
    assert validate_range(100, 40, None) == 60
    assert validate_range(100, 40, 10) == 10
    assert validate_range(100, 90, 50) == 10
    assert validate_range(100, 100, 5) == 0
    with pytest.raises(StorageError):
        validate_range(100, -1, 10)
    with pytest.raises(StorageError):
        validate_range(100, 101, None)
    with pytest.raises(StorageError):
        validate_range(100, 0, -5)


# -- shared backend behaviour -------------------------------------------------------


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return ObjectStore()
    return LocalStorage(tmp_path / "root")


def test_put_get_roundtrip(store):
    store.put("a/b.bin", b"hello world")
    assert store.get("a/b.bin") == b"hello world"
    assert store.size("a/b.bin") == 11
    assert store.exists("a/b.bin")


def test_range_get(store):
    store.put("k", bytes(range(100)))
    assert store.get("k", offset=10, length=5) == bytes(range(10, 15))
    assert store.get("k", offset=95) == bytes(range(95, 100))
    assert store.get("k", offset=95, length=50) == bytes(range(95, 100))


def test_missing_key(store):
    with pytest.raises(ObjectNotFoundError):
        store.get("nope")
    with pytest.raises(ObjectNotFoundError):
        store.size("nope")
    assert not store.exists("nope")
    store.delete("nope")  # silent


def test_overwrite_and_delete(store):
    store.put("k", b"one")
    store.put("k", b"two")
    assert store.get("k") == b"two"
    store.delete("k")
    assert not store.exists("k")


def test_keys_sorted_with_prefix(store):
    for key in ("z", "data/1", "data/2", "other/x"):
        store.put(key, b"?")
    assert list(store.keys("data/")) == ["data/1", "data/2"]
    assert list(store.keys()) == ["data/1", "data/2", "other/x", "z"]


def test_append_stream(store):
    total = store.append_stream("big", (bytes([i]) * 10 for i in range(5)))
    assert total == 50
    assert store.size("big") == 50
    assert store.get("big", offset=10, length=10) == bytes([1]) * 10


def test_total_bytes(store):
    store.put("a", b"12345")
    store.put("b", b"123")
    assert store.total_bytes() == 8


# -- LocalStorage specifics ----------------------------------------------------------


def test_localfs_rejects_escaping_keys(tmp_path):
    fs = LocalStorage(tmp_path / "root")
    for bad in ("", "/abs", "a/../../etc/passwd"):
        with pytest.raises(StorageError):
            fs.put(bad, b"x")


def test_localfs_tmp_files_hidden(tmp_path):
    fs = LocalStorage(tmp_path / "root")
    fs.put("real.bin", b"x")
    (tmp_path / "root" / "junk.bin.tmp").write_bytes(b"partial")
    assert list(fs.keys()) == ["real.bin"]


def test_localfs_failed_write_leaves_no_tmp_file(tmp_path):
    fs = LocalStorage(tmp_path / "root")
    fs.put("kept.bin", b"old")

    def parts():
        yield b"partial"
        raise OSError("disk gone")

    with pytest.raises(OSError, match="disk gone"):
        fs.append_stream("kept.bin", parts())
    with pytest.raises(TypeError):
        fs.put("kept.bin", object())  # the write itself raises
    assert sorted(p.name for p in (tmp_path / "root").iterdir()) == ["kept.bin"]
    assert fs.get("kept.bin") == b"old"


# -- ObjectStore specifics -------------------------------------------------------------


def test_objectstore_counters():
    s = ObjectStore()
    s.put("k", b"0123456789")
    s.get("k", 0, 4)
    s.get("k")
    assert s.stats.puts == 1
    assert s.stats.gets == 2
    assert s.stats.bytes_read == 14
    assert s.stats.bytes_written == 10


def test_traffic_shaper_delays_gets():
    shaper = TrafficShaper(request_latency=0.02, bandwidth=1_000_000)
    s = ObjectStore(shaper=shaper)
    s.put("k", b"x" * 10_000)
    started = time.perf_counter()
    s.get("k")
    elapsed = time.perf_counter() - started
    assert elapsed >= 0.02  # latency + 10ms of bandwidth


def test_shaper_delay_model():
    assert TrafficShaper().delay_for(10**6) == 0.0
    assert TrafficShaper(request_latency=0.1).delay_for(0) == 0.1
    assert TrafficShaper(bandwidth=100.0).delay_for(50) == pytest.approx(0.5)
