"""The zero-copy data path: decode views, their read-only contract, and
the edge cases a view-based pipeline must survive.

A chunk read now comes back as a read-only ``memoryview`` aliasing the
fetched buffer, and ``RecordSchema.decode`` turns it into a read-only
``np.frombuffer`` array — no byte is copied between the storage layer and
the reduction kernel. These tests pin the contract: decode results reject
in-place mutation, views over odd offsets and ragged groups decode
correctly, empty chunks decode to empty arrays, and a view outlives the
cache entry it aliases.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cache import ChunkCache
from repro.config import DatasetSpec
from repro.core.api import GeneralizedReductionApp, run_serial
from repro.core.reduction import ArrayReduction
from repro.data.chunks import readonly_view
from repro.data.records import (
    EDGE_SCHEMA,
    TOKEN_SCHEMA,
    VALUE_SCHEMA,
    idpoint_schema,
    point_schema,
)
from repro.errors import DataFormatError

ALL_SCHEMAS = (
    point_schema(4),
    idpoint_schema(3),
    EDGE_SCHEMA,
    TOKEN_SCHEMA,
    VALUE_SCHEMA,
)


def _sample_units(schema, n=12):
    if schema.columns:
        shape = (n, schema.columns)
        return np.arange(n * schema.columns, dtype=schema.dtype).reshape(shape)
    out = np.zeros(n, dtype=schema.dtype)
    if schema.dtype.fields:
        out["id"] = np.arange(n)
        out["coords"] = 1.5
    return out


# -- the read-only contract --------------------------------------------------


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
def test_decode_views_are_read_only(schema):
    units = _sample_units(schema)
    decoded = schema.decode(schema.encode(units))
    assert not decoded.flags.writeable
    with pytest.raises(ValueError):
        decoded[0] = decoded[0]


def test_decode_read_only_even_over_writable_buffer():
    """A writable source (bytearray, shm-style) still decodes read-only."""
    raw = bytearray(VALUE_SCHEMA.encode(_sample_units(VALUE_SCHEMA)))
    decoded = VALUE_SCHEMA.decode(raw)
    assert not decoded.flags.writeable
    with pytest.raises(ValueError):
        decoded += 1.0


def test_mutating_kernel_raises():
    """Regression: an application kernel that scribbles on its input units
    fails loudly instead of silently corrupting aliased views."""

    class MutatingApp(GeneralizedReductionApp):
        def create_reduction_object(self):
            return ArrayReduction(1)

        def decode_chunk(self, raw):
            return VALUE_SCHEMA.decode(raw)

        def local_reduction(self, robj, units):
            units *= 2.0  # forbidden in-place mutation
            robj.data[0] += float(units.sum())

        def finalize(self, robj):
            return robj.data

    chunk = VALUE_SCHEMA.encode(_sample_units(VALUE_SCHEMA))
    with pytest.raises(ValueError):
        run_serial(MutatingApp(), [chunk])


# -- decode-view edge cases --------------------------------------------------


def test_decode_view_at_unaligned_offset():
    """A view sliced at an offset that is not a multiple of the dtype's
    alignment (here: 1 header byte before float64 records) still decodes
    to the right values — np.frombuffer handles unaligned buffers."""
    units = _sample_units(VALUE_SCHEMA)
    payload = VALUE_SCHEMA.encode(units)
    framed = b"\x01" + payload + b"\x02"
    view = readonly_view(framed)[1 : 1 + len(payload)]
    decoded = VALUE_SCHEMA.decode(view)
    np.testing.assert_array_equal(decoded, units)
    assert not decoded.flags.writeable


def test_decode_view_mid_blob_offset():
    """Slicing a multi-chunk blob at a record boundary (the reader's
    offset/nbytes pattern) decodes exactly the addressed chunk."""
    units = _sample_units(EDGE_SCHEMA, n=16)
    blob = readonly_view(EDGE_SCHEMA.encode(units))
    rb = EDGE_SCHEMA.record_bytes
    middle = EDGE_SCHEMA.decode(blob[4 * rb : 12 * rb])
    np.testing.assert_array_equal(middle, units[4:12])


def test_decode_rejects_partial_record_view():
    payload = VALUE_SCHEMA.encode(_sample_units(VALUE_SCHEMA))
    torn = readonly_view(payload)[: len(payload) - 3]
    with pytest.raises(DataFormatError):
        VALUE_SCHEMA.decode(torn)


def test_decode_empty_chunk():
    for schema in ALL_SCHEMAS:
        decoded = schema.decode(readonly_view(b""))
        assert decoded.size == 0
        assert not decoded.flags.writeable


def test_ragged_final_unit_group():
    """A group size that does not divide the unit count covers every unit
    exactly once, with a short final group — over a decoded view."""
    app = repro.make_bundle("histogram", 12).app
    units = app.decode_chunk(
        readonly_view(VALUE_SCHEMA.encode(_sample_units(VALUE_SCHEMA)))
    )
    groups = list(app.unit_groups(units, 5))
    assert [len(g) for g in groups] == [5, 5, 2]
    rejoined = np.concatenate([np.asarray(g) for g in groups])
    np.testing.assert_array_equal(rejoined, np.asarray(units))


# -- views vs. the cache -----------------------------------------------------


def test_view_survives_cache_eviction():
    """Eviction drops the cache's reference, not the buffer: a decoded
    view taken before the entry was evicted stays valid and correct."""
    units = _sample_units(VALUE_SCHEMA, n=8)
    payload = VALUE_SCHEMA.encode(units)
    cache = ChunkCache(capacity_bytes=len(payload))
    cache.put("chunk-0", readonly_view(payload))
    held = VALUE_SCHEMA.decode(cache.get("chunk-0"))
    # A same-size insert must evict chunk-0 to fit.
    cache.put("chunk-1", readonly_view(bytes(len(payload))))
    assert "chunk-0" not in cache
    assert cache.stats.evictions == 1
    np.testing.assert_array_equal(held, units.ravel().reshape(-1, 1))


def test_cache_sizes_memoryview_entries():
    payload = readonly_view(bytes(256))
    cache = ChunkCache(capacity_bytes=1024)
    cache.put("k", payload)
    assert cache.bytes_used == 256


# -- counters end to end -----------------------------------------------------


def test_serial_run_reports_zero_copies():
    spec = DatasetSpec(
        total_bytes=4096, num_files=4, chunk_bytes=256, record_bytes=8
    )
    result = repro.run("histogram", spec, repro.RunConfig(mode="serial"))
    t = result.telemetry
    assert t.bytes_copied == 0
    assert t.zero_copy_reads == 16


def test_retry_path_counts_copies():
    """A retry policy routes reads through the retriever, which assembles
    fresh buffers — every byte read lands in bytes_copied."""
    from repro.resilience.retry import RetryPolicy

    spec = DatasetSpec(
        total_bytes=4096, num_files=4, chunk_bytes=256, record_bytes=8
    )
    result = repro.run(
        "histogram", spec,
        repro.RunConfig(
            mode="serial",
            resilience=repro.ResilienceOptions(retry=RetryPolicy()),
        ),
    )
    t = result.telemetry
    assert t.zero_copy_reads == 0
    assert t.bytes_copied == 4096
