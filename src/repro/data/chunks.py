"""The zero-copy view primitive of the chunk data path.

The three-granularity organization (Section III-B) needs two partitions to
be exact: a file is a whole number of chunks
(:class:`repro.config.DatasetSpec` rejects anything else), and a chunk's
units are covered exactly once by its cache-sized unit groups
(:meth:`repro.core.api.GeneralizedReductionApp.unit_groups`, the only
splitter).
"""

from __future__ import annotations

__all__ = [
    "readonly_view",
]


def readonly_view(buf: "bytes | bytearray | memoryview") -> memoryview:
    """Expose any bytes-like buffer as a read-only ``memoryview``.

    This is the zero-copy slicing primitive of the data path: slicing the
    returned view (``view[offset:offset + nbytes]``) aliases the backing
    buffer instead of copying it the way ``bytes`` slicing does, and the
    read-only flag propagates into :meth:`~repro.data.records.RecordSchema.
    decode`'s ``np.frombuffer`` result. The underlying buffer stays alive
    for as long as any view (or decoded array) references it — eviction
    from a cache only drops the cache's own reference.
    """
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    return view.toreadonly()
