"""Chunk arithmetic and the zero-copy view primitive.

The three-granularity organization (Section III-B) needs two partitions to
be exact: a file is a whole number of chunks (here), and a chunk's units
are covered exactly once by its cache-sized unit groups
(:meth:`repro.core.api.GeneralizedReductionApp.unit_groups`, the only
splitter). Property tests pin both exact-cover invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import DataFormatError

__all__ = [
    "ChunkSlice",
    "readonly_view",
    "iter_chunk_slices",
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


@dataclass(frozen=True)
class ChunkSlice:
    """A chunk's byte range within its file."""

    index: int
    offset: int
    nbytes: int


def iter_chunk_slices(file_bytes: int, chunk_bytes: int) -> Iterator[ChunkSlice]:
    """Yield the chunk byte ranges of a file, in order.

    Requires exact division — the dataset builder always pads files to a
    whole number of chunks, and a ragged tail would silently skew job sizes.
    """
    if file_bytes <= 0 or chunk_bytes <= 0:
        raise DataFormatError("file and chunk sizes must be positive")
    if file_bytes % chunk_bytes != 0:
        raise DataFormatError(
            f"file of {file_bytes} B is not a whole number of "
            f"{chunk_bytes}-byte chunks"
        )
    for index in range(file_bytes // chunk_bytes):
        yield ChunkSlice(index=index, offset=index * chunk_bytes, nbytes=chunk_bytes)
