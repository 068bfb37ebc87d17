"""Record schemas: the binary layout of data units.

A *data unit* (Section III-B) is the smallest atomically-processable
element. Each application fixes a record schema; chunks are whole numbers
of records, so decode is a zero-copy ``np.frombuffer`` view plus reshape.

Schemas provided:

* ``point32`` — ``d`` float32 features (kmeans);
* ``idpoint32`` — int64 id + ``d`` float32 features (knn reference points);
* ``edge`` — int32 source, int32 destination (pagerank);
* ``token`` — one int32 token id (wordcount);
* ``value64`` — one float64 sample (histogram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataFormatError

__all__ = [
    "RecordSchema",
    "point_schema",
    "idpoint_schema",
    "EDGE_SCHEMA",
    "TOKEN_SCHEMA",
    "VALUE_SCHEMA",
]


@dataclass(frozen=True)
class RecordSchema:
    """A fixed-size binary record layout.

    ``dtype`` is the per-record NumPy dtype; ``columns`` is the logical
    second-axis width when records decode to a 2-D array (0 means the
    decode result stays 1-D / structured).
    """

    name: str
    dtype: np.dtype
    columns: int = 0

    def __post_init__(self) -> None:
        if self.dtype.itemsize <= 0:
            raise DataFormatError(f"schema {self.name!r} has empty dtype")

    @property
    def record_bytes(self) -> int:
        size = self.dtype.itemsize
        return size * self.columns if self.columns else size

    def encode(self, units: np.ndarray) -> bytes:
        """Serialize a unit array produced by a generator."""
        return self.encode_view(units).tobytes()

    def encode_view(self, units: np.ndarray) -> memoryview:
        """The bytes :meth:`encode` returns, as a flat byte ``memoryview``.

        It is over ``units``' own memory when they already are a
        C-contiguous array of this schema's dtype (every registered
        generator's blocks are), over a converted copy otherwise.
        """
        arr = np.ascontiguousarray(units, dtype=self.dtype)
        if self.columns and (arr.ndim != 2 or arr.shape[1] != self.columns):
            raise DataFormatError(
                f"schema {self.name!r} expects shape (n, {self.columns}), "
                f"got {arr.shape}"
            )
        return arr.reshape(-1).view(np.uint8).data

    def decode(self, raw: "bytes | bytearray | memoryview") -> np.ndarray:
        """Deserialize chunk bytes into a unit array — always a view.

        ``raw`` may be ``bytes`` or any buffer (``memoryview`` slice of a
        fetched blob, ``multiprocessing.shared_memory`` buffer): no byte is
        copied either way. The result is explicitly **read-only** even when
        the backing buffer is writable, so an application kernel that
        mutates its input units in place fails loudly (``ValueError``)
        instead of silently corrupting every other view of the chunk.
        """
        nbytes = raw.nbytes if isinstance(raw, memoryview) else len(raw)
        if nbytes % self.record_bytes != 0:
            raise DataFormatError(
                f"chunk of {nbytes} bytes is not a whole number of "
                f"{self.record_bytes}-byte {self.name!r} records"
            )
        arr = np.frombuffer(raw, dtype=self.dtype)
        arr.flags.writeable = False
        if self.columns:
            arr = arr.reshape(-1, self.columns)
        return arr

    def units_in(self, nbytes: int) -> int:
        if nbytes % self.record_bytes != 0:
            raise DataFormatError(
                f"{nbytes} bytes is not a whole number of {self.name!r} records"
            )
        return nbytes // self.record_bytes


def point_schema(dims: int) -> RecordSchema:
    """``dims`` float32 features per record (kmeans points)."""
    if dims <= 0:
        raise DataFormatError("point schema needs at least one dimension")
    return RecordSchema(name=f"point32x{dims}", dtype=np.dtype(np.float32), columns=dims)


def idpoint_schema(dims: int) -> RecordSchema:
    """int64 id + ``dims`` float32 features (knn reference points).

    Stored as a structured dtype so ids and coordinates live in one record.
    """
    if dims <= 0:
        raise DataFormatError("idpoint schema needs at least one dimension")
    dtype = np.dtype([("id", np.int64), ("coords", np.float32, (dims,))])
    return RecordSchema(name=f"idpoint32x{dims}", dtype=dtype, columns=0)


#: int32 (src, dst) adjacency pairs — pagerank's edge list.
EDGE_SCHEMA = RecordSchema(name="edge", dtype=np.dtype(np.int32), columns=2)

#: one int32 token id per record — wordcount.
TOKEN_SCHEMA = RecordSchema(name="token", dtype=np.dtype(np.int32), columns=1)

#: one float64 sample per record — histogram.
VALUE_SCHEMA = RecordSchema(name="value64", dtype=np.dtype(np.float64), columns=1)
