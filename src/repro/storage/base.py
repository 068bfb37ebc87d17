"""Storage service protocol.

Both storage backends used in the paper's deployment — the campus cluster's
dedicated storage node and Amazon S3 — are modeled behind one byte-range
interface: keys map to immutable blobs, reads may address a sub-range
(S3 range GETs; ``pread`` on the storage node). The runtime's slaves only
ever use this interface, which is what lets the same slave code retrieve
local and remote chunks.
"""

from __future__ import annotations

import abc
from typing import Iterable

from ..errors import StorageError

__all__ = ["StorageService", "validate_range"]


def validate_range(total: int, offset: int, length: int | None) -> int:
    """Clamp-check a byte range against a blob size; returns actual length.

    Raises :class:`StorageError` for negative offsets/lengths or ranges
    starting beyond the blob.
    """
    if offset < 0:
        raise StorageError(f"negative read offset {offset}")
    if offset > total:
        raise StorageError(f"read offset {offset} beyond object size {total}")
    if length is None:
        return total - offset
    if length < 0:
        raise StorageError(f"negative read length {length}")
    return min(length, total - offset)


class StorageService(abc.ABC):
    """Keyed blob storage with byte-range reads.

    :meth:`read_range` is the **single abstract read signature**: every
    backend implements exactly ``read_range(key, offset, nbytes)`` and
    every consumer on the data path (the resilient
    :class:`~repro.storage.retrieval.ChunkRetriever`, the
    :class:`~repro.resilience.FaultInjector`) programs only against it.
    :meth:`get` remains as a concrete convenience for whole/open-ended
    reads and resolves onto ``read_range``.
    """

    @abc.abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any existing blob."""

    @abc.abstractmethod
    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        """Read exactly the byte range ``[offset, offset + nbytes)``.

        ``nbytes`` is clamped to the blob's end (a range starting before
        the end but extending past it returns the available suffix).
        Raises :class:`~repro.errors.ObjectNotFoundError` for unknown
        keys and :class:`~repro.errors.StorageError` for invalid ranges.
        """

    def get(self, key: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes (or to the end) starting at ``offset``.

        Convenience over :meth:`read_range`; an open-ended read resolves
        the length from :meth:`size` first.
        """
        if length is None:
            length = validate_range(self.size(key), offset, None)
        return self.read_range(key, offset, length)

    #: True when :meth:`read_view` aliases the stored blob instead of
    #: copying — the reader uses this to account reads as zero-copy.
    zero_copy_views: bool = False

    def read_view(self, key: str, offset: int, nbytes: int) -> memoryview:
        """Read a byte range as a read-only ``memoryview``.

        Backends that hold blobs in memory override this to return a view
        *aliasing* the stored bytes (no copy) and set
        :attr:`zero_copy_views`; the default resolves onto
        :meth:`read_range` (one copy) so every backend supports the view
        interface.
        """
        return memoryview(self.read_range(key, offset, nbytes))

    @abc.abstractmethod
    def size(self, key: str) -> int:
        """Size in bytes of the blob under ``key``."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """True when ``key`` holds a blob."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; silently ignores unknown keys."""

    @abc.abstractmethod
    def keys(self, prefix: str = "") -> Iterable[str]:
        """All keys starting with ``prefix``, in sorted order."""

    # -- convenience -------------------------------------------------------

    def append_stream(
        self, key: str, parts: Iterable[bytes | memoryview]
    ) -> int:
        """Store the concatenation of ``parts``; returns total bytes.

        A part may be a ``memoryview`` over memory its producer still
        owns, so an implementation copies what it keeps. The default
        implementation buffers; backends with real append can override.
        """
        buf = b"".join(parts)
        self.put(key, buf)
        return len(buf)

    def total_bytes(self, prefix: str = "") -> int:
        """Sum of blob sizes under ``prefix``."""
        return sum(self.size(k) for k in self.keys(prefix))
