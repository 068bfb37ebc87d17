"""Byte-budgeted, thread-safe LRU cache for chunk bytes.

One :class:`ChunkCache` serves one node: every slave thread on the node
shares it (they already share one :class:`~repro.data.dataset.DatasetReader`),
so the budget bounds the node's cache memory regardless of core count.
Keys are whatever identifies a chunk to the caller — the reader keys by
``(site, path, offset, nbytes)``; the simulator models the same cache
with ``(file_id, chunk_index)`` keys and explicit sizes.

Accounting is exact: ``stats.hits + stats.misses`` equals the number of
``get`` calls, ``bytes_used`` never exceeds ``capacity_bytes`` (an entry
larger than the whole budget is rejected, not admitted), and
``bytes_saved`` accumulates the bytes served from cache instead of the
network — the number :class:`~repro.obs.record.RunTelemetry`
surfaces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..errors import ConfigurationError
from ..obs.events import EventLog

__all__ = ["CacheStats", "ChunkCache"]


@dataclass
class CacheStats:
    """Hit/miss/evict accounting, mutated under the owning cache's lock."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    rejected: int = 0
    bytes_saved: int = 0


@dataclass
class _Entry:
    value: Any
    nbytes: int


class ChunkCache:
    """Size-bounded LRU keyed by chunk identity.

    ``trace`` is the usual optional observability hook: hits, misses and
    evictions land on the event timeline (``cache_hit``/``cache_miss``/
    ``cache_evict``). It defaults to off and costs one ``None`` check.
    The counts themselves are ``stats``, which
    :func:`~repro.runtime.telemetry.read_ledger` copies into
    :class:`~repro.obs.record.RunTelemetry`.
    """

    def __init__(
        self,
        capacity_bytes: int,
        *,
        trace: EventLog | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self.trace = trace
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # -- introspection ------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    # -- the cache ----------------------------------------------------------

    def get(
        self, key: Hashable, *, job_id: int = -1, file_id: int = -1
    ) -> Any | None:
        """Return the cached value (refreshing recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self.stats.bytes_saved += entry.nbytes
        if entry is None:
            if self.trace is not None:
                self.trace.emit("cache_miss", job_id=job_id, file_id=file_id)
            return None
        if self.trace is not None:
            self.trace.emit(
                "cache_hit", job_id=job_id, file_id=file_id,
                detail=f"{entry.nbytes}B",
            )
        return entry.value

    def put(
        self,
        key: Hashable,
        value: Any,
        nbytes: int | None = None,
        *,
        job_id: int = -1,
        file_id: int = -1,
    ) -> int:
        """Insert ``value`` under ``key``; returns the number of evictions.

        ``nbytes`` defaults to the value's buffer size (``.nbytes`` for
        memoryviews, ``len`` otherwise). A value larger than the entire
        budget is rejected (counted in ``stats.rejected``) rather than
        evicting the whole cache for a single un-reusable entry.

        Entries may be buffers that decoded chunk views alias. Eviction
        only drops the cache's reference: any outstanding view (or NumPy
        array decoded over one) keeps the backing buffer alive, so
        zero-copy readers never observe a use-after-evict.
        """
        if nbytes is None:
            nbytes = value.nbytes if isinstance(value, memoryview) else len(value)
        if nbytes < 0:
            raise ConfigurationError(f"negative entry size {nbytes}")
        evicted = 0
        with self._lock:
            if nbytes > self.capacity_bytes:
                self.stats.rejected += 1
                return 0
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            while self._bytes + nbytes > self.capacity_bytes:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                evicted += 1
            self._entries[key] = _Entry(value, nbytes)
            self._bytes += nbytes
            self.stats.insertions += 1
            self.stats.evictions += evicted
        if evicted and self.trace is not None:
            self.trace.emit(
                "cache_evict", job_id=job_id, file_id=file_id,
                detail=f"{evicted} entries for {nbytes}B",
            )
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
