"""An S3-like object store.

The paper stores the cloud-resident fraction of every dataset in Amazon S3
and retrieves it over ranged GETs from multiple connections. This module is
the functional stand-in: a keyed blob store with range reads, GET/PUT
request counters, and an optional traffic shaper that enforces a
per-request latency and a per-connection bandwidth cap by sleeping on the
store's clock (wall-clock time unless a test injects a
:class:`~repro.clock.FakeClock`). The shaper is off by default (tests run
at memory speed) and exists so the examples can demonstrate why
multi-connection retrieval matters; the *performance model* of S3 used by
the evaluation lives in :mod:`repro.sim.storagemodel`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from ..clock import SYSTEM_CLOCK
from ..errors import ObjectNotFoundError
from .base import StorageService, validate_range

__all__ = ["TrafficShaper", "RequestStats", "ObjectStore"]


@dataclass(frozen=True)
class TrafficShaper:
    """Shaping applied to each GET, slept on the store's clock.

    ``request_latency`` models the per-request round trip; ``bandwidth``
    caps the throughput of one connection in bytes/second. Zero disables a
    knob.
    """

    request_latency: float = 0.0
    bandwidth: float = 0.0

    def delay_for(self, nbytes: int) -> float:
        d = self.request_latency
        if self.bandwidth > 0:
            d += nbytes / self.bandwidth
        return d


@dataclass
class RequestStats:
    """Counters the tests and examples inspect."""

    gets: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_get(self, nbytes: int) -> None:
        with self._lock:
            self.gets += 1
            self.bytes_read += nbytes

    def record_put(self, nbytes: int) -> None:
        with self._lock:
            self.puts += 1
            self.bytes_written += nbytes


class ObjectStore(StorageService):
    """In-memory, thread-safe keyed blob store with range GETs."""

    def __init__(
        self, shaper: TrafficShaper | None = None, *, clock=SYSTEM_CLOCK
    ) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.shaper = shaper
        #: Where the shaper's delay is slept.
        self.clock = clock
        self.stats = RequestStats()

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[key] = bytes(data)
        self.stats.record_put(len(data))

    def _ranged_get(self, key: str, offset: int, nbytes: int) -> tuple[bytes, int]:
        """Shared GET bookkeeping: resolve the blob, clamp the range,
        apply shaping, count the request. Returns ``(blob, actual)``."""
        with self._lock:
            blob = self._blobs.get(key)
        if blob is None:
            raise ObjectNotFoundError(key)
        actual = validate_range(len(blob), offset, nbytes)
        if self.shaper is not None:
            delay = self.shaper.delay_for(actual)
            if delay > 0:
                self.clock.sleep(delay)
        self.stats.record_get(actual)
        return blob, actual

    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        blob, actual = self._ranged_get(key, offset, nbytes)
        return blob[offset : offset + actual]

    #: Blobs are immutable in-memory ``bytes`` — views alias them safely.
    zero_copy_views: bool = True

    def read_view(self, key: str, offset: int, nbytes: int) -> memoryview:
        """Zero-copy range GET: a read-only view over the stored blob.

        ``put`` replaces (never mutates) blobs, so an outstanding view
        keeps its blob alive by reference even after a replacing ``put``
        or ``delete`` — the same aliasing guarantee cached chunks rely on.
        """
        blob, actual = self._ranged_get(key, offset, nbytes)
        return memoryview(blob)[offset : offset + actual]

    def size(self, key: str) -> int:
        with self._lock:
            blob = self._blobs.get(key)
        if blob is None:
            raise ObjectNotFoundError(key)
        return len(blob)

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._blobs

    def delete(self, key: str) -> None:
        with self._lock:
            self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> Iterable[str]:
        with self._lock:
            return sorted(k for k in self._blobs if k.startswith(prefix))
