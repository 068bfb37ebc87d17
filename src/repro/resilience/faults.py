"""Configurable fault injection for any storage service.

:class:`FaultInjector` wraps a :class:`~repro.storage.base.StorageService`
and perturbs its read path with the failure modes real object stores
exhibit: transient request errors (500/503/timeout class), latency
spikes, throttled ("slow") connections, and permanent per-key failures.
All randomness comes from one seeded RNG, so a given spec + seed produces
a reproducible fault schedule for a fixed request sequence.

A :class:`FaultSpec` is buildable from a compact text grammar so the CLI
can take ``--faults`` on the command line::

    transient=0.1                 10% of reads raise TransientStorageError
    latency=0.05:0.2              5% of reads stall an extra 200 ms
    slow=0.02:1048576             2% of reads are throttled to 1 MiB/s
    permanent=part-00003          keys containing the substring always fail
    seed=7                        reseed the injector's RNG

Clauses are comma-separated and may repeat (``permanent`` accumulates).
See ``docs/RESILIENCE.md`` for the full grammar.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import (
    ConfigurationError,
    PermanentStorageError,
    TransientStorageError,
)
from ..obs.events import EventLog
from ..storage.base import StorageService

__all__ = ["FaultSpec", "FaultCounters", "FaultInjector"]


def _rate(clause: str, value: str) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise ConfigurationError(f"fault clause {clause!r}: bad rate {value!r}") from None
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault clause {clause!r}: rate must be in [0, 1]")
    return rate


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, and how often.

    Rates are per read request (every ranged GET counts, so one chunk
    fetched over N connections rolls the dice N times — exactly the
    granularity the retry layer recovers at).
    """

    transient_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.0
    slow_rate: float = 0.0
    slow_bandwidth: float = 0.0
    permanent_substrings: tuple[str, ...] = ()
    seed: int = 2011

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.latency_rate > 0 and self.latency_seconds <= 0:
            raise ConfigurationError("latency_seconds must be positive when latency_rate > 0")
        if self.slow_rate > 0 and self.slow_bandwidth <= 0:
            raise ConfigurationError("slow_bandwidth must be positive when slow_rate > 0")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from the ``--faults`` grammar (see module docs)."""
        fields: dict = {}
        permanent: list[str] = []
        for clause in filter(None, (c.strip() for c in text.split(","))):
            if "=" not in clause:
                raise ConfigurationError(
                    f"fault clause {clause!r}: expected key=value"
                )
            key, _, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "transient":
                fields["transient_rate"] = _rate(clause, value)
            elif key == "latency":
                rate, _, seconds = value.partition(":")
                if not seconds:
                    raise ConfigurationError(
                        f"fault clause {clause!r}: expected latency=RATE:SECONDS"
                    )
                fields["latency_rate"] = _rate(clause, rate)
                fields["latency_seconds"] = float(seconds)
            elif key == "slow":
                rate, _, bandwidth = value.partition(":")
                if not bandwidth:
                    raise ConfigurationError(
                        f"fault clause {clause!r}: expected slow=RATE:BYTES_PER_SECOND"
                    )
                fields["slow_rate"] = _rate(clause, rate)
                fields["slow_bandwidth"] = float(bandwidth)
            elif key == "permanent":
                permanent.extend(filter(None, value.split("|")))
            elif key == "seed":
                try:
                    fields["seed"] = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"fault clause {clause!r}: seed must be an integer"
                    ) from None
            else:
                raise ConfigurationError(
                    f"unknown fault clause {key!r} (known: transient, latency, "
                    "slow, permanent, seed)"
                )
        if permanent:
            fields["permanent_substrings"] = tuple(permanent)
        return cls(**fields)

    @property
    def active(self) -> bool:
        return bool(
            self.transient_rate
            or self.latency_rate
            or self.slow_rate
            or self.permanent_substrings
        )

    def describe(self) -> str:
        parts = []
        if self.transient_rate:
            parts.append(f"transient={self.transient_rate:g}")
        if self.latency_rate:
            parts.append(f"latency={self.latency_rate:g}:{self.latency_seconds:g}")
        if self.slow_rate:
            parts.append(f"slow={self.slow_rate:g}:{self.slow_bandwidth:g}")
        for sub in self.permanent_substrings:
            parts.append(f"permanent={sub}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


@dataclass
class FaultCounters:
    """How many of each fault actually fired (inspected by tests/CLI)."""

    transient: int = 0
    latency: int = 0
    slow: int = 0
    permanent: int = 0
    reads: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def total(self) -> int:
        return self.transient + self.latency + self.slow + self.permanent


class FaultInjector(StorageService):
    """A storage service that misbehaves on purpose.

    Wraps ``inner`` transparently for writes and metadata; perturbs only
    :meth:`read_range` — the request granularity the resilient retriever
    recovers at. Thread-safe: the RNG is guarded by a lock so concurrent
    retrieval threads draw from one reproducible sequence.
    """

    def __init__(
        self,
        inner: StorageService,
        spec: FaultSpec,
        *,
        trace: EventLog | None = None,
        sleep=time.sleep,
    ) -> None:
        self.inner = inner
        self.spec = spec
        self.trace = trace
        self.counters = FaultCounters()
        self._sleep = sleep
        self._rng = random.Random(spec.seed)
        self._lock = threading.Lock()

    # -- injection ---------------------------------------------------------

    def _emit(self, kind_detail: str, key: str) -> None:
        if self.trace is not None:
            self.trace.emit("fault_injected", detail=f"{kind_detail} key={key}")

    def _roll(self) -> tuple[float, float, float]:
        with self._lock:
            return self._rng.random(), self._rng.random(), self._rng.random()

    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        self._inject(key, offset, nbytes)
        return self.inner.read_range(key, offset, nbytes)

    def read_view(self, key: str, offset: int, nbytes: int) -> memoryview:
        """Views roll the same dice as byte reads: the fault schedule is a
        property of the request stream, not of the return type."""
        self._inject(key, offset, nbytes)
        return self.inner.read_view(key, offset, nbytes)

    @property
    def zero_copy_views(self) -> bool:  # type: ignore[override]
        return self.inner.zero_copy_views

    def _inject(self, key: str, offset: int, nbytes: int) -> None:
        with self.counters._lock:
            self.counters.reads += 1
        for sub in self.spec.permanent_substrings:
            if sub in key:
                with self.counters._lock:
                    self.counters.permanent += 1
                self._emit("permanent", key)
                raise PermanentStorageError(
                    f"injected permanent failure for key {key!r} (matched {sub!r})"
                )
        transient, latency, slow = self._roll()
        if latency < self.spec.latency_rate:
            with self.counters._lock:
                self.counters.latency += 1
            self._emit(f"latency +{self.spec.latency_seconds:g}s", key)
            self._sleep(self.spec.latency_seconds)
        if transient < self.spec.transient_rate:
            with self.counters._lock:
                self.counters.transient += 1
            self._emit("transient", key)
            raise TransientStorageError(
                f"injected transient error reading {key!r} "
                f"[{offset}, {offset + nbytes})"
            )
        if slow < self.spec.slow_rate:
            with self.counters._lock:
                self.counters.slow += 1
            self._emit(f"slow {self.spec.slow_bandwidth:g}B/s", key)
            self._sleep(nbytes / self.spec.slow_bandwidth)

    # -- transparent delegation -------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def keys(self, prefix: str = "") -> Iterable[str]:
        return self.inner.keys(prefix)

    def append_stream(
        self, key: str, parts: Iterable[bytes | memoryview]
    ) -> int:
        return self.inner.append_stream(key, parts)
