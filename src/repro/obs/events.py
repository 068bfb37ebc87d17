"""Structured event stream shared by both execution substrates.

The simulator and the executable runtime tell the same time-decomposition
story (processing vs. retrieval vs. sync vs. idle — Figure 3 / Tables
I-II) through one event vocabulary. A :class:`TraceEvent` is a timestamped
occurrence; an :class:`EventLog` collects them:

* the **simulator** records events at simulated timestamps
  (``log.record(env.now, kind, ...)``);
* the **runtime** emits events at wall-clock timestamps relative to the
  run's start (``log.emit(kind, ...)``), from many threads at once — the
  log is thread-safe.

Both produce the same stream shape, so the analyses in
:mod:`repro.obs.spans` and the exporters in :mod:`repro.obs.export`
apply to either. Tracing is off by default (``trace=None`` everywhere)
and the disabled path is a single attribute-load-and-``None``-check —
see ``benchmarks/bench_obs.py`` for the overhead guarantee.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import TraceError

__all__ = [
    "KINDS",
    "SIM_KINDS",
    "RUNTIME_KINDS",
    "TraceEvent",
    "EventLog",
]

#: Event kinds emitted by the simulated nodes (the original vocabulary).
SIM_KINDS = (
    "fetch_start",
    "fetch_end",
    "compute_start",
    "compute_end",
    "job_done",
    "group_assigned",
    "group_acked",
    "combine_done",
    "robj_sent",
    "merge_done",
)

#: Additional kinds only the executable runtime produces.
RUNTIME_KINDS = (
    "steal",  # the head scheduler assigned remote-site jobs
    "slave_failed",  # a slave worker died; its work will be re-executed
    "job_reexecuted",  # one job recovered from a dead slave's backlog
    "remote_fetch",  # the dataset reader crossed sites for a chunk
    "retry",  # a sub-range read failed transiently and is being retried
    "hedge",  # a straggling sub-range read was raced with a duplicate
    "circuit_open",  # an endpoint degraded to single-stream reads
    "circuit_close",  # a degraded endpoint recovered to parallel reads
    "fault_injected",  # the fault injector perturbed a storage request
    "cache_hit",  # a remote chunk was served from the node's chunk cache
    "cache_miss",  # the chunk cache was consulted and had no entry
    "cache_evict",  # the byte budget forced entries out of the cache
    "prefetch",  # a slave's prefetcher acquired the next job early
    "sync_partial",  # a slave flushed a partial reduction object mid-run
    "sync_upload",  # a master encoded its contribution for a cross-site hop
    "sync_merge",  # an aggregation point folded in an arriving upload
    "data_path",  # end-of-run zero-copy digest (reads served as views)
    "scale_up",  # the autoscaler added cloud slaves mid-run
    "scale_down",  # the autoscaler released cloud slaves mid-run
    "provision",  # a scale-up finished its provisioning delay
    "revocation",  # a spot instance vanished; recovery will re-execute
)

#: The full shared vocabulary.
KINDS = SIM_KINDS + RUNTIME_KINDS

_KIND_SET = frozenset(KINDS)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence."""

    time: float
    kind: str
    cluster: str = ""
    worker: int = -1
    job_id: int = -1
    file_id: int = -1
    detail: str = ""


class EventLog:
    """Thread-safe collector of :class:`TraceEvent`.

    ``record`` takes an explicit timestamp (the simulator's path);
    ``emit`` stamps wall-clock time relative to the log's origin (the
    runtime's path). The origin is set by the first :meth:`start`/
    :meth:`emit` call and kept across runs, so iterative workloads that
    reuse one log produce a single continuous timeline.

    ``max_events`` bounds memory for long/iterative runs: once the cap
    is hit the log becomes a ring — the oldest events fall off the front
    and :attr:`events_dropped` counts the loss. The default (``None``)
    keeps every event, unchanged from the original behaviour.
    """

    def __init__(
        self,
        events: Iterable[TraceEvent] = (),
        *,
        max_events: int | None = None,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise TraceError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        seed = list(events)
        self.events_dropped = max(0, len(seed) - max_events) if max_events else 0
        if max_events is None:
            self.events: list[TraceEvent] = seed
        else:
            self.events = deque(seed, maxlen=max_events)  # type: ignore[assignment]
        self._lock = threading.Lock()
        self._origin: float | None = None

    # -- recording ---------------------------------------------------------

    def start(self) -> None:
        """Pin the wall-clock origin for :meth:`emit` (idempotent)."""
        if self._origin is None:
            self._origin = time.perf_counter()

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append an event at an explicit timestamp."""
        if kind not in _KIND_SET:
            raise TraceError(f"unknown trace event kind {kind!r}")
        event = TraceEvent(time=time, kind=kind, **fields)
        with self._lock:
            if (
                self.max_events is not None
                and len(self.events) == self.max_events
            ):
                self.events_dropped += 1
            self.events.append(event)

    def emit(self, kind: str, **fields: Any) -> None:
        """Append an event stamped ``now - origin`` (wall clock)."""
        if self._origin is None:
            self.start()
        self.record(time.perf_counter() - self._origin, kind, **fields)

    # -- queries ------------------------------------------------------------

    def snapshot(self) -> list[TraceEvent]:
        """A consistent copy of the stream (safe while threads emit)."""
        with self._lock:
            return list(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_worker(self, worker: int) -> list[TraceEvent]:
        return [e for e in self.events if e.worker == worker]

    def workers(self) -> list[int]:
        return sorted({e.worker for e in self.events if e.worker >= 0})

    def makespan(self) -> float:
        """The last event's timestamp (0.0 for an empty log)."""
        return max((e.time for e in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)
