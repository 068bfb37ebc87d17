"""Live run-health monitoring: a periodic sampler over a running run.

ROADMAP's elastic autoscaler and multi-run service both need to *watch*
a run, not autopsy it: job-pool depth, steal rate, cache hit ratio,
WAN/sync bytes, worker utilization, and a completion-rate ETA, sampled
on an interval while the run executes. This module is that signal bus:

* :class:`RunSample` — one immutable snapshot of run health;
* :class:`RunMonitor` — a periodic sampler over a probe
  (:meth:`RunMonitor.bind`) that keeps a bounded ring of samples plus a
  subscription callback API. Only the cadence differs between engines:
  the runtime runs it on a thread through the injected clock (a
  :class:`~repro.clock.FakeClock` runs it on virtual time — tests never
  sleep); the simulator steps it from one simulation process per pass,
  :meth:`RunMonitor.sample_now` stamped at each virtual-time tick. Both
  engines feed the same consumers one ``RunSample`` vocabulary;
* :func:`run_probe` — the one probe both engines bind, over a pass's
  master and slave cores.

Enable via ``RunConfig(monitor=MonitorOptions(interval=0.5,
on_sample=...))`` or drive
interactively with the ``repro watch`` CLI. Disabled (the default)
neither engine constructs any of this machinery.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..clock import SYSTEM_CLOCK, SystemClock
from ..errors import TraceError

__all__ = ["RunSample", "RunMonitor", "run_probe"]


@dataclass(frozen=True)
class RunSample:
    """One snapshot of run health at a moment in run time."""

    time: float
    jobs_total: int
    jobs_done: int
    pool_depth: int
    in_flight: int
    steals: int
    workers: int
    workers_busy: int
    cache_hits: int
    cache_misses: int
    sync_bytes_sent: int
    remote_fetches: int
    completion_rate: float  # jobs/second, run-average
    eta_seconds: float | None  # None until the rate is observable

    @property
    def cache_hit_ratio(self) -> float:
        consulted = self.cache_hits + self.cache_misses
        return self.cache_hits / consulted if consulted else 0.0

    @property
    def utilization(self) -> float:
        return self.workers_busy / self.workers if self.workers else 0.0

    @property
    def progress(self) -> float:
        return self.jobs_done / self.jobs_total if self.jobs_total else 0.0

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "pool_depth": self.pool_depth,
            "in_flight": self.in_flight,
            "steals": self.steals,
            "workers": self.workers,
            "workers_busy": self.workers_busy,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "sync_bytes_sent": self.sync_bytes_sent,
            "remote_fetches": self.remote_fetches,
            "completion_rate": self.completion_rate,
            "eta_seconds": self.eta_seconds,
            "utilization": self.utilization,
        }


#: A probe returns the raw gauges; the monitor derives rate/ETA/time.
Probe = Callable[[], dict]

_GAUGES = (
    "jobs_total",
    "jobs_done",
    "pool_depth",
    "in_flight",
    "steals",
    "workers",
    "workers_busy",
    "cache_hits",
    "cache_misses",
    "sync_bytes_sent",
    "remote_fetches",
)


def run_probe(
    jobs_total: int,
    scheduler,
    masters: Sequence,
    slaves: Sequence,
    *,
    reader,
    codec,
    cache=None,
) -> Probe:
    """The gauges of one pass, in either engine: ``masters`` and
    ``slaves`` are its master and slave cores (every slave the pass may
    start), ``reader`` counts its cross-site fetches (``remote_fetches``).
    The codec and the cache may outlive the pass: they are read as
    movement since the probe was built. ``workers`` is protocol
    membership (the masters' active slaves), and a worker is busy while
    it holds an in-flight job, so the closing sample reads none busy."""
    cores = tuple(masters)
    crew = tuple(slaves)
    sent = codec.stats.wire_bytes
    if cache is not None:
        hits, misses = cache.stats.hits, cache.stats.misses

    def probe() -> dict:
        in_flight = sum(core.pool.in_flight for core in cores)
        workers = sum(core.active for core in cores)
        gauges = {
            "jobs_total": jobs_total,
            "jobs_done": sum(core.reduced for core in crew),
            "pool_depth": sum(len(core.pool) for core in cores),
            "in_flight": in_flight,
            "steals": sum(c.jobs_stolen for c in scheduler.clusters.values()),
            "workers": workers,
            "workers_busy": min(in_flight, workers),
            "remote_fetches": reader.remote_fetches,
            "sync_bytes_sent": codec.stats.wire_bytes - sent,
        }
        if cache is not None:
            gauges["cache_hits"] = cache.stats.hits - hits
            gauges["cache_misses"] = cache.stats.misses - misses
        return gauges

    return probe


def _derive(raw: dict, now: float) -> RunSample:
    gauges = {name: int(raw.get(name, 0)) for name in _GAUGES}
    rate = gauges["jobs_done"] / now if now > 0 else 0.0
    remaining = gauges["jobs_total"] - gauges["jobs_done"]
    eta = remaining / rate if rate > 0 and remaining >= 0 else None
    return RunSample(time=now, completion_rate=rate, eta_seconds=eta, **gauges)


class RunMonitor:
    """Clock-injected periodic sampler with a bounded sample ring.

    Lifecycle: construct, :meth:`bind` a probe, :meth:`start`; the
    sampler thread (spawned through the injected clock, so a
    :class:`~repro.clock.FakeClock` coordinates it) waits on a stop queue
    with the clock's ``wait``: each ``interval`` that passes empty is one
    :class:`RunSample`, and the item :meth:`stop` puts ends the loop;
    ``stop`` then takes one final sample, so even sub-interval runs record
    their end state. Neither moves a virtual clock.
    Subscribers are called synchronously on the sampler thread; a
    subscriber that raises is counted in :attr:`callback_errors`, never
    crashes the run.
    """

    def __init__(
        self,
        interval: float,
        *,
        capacity: int = 512,
        clock: SystemClock | None = None,
    ) -> None:
        if interval <= 0:
            raise TraceError(f"monitor interval must be positive, got {interval}")
        if capacity <= 0:
            raise TraceError(f"monitor capacity must be positive, got {capacity}")
        self.interval = interval
        self.capacity = capacity
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._ring: deque[RunSample] = deque(maxlen=capacity)
        self._subscribers: list[Callable[[RunSample], None]] = []
        self._probe: Probe | None = None
        self._thread: threading.Thread | None = None
        self._stop: "queue.SimpleQueue[bool] | None" = None
        self._lock = threading.Lock()
        self._t0: float | None = None
        self.samples_taken = 0
        self.callback_errors = 0

    # -- wiring --------------------------------------------------------------

    def bind(self, probe: Probe) -> None:
        """Attach the live gauge source (the runtime driver's closure)."""
        self._probe = probe

    def subscribe(self, fn: Callable[[RunSample], None]) -> None:
        """Register a callback invoked with every new sample."""
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[RunSample], None]) -> None:
        with self._lock:
            self._subscribers.remove(fn)

    def samples(self) -> list[RunSample]:
        """The retained ring, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._ring)

    @property
    def last(self) -> RunSample | None:
        with self._lock:
            return self._ring[-1] if self._ring else None

    # -- sampling ------------------------------------------------------------

    def sample_now(self, at: float | None = None) -> RunSample:
        """Take one sample synchronously (also used by the loop), stamped
        ``at`` seconds into the pass when given (the simulator's virtual
        time), else by the monitor's clock."""
        if self._probe is None:
            raise TraceError("monitor has no probe bound")
        if at is None:
            t0 = self._t0 if self._t0 is not None else self._clock.monotonic()
            at = self._clock.monotonic() - t0
        sample = _derive(self._probe(), at)
        with self._lock:
            self._ring.append(sample)
            subscribers = list(self._subscribers)
        self.samples_taken += 1
        for fn in subscribers:
            try:
                fn(sample)
            except Exception:
                self.callback_errors += 1
        return sample

    def start(self) -> None:
        """Begin periodic sampling (idempotent per run: call once)."""
        if self._probe is None:
            raise TraceError("monitor has no probe bound")
        if self._thread is not None and self._thread.is_alive():
            raise TraceError("monitor is already running")
        stop = self._stop = queue.SimpleQueue()
        self._t0 = self._clock.monotonic()
        self._thread = self._clock.spawn(
            lambda: self._loop(stop), name="run-monitor"
        )

    def stop(self) -> None:
        """Stop the sampler and take one closing sample."""
        thread = self._thread
        if thread is not None:
            self._stop.put(True)
            thread.join(timeout=30.0)
            self._thread = None
        if self._probe is not None and self._t0 is not None:
            self.sample_now()

    def _loop(self, stop: "queue.SimpleQueue[bool]") -> None:
        while True:
            try:
                self._clock.wait(stop, self.interval)
            except queue.Empty:
                self.sample_now()
            else:
                return
