"""Circuit breaker: degrade, don't die.

When a storage endpoint keeps failing, hammering it with N parallel
connections (each retrying with backoff) makes the incident worse and the
job no faster. The breaker watches consecutive attempt-level failures on
one endpoint; past a threshold it *opens*, and the retriever drops from
N-way parallel range reads to a single sequential stream — the paper's
local-read shape — until enough consecutive successes close it again.
Both transitions are recorded (``circuit_open`` / ``circuit_close``
events, ``circuit_opens`` in :class:`~repro.obs.record.RunTelemetry`)
so a degraded run is visible, not silent.
"""

from __future__ import annotations

import threading

from ..errors import ConfigurationError
from ..obs.events import EventLog

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure breaker guarding one storage endpoint.

    * ``failure_threshold`` — consecutive failed attempts before opening;
    * ``recovery_successes`` — consecutive successful attempts while open
      before closing again.

    Unlike a classic request-rejecting breaker, an open circuit here never
    refuses work — it only *narrows* it (parallel -> single-stream), so a
    run always makes progress as long as the endpoint serves anything.
    """

    def __init__(
        self,
        failure_threshold: int = 8,
        recovery_successes: int = 32,
        *,
        name: str = "",
        trace: EventLog | None = None,
    ) -> None:
        if failure_threshold <= 0 or recovery_successes <= 0:
            raise ConfigurationError(
                "failure_threshold and recovery_successes must be positive"
            )
        self.failure_threshold = failure_threshold
        self.recovery_successes = recovery_successes
        self.name = name
        self.trace = trace
        self.opens = 0
        self.closes = 0
        self._open = False
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._lock = threading.Lock()

    @property
    def open(self) -> bool:
        """True while the endpoint is degraded to single-stream reads."""
        with self._lock:
            return self._open

    def record_failure(self) -> None:
        """One attempt failed; may trip the breaker."""
        tripped = False
        with self._lock:
            self._consecutive_successes = 0
            self._consecutive_failures += 1
            if not self._open and self._consecutive_failures >= self.failure_threshold:
                self._open = True
                self.opens += 1
                tripped = True
        if tripped and self.trace is not None:
            self.trace.emit(
                "circuit_open",
                detail=f"endpoint={self.name} after "
                f"{self.failure_threshold} consecutive failures",
            )

    def record_success(self) -> None:
        """One attempt succeeded; may close an open breaker."""
        closed = False
        with self._lock:
            self._consecutive_failures = 0
            if self._open:
                self._consecutive_successes += 1
                if self._consecutive_successes >= self.recovery_successes:
                    self._open = False
                    self._consecutive_successes = 0
                    self.closes += 1
                    closed = True
        if closed and self.trace is not None:
            self.trace.emit(
                "circuit_close",
                detail=f"endpoint={self.name} after "
                f"{self.recovery_successes} consecutive successes",
            )
