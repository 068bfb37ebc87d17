"""Retry policy with exponential backoff and decorrelated jitter.

The data path's unit of recovery is one storage request (a ranged GET of
one sub-range of a chunk). :class:`RetryPolicy` bounds how hard the
retriever tries before giving up — attempt count, backoff shape, an
optional per-attempt timeout, an optional overall deadline, and an
optional hedging threshold past which a straggling request is raced
against a duplicate. :func:`retry_call` is the engine: it retries only
:class:`~repro.errors.TransientStorageError` (the "may succeed next
time" class); everything else — bad ranges, missing keys, permanent
faults — fails fast so genuine bugs keep surfacing loudly.

The backoff is AWS-style *decorrelated jitter*: each sleep is drawn
uniformly from ``[base, 3 * previous_sleep]`` and capped, which spreads
concurrent retriers apart instead of letting them thunder in lockstep.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError, TransientStorageError

__all__ = ["RetryPolicy", "ResilienceStats", "RetryBudgetExceeded", "retry_call"]


class RetryBudgetExceeded(TransientStorageError):
    """Every allowed attempt failed (or the deadline expired).

    Still transient *in kind* — the last underlying error was — but the
    policy's budget is spent, so callers treat it as a hard failure.
    The original error is chained as ``__cause__``.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on per-request recovery effort.

    * ``max_attempts`` — total tries per sub-range (1 = no retry);
    * ``base_backoff`` / ``max_backoff`` — decorrelated-jitter sleep
      bounds in seconds;
    * ``attempt_timeout`` — one attempt slower than this is abandoned and
      counted as a transient failure (``None`` disables);
    * ``deadline`` — overall wall-clock budget for one logical read
      across all attempts (``None`` disables);
    * ``hedge_after`` — when an attempt is still running after this many
      seconds, a duplicate request is launched and the first response
      wins (``None`` disables hedging).
    """

    max_attempts: int = 4
    base_backoff: float = 0.02
    max_backoff: float = 1.0
    attempt_timeout: float | None = None
    deadline: float | None = None
    hedge_after: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigurationError("max_attempts must be positive")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ConfigurationError(
                "need 0 <= base_backoff <= max_backoff "
                f"(got {self.base_backoff}, {self.max_backoff})"
            )
        for name in ("attempt_timeout", "deadline", "hedge_after"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive when set")

    def next_backoff(self, rng: random.Random, previous: float) -> float:
        """Decorrelated jitter: uniform in ``[base, 3*previous]``, capped."""
        prev = previous if previous > 0 else self.base_backoff
        low = self.base_backoff
        high = max(low, prev * 3.0)
        return min(self.max_backoff, rng.uniform(low, high))


class ResilienceStats:
    """Thread-safe counters for one run's data-path recovery actions.

    Shared by every retriever a :class:`~repro.data.dataset.DatasetReader`
    builds, then folded into :class:`~repro.obs.record.RunTelemetry`
    by the driver.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.timeouts = 0

    def add(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + n)


def retry_call(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    rng: random.Random,
    *,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn`` under ``policy``; returns its value or raises.

    ``on_retry(attempt, error, backoff)`` fires before each backoff sleep
    (attempt is the 1-based number of the attempt that just failed).
    Only :class:`~repro.errors.TransientStorageError` is retried. When
    the budget runs out, :class:`RetryBudgetExceeded` is raised with the
    last transient error chained.
    """
    started = clock()
    backoff = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except TransientStorageError as exc:
            if attempt >= policy.max_attempts:
                raise RetryBudgetExceeded(
                    f"gave up after {attempt} attempts: {exc}"
                ) from exc
            backoff = policy.next_backoff(rng, backoff)
            elapsed = clock() - started
            if policy.deadline is not None and elapsed + backoff >= policy.deadline:
                raise RetryBudgetExceeded(
                    f"deadline {policy.deadline:g}s exhausted after "
                    f"{attempt} attempts ({elapsed:.3f}s elapsed): {exc}"
                ) from exc
            if on_retry is not None:
                on_retry(attempt, exc, backoff)
            if backoff > 0:
                sleep(backoff)
    raise AssertionError("unreachable")  # pragma: no cover
