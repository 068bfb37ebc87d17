"""Run handles: the client's view of one submission.

:meth:`repro.service.JobService.submit` returns a :class:`RunHandle`
immediately — the run itself executes whenever the service's scheduler
picks it. The handle is the only client-side object: ``status()`` for a
point-in-time snapshot, ``result(timeout=)`` to block for the outcome,
``cancel()`` to withdraw a queued run, and ``stream()`` to follow the
run's :class:`~repro.obs.live.RunSample` health timeline as it lands
(requires ``config.monitor.interval > 0``; the service fans the samples
out through the PR-5 :class:`~repro.obs.live.RunMonitor` layer).

Handles stay valid after the run finishes and after the service drains —
a terminal handle answers ``status()``/``result()`` from its stored
record forever.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from ..errors import RunCancelledError, ServiceTimeoutError
from ..obs.live import RunSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..facade import RunResult
    from .core import JobService, _Run

__all__ = ["RunState", "RunStatus", "RunHandle"]


class RunState(str, enum.Enum):
    """Lifecycle of a submission.

    ``QUEUED -> RUNNING -> DONE | FAILED``; ``QUEUED -> CANCELLED`` when a
    cancel lands before dispatch. Terminal states never change.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (RunState.DONE, RunState.FAILED, RunState.CANCELLED)


@dataclass(frozen=True)
class RunStatus:
    """Point-in-time snapshot of one run, safe to hold across time.

    ``queued_ahead`` counts runs of the *same tenant* still queued in
    front of this one (``0`` once dispatched). Timestamps are on the
    service's clock (virtual under :class:`~repro.clock.FakeClock`);
    ``started_at``/``finished_at`` are ``None`` until those transitions
    happen. ``error`` carries the failure message for ``FAILED`` runs.
    """

    run_id: str
    tenant: str
    state: RunState
    priority: int
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    queued_ahead: int
    error: str | None


class RunHandle:
    """Client-side handle for one submitted run."""

    def __init__(self, service: "JobService", run: "_Run") -> None:
        self._service = service
        self._run = run

    @property
    def run_id(self) -> str:
        return self._run.run_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunHandle({self._run.run_id!r}, tenant={self._run.tenant!r}, "
            f"state={self._run.state.value!r})"
        )

    def status(self) -> RunStatus:
        """Snapshot the run's current state (never blocks)."""
        return self._service._status_of(self._run)

    def done(self) -> bool:
        """True once the run reached a terminal state."""
        return self._run.state.terminal

    def cancel(self) -> bool:
        """Withdraw the run if it is still queued.

        Returns ``True`` exactly once — on the call that moved the run
        from ``QUEUED`` to ``CANCELLED``. A run already dispatched keeps
        executing (the service never preempts a live cluster) and a
        terminal run is left alone, both returning ``False``; repeated
        cancels are safe.
        """
        return self._service._cancel(self._run)

    def result(self, timeout: float | None = None) -> "RunResult":
        """Block until the run finishes and return its ``RunResult``.

        On an inline service (``workers=0``) this *drives* execution on
        the calling thread, draining queued runs in fair-share order
        until this one completes. Raises :class:`RunCancelledError` for
        a cancelled run, re-raises the run's own exception for a failed
        one, and raises :class:`ServiceTimeoutError` once ``timeout``
        seconds elapse on the service clock (the run keeps executing —
        the timeout abandons the wait, not the work).
        """
        run = self._run
        deadline = (
            None
            if timeout is None
            else self._service._clock.monotonic() + timeout
        )
        while not run.state.terminal:
            if (
                deadline is not None
                and self._service._clock.monotonic() >= deadline
            ):
                raise ServiceTimeoutError(
                    f"run {run.run_id!r} still {run.state.value} after "
                    f"{timeout}s; call result() again or cancel()"
                )
            self._service._pump(run)
        if run.state is RunState.CANCELLED:
            raise RunCancelledError(f"run {run.run_id!r} was cancelled")
        if run.state is RunState.FAILED:
            assert run.error is not None
            raise run.error
        return run.result

    def stream(self) -> Iterator[RunSample]:
        """Yield the run's health samples in order, ending at completion.

        Live on a threaded service; on an inline service the run executes
        inside the first ``next()`` and the timeline replays. Yields
        nothing unless the run's config enabled monitoring
        (``monitor.interval > 0``).
        """
        run = self._run
        index = 0
        while True:
            samples = run.samples
            if index < len(samples):
                yield samples[index]
                index += 1
                continue
            if run.state.terminal:
                return
            self._service._pump(run)

    def _record(self) -> Any:
        """The service-side run record (service internals + tests only)."""
        return self._run
