"""Exception hierarchy for the cloud-bursting middleware.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers embedding the library can catch one type. Sub-hierarchies mirror the
package layout: configuration, data organization, storage, scheduling,
runtime, and simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or system configuration is inconsistent or invalid."""


class DataFormatError(ReproError):
    """A dataset file, record, or index could not be parsed or validated."""


class IndexError_(DataFormatError):
    """A data index is malformed or references data that does not exist.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class StorageError(ReproError):
    """A storage service failed to satisfy a read or write request."""


class ObjectNotFoundError(StorageError):
    """The requested key does not exist in the object store."""

    def __init__(self, key: str) -> None:
        super().__init__(f"object not found: {key!r}")
        self.key = key


class TransientStorageError(StorageError):
    """A storage request failed in a way that may succeed on retry.

    Real object stores return 500/503/timeout-class errors under load;
    the :class:`~repro.resilience.FaultInjector` raises this type and the
    :class:`~repro.resilience.RetryPolicy` machinery retries it. Anything
    that is a plain :class:`StorageError` (bad range, missing key) fails
    fast instead.
    """


class PermanentStorageError(StorageError):
    """A storage request that will never succeed, no matter how retried.

    Raised by the fault injector for keys configured as permanently
    failed; the retry layer deliberately does not retry it, so it
    surfaces through the slave-failure / re-execution recovery path.
    """


class SchedulingError(ReproError):
    """The scheduler was asked to do something inconsistent.

    Examples: assigning a job that was already assigned, or registering the
    same cluster twice.
    """


class RuntimeProtocolError(ReproError):
    """A runtime component received a message that violates the protocol."""


class RuntimeTimeoutError(RuntimeProtocolError):
    """A runtime component did not finish within its join timeout, or a
    mailbox received nothing within its deadline.

    The driver re-raises either with a message naming the timeout and
    which masters/slaves were still alive — a hung run should say who hung.
    """


class WorkerFailure(ReproError):
    """A slave worker 'crashed' (raised by fault-injection hooks).

    The middleware recovers by re-executing every job the dead worker had
    processed — its private reduction object dies with it, so completed
    work must be redone, exactly as in the FREERIDE recovery model.
    """


class ReductionError(ReproError):
    """A reduction object could not be merged or serialized."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class CalibrationError(SimulationError):
    """A calibration parameter set is missing or invalid."""


class TraceError(SimulationError):
    """A trace event stream is malformed or an analysis was misused.

    Shared by both substrates; subclasses :class:`SimulationError` because
    the trace toolkit grew out of the simulator and existing callers catch
    that type.
    """


class ServiceError(ReproError):
    """The multi-run job service was used inconsistently.

    Examples: submitting to a service that is already draining, or
    operating a handle whose service has been shut down.
    """


class AdmissionError(ServiceError):
    """A submission was rejected at the admission gate.

    Raised when a tenant is over its pending quota or the service is at
    global capacity; the message names the limit so callers can back off
    or resubmit with different placement.
    """


class RunCancelledError(ServiceError):
    """The run behind a handle was cancelled before it produced a result.

    Raised by ``RunHandle.result()``; ``handle.status()`` stays usable
    and reports ``CANCELLED``.
    """


class ServiceTimeoutError(ServiceError):
    """A ``RunHandle.result(timeout=...)`` deadline elapsed.

    The run keeps executing — the timeout abandons the wait, not the
    work; call ``result()`` again or ``cancel()`` to stop it.
    """
