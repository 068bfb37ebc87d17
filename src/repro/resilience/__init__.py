"""Resilience subsystem for the data path.

The paper's cloud-bursting design leans on multi-threaded remote
retrieval from S3 (Section III-B); real object stores add transient
errors, latency spikes, and per-connection stragglers on top. This
package makes the retrieval layer degrade gracefully instead of failing
loudly, in three composable pieces:

* :class:`FaultInjector` — wraps any storage service and injects
  configurable faults from a seeded RNG (the test/chaos harness);
* :class:`RetryPolicy` / :func:`retry_call` — bounded retries with
  decorrelated-jitter backoff, per-attempt timeouts, an overall
  deadline, and hedged duplicate requests for stragglers;
* :class:`CircuitBreaker` — after repeated endpoint failures, degrades
  retrieval from N-way parallel to single-stream rather than failing
  the job.

The degradation ladder (see ``docs/RESILIENCE.md``): retry the
sub-range, hedge the straggler, narrow the endpoint, and only then fall
back to the middleware's slave-failure re-execution.
"""

from .circuit import CircuitBreaker
from .faults import FaultInjector, FaultSpec
from .retry import ResilienceStats, RetryBudgetExceeded, RetryPolicy, retry_call

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "FaultSpec",
    "ResilienceStats",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "retry_call",
]
