"""Unit tests for the resilience subsystem.

Covers every policy knob: the fault-spec grammar, injector determinism,
retry/backoff semantics, per-attempt timeouts, hedged requests, the
circuit breaker's open/degrade/close ladder, and the retriever's
integration of all of them.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.clock import FakeClock
from repro.errors import (
    ConfigurationError,
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.obs.events import EventLog
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    ResilienceStats,
    RetryBudgetExceeded,
    RetryPolicy,
    retry_call,
)
from repro.storage.objectstore import ObjectStore
from repro.storage.retrieval import ChunkRetriever


# -- FaultSpec grammar ------------------------------------------------------


def test_fault_spec_parse_full_grammar():
    spec = FaultSpec.parse(
        "transient=0.1, latency=0.05:0.2, slow=0.02:1048576,"
        "permanent=part-00003|part-00007, permanent=bad, seed=7"
    )
    assert spec.transient_rate == 0.1
    assert spec.latency_rate == 0.05 and spec.latency_seconds == 0.2
    assert spec.slow_rate == 0.02 and spec.slow_bandwidth == 1048576
    assert spec.permanent_substrings == ("part-00003", "part-00007", "bad")
    assert spec.seed == 7
    assert spec.active


def test_fault_spec_parse_roundtrips_through_describe():
    spec = FaultSpec.parse("transient=0.25,seed=3")
    assert FaultSpec.parse(spec.describe()) == spec


def test_fault_spec_empty_text_is_inactive():
    assert not FaultSpec.parse("").active
    assert not FaultSpec().active


@pytest.mark.parametrize(
    "text",
    [
        "bogus=1",  # unknown clause
        "transient",  # no '='
        "transient=nope",  # bad rate
        "transient=1.5",  # rate out of range
        "latency=0.1",  # missing seconds
        "slow=0.1",  # missing bandwidth
        "seed=x",  # non-integer seed
    ],
)
def test_fault_spec_parse_rejects_bad_clauses(text):
    with pytest.raises(ConfigurationError):
        FaultSpec.parse(text)


def test_fault_spec_validates_rates():
    with pytest.raises(ConfigurationError):
        FaultSpec(transient_rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultSpec(latency_rate=0.5)  # no latency_seconds


# -- FaultInjector ----------------------------------------------------------


def seeded_store(n_keys: int = 2, nbytes: int = 256) -> ObjectStore:
    store = ObjectStore()
    for i in range(n_keys):
        store.put(f"data/part-{i:05d}.bin", bytes(range(256)) * (nbytes // 256))
    return store


def test_injector_is_deterministic_per_seed():
    def schedule(seed):
        injector = FaultInjector(
            seeded_store(), FaultSpec(transient_rate=0.3, seed=seed),
            sleep=lambda s: None,
        )
        outcomes = []
        for i in range(64):
            try:
                injector.read_range("data/part-00000.bin", 0, 16)
                outcomes.append("ok")
            except TransientStorageError:
                outcomes.append("err")
        return outcomes, injector.counters.transient

    first, n1 = schedule(11)
    second, n2 = schedule(11)
    other, n3 = schedule(12)
    assert first == second and n1 == n2
    assert first != other  # different seed, different schedule
    assert 0 < n1 < 64


def test_injector_permanent_substring_always_fails():
    injector = FaultInjector(
        seeded_store(), FaultSpec(permanent_substrings=("part-00001",))
    )
    for _ in range(5):
        with pytest.raises(PermanentStorageError):
            injector.read_range("data/part-00001.bin", 0, 8)
    # Other keys are untouched.
    assert injector.read_range("data/part-00000.bin", 0, 4) == bytes([0, 1, 2, 3])
    assert injector.counters.permanent == 5


def test_injector_latency_and_slow_call_sleep():
    sleeps: list[float] = []
    injector = FaultInjector(
        seeded_store(),
        FaultSpec(
            latency_rate=1.0, latency_seconds=0.25,
            slow_rate=1.0, slow_bandwidth=1024.0,
        ),
        sleep=sleeps.append,
    )
    data = injector.read_range("data/part-00000.bin", 0, 256)
    assert len(data) == 256
    # One latency spike + one throttled transfer (256 B at 1 KiB/s).
    assert sleeps == [0.25, 0.25]
    assert injector.counters.latency == 1 and injector.counters.slow == 1


def test_injector_delegates_everything_else():
    inner = seeded_store()
    injector = FaultInjector(inner, FaultSpec(transient_rate=1.0))
    injector.put("fresh", b"abc")
    assert inner.exists("fresh")
    assert injector.size("fresh") == 3
    assert injector.exists("fresh")
    injector.delete("fresh")
    assert not inner.exists("fresh")
    # Writes never fault, reads always do under transient=1.0.
    with pytest.raises(TransientStorageError):
        injector.read_range("data/part-00000.bin", 0, 1)


def test_injector_emits_fault_events():
    trace = EventLog()
    trace.start()
    injector = FaultInjector(
        seeded_store(), FaultSpec(transient_rate=1.0), trace=trace
    )
    with pytest.raises(TransientStorageError):
        injector.read_range("data/part-00000.bin", 0, 1)
    kinds = [e.kind for e in trace.snapshot()]
    assert kinds == ["fault_injected"]


# -- RetryPolicy / retry_call ----------------------------------------------


def test_retry_policy_validates_knobs():
    for bad in (
        dict(max_attempts=0),
        dict(base_backoff=-1.0),
        dict(base_backoff=2.0, max_backoff=1.0),
        dict(attempt_timeout=0.0),
        dict(deadline=-1.0),
        dict(hedge_after=0.0),
    ):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**bad)


def test_decorrelated_jitter_stays_in_bounds():
    policy = RetryPolicy(base_backoff=0.01, max_backoff=0.5)
    rng = random.Random(1)
    backoff = 0.0
    seen = []
    for _ in range(200):
        backoff = policy.next_backoff(rng, backoff)
        seen.append(backoff)
        assert policy.base_backoff <= backoff <= policy.max_backoff
    # The jitter actually spreads (not a constant schedule).
    assert len({round(b, 6) for b in seen}) > 10


def test_retry_call_recovers_after_transient_failures():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransientStorageError("blip")
        return "payload"

    observed = []
    result = retry_call(
        flaky,
        RetryPolicy(max_attempts=4, base_backoff=0.0, max_backoff=0.0),
        random.Random(0),
        on_retry=lambda attempt, exc, backoff: observed.append(attempt),
        sleep=lambda s: None,
    )
    assert result == "payload"
    assert calls["n"] == 3
    assert observed == [1, 2]


def test_retry_call_does_not_retry_non_transient():
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise StorageError("hard failure")

    with pytest.raises(StorageError, match="hard failure"):
        retry_call(broken, RetryPolicy(), random.Random(0), sleep=lambda s: None)
    assert calls["n"] == 1


def test_retry_call_exhausts_budget_and_chains_cause():
    def always():
        raise TransientStorageError("still down")

    with pytest.raises(RetryBudgetExceeded) as info:
        retry_call(
            always,
            RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0),
            random.Random(0),
            sleep=lambda s: None,
        )
    assert isinstance(info.value.__cause__, TransientStorageError)
    # Budget exhaustion is itself transient *in kind*.
    assert isinstance(info.value, TransientStorageError)


def test_retry_call_respects_deadline():
    clock = {"now": 0.0}

    def tick():
        return clock["now"]

    def fail():
        clock["now"] += 10.0
        raise TransientStorageError("slow outage")

    with pytest.raises(RetryBudgetExceeded, match="deadline"):
        retry_call(
            fail,
            RetryPolicy(max_attempts=100, base_backoff=0.01, deadline=25.0),
            random.Random(0),
            clock=tick,
            sleep=lambda s: None,
        )
    assert clock["now"] < 100.0  # gave up long before attempts ran out


# -- CircuitBreaker ---------------------------------------------------------


def test_breaker_opens_after_consecutive_failures_and_closes_again():
    trace = EventLog()
    trace.start()
    breaker = CircuitBreaker(3, 2, name="cloud", trace=trace)
    breaker.record_failure()
    breaker.record_failure()
    assert not breaker.open
    breaker.record_failure()
    assert breaker.open and breaker.opens == 1
    breaker.record_success()
    assert breaker.open  # needs two consecutive successes
    breaker.record_success()
    assert not breaker.open and breaker.closes == 1
    kinds = [e.kind for e in trace.snapshot()]
    assert kinds == ["circuit_open", "circuit_close"]


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(3, 1)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert not breaker.open  # the streak never reached 3


def test_breaker_failure_resets_recovery_streak():
    breaker = CircuitBreaker(2, 3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.open
    breaker.record_success()
    breaker.record_success()
    breaker.record_failure()  # recovery interrupted
    breaker.record_success()
    breaker.record_success()
    assert breaker.open  # needs three *consecutive* successes
    breaker.record_success()
    assert not breaker.open


def test_breaker_validates_thresholds():
    with pytest.raises(ConfigurationError):
        CircuitBreaker(0, 1)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(1, 0)


# -- ChunkRetriever integration --------------------------------------------


class FlakyStore(ObjectStore):
    """Fails the first ``fail_first`` read of every distinct range."""

    def __init__(self, fail_first: int = 1):
        super().__init__()
        self.fail_first = fail_first
        self.attempts: dict[tuple[str, int, int], int] = {}
        self.ranges: list[tuple[int, int]] = []
        self._flaky_lock = threading.Lock()

    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        with self._flaky_lock:
            seen = self.attempts.get((key, offset, nbytes), 0)
            self.attempts[(key, offset, nbytes)] = seen + 1
            self.ranges.append((offset, nbytes))
        if seen < self.fail_first:
            raise TransientStorageError(f"flake #{seen} at {offset}")
        return super().read_range(key, offset, nbytes)


def test_retriever_retries_each_subrange_independently():
    store = FlakyStore(fail_first=2)
    payload = bytes(range(256)) * 16
    store.put("k", payload)
    stats = ResilienceStats()
    retriever = ChunkRetriever(
        store, threads=4,
        policy=RetryPolicy(max_attempts=4, base_backoff=0.0, max_backoff=0.0),
        stats=stats,
    )
    assert retriever.fetch("k", 0, len(payload)) == payload
    # 4 sub-ranges x 2 flakes each.
    assert stats.retries == 8


def test_retriever_without_policy_fails_fast():
    store = FlakyStore(fail_first=1)
    store.put("k", b"x" * 64)
    retriever = ChunkRetriever(store, threads=2)
    with pytest.raises(TransientStorageError):
        retriever.fetch("k", 0, 64)


def test_retriever_raises_budget_exceeded_when_store_stays_down():
    store = FlakyStore(fail_first=99)
    store.put("k", b"x" * 64)
    retriever = ChunkRetriever(
        store, threads=2,
        policy=RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0),
    )
    with pytest.raises(RetryBudgetExceeded):
        retriever.fetch("k", 0, 64)


def test_open_breaker_degrades_to_single_stream():
    store = FlakyStore(fail_first=0)
    payload = b"y" * 128
    store.put("k", payload)
    breaker = CircuitBreaker(1, 1000)
    breaker.record_failure()  # trip it
    assert breaker.open
    retriever = ChunkRetriever(
        store, threads=4, policy=RetryPolicy(base_backoff=0.0, max_backoff=0.0),
        breaker=breaker,
    )
    assert retriever.fetch("k", 0, 128) == payload
    # One whole-range read, not four quarters.
    assert store.ranges == [(0, 128)]


def test_retriever_failures_trip_breaker_then_recovery_closes_it():
    store = FlakyStore(fail_first=2)
    payload = b"z" * 64
    store.put("k", payload)
    breaker = CircuitBreaker(2, 4)
    retriever = ChunkRetriever(
        store, threads=1,  # single stream: failures are strictly consecutive
        policy=RetryPolicy(max_attempts=4, base_backoff=0.0, max_backoff=0.0),
        breaker=breaker,
    )
    assert retriever.fetch("k", 0, 64) == payload  # fail, fail (trips), ok
    assert breaker.opens == 1 and breaker.open
    # Consecutive successes on the degraded stream close it again.
    for _ in range(4):
        assert retriever.fetch("k", 0, 64) == payload
    assert not breaker.open and breaker.closes == 1


class StragglerStore(ObjectStore):
    """First read of every range stalls; duplicates return instantly.

    The stall sleeps on an injected clock, so under a
    :class:`~repro.clock.FakeClock` the straggler parks in *virtual*
    time and the test never actually waits.
    """

    def __init__(self, stall: float, clock):
        super().__init__()
        self.stall = stall
        self.clock = clock
        self._seen: set[tuple[str, int, int]] = set()
        self._straggler_lock = threading.Lock()

    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        with self._straggler_lock:
            first = (key, offset, nbytes) not in self._seen
            self._seen.add((key, offset, nbytes))
        if first:
            self.clock.sleep(self.stall)
        return super().read_range(key, offset, nbytes)


def test_hedged_request_wins_over_straggler():
    with FakeClock() as clock:
        store = StragglerStore(stall=1800.0, clock=clock)
        payload = b"h" * 64
        store.put("k", payload)
        stats = ResilienceStats()
        retriever = ChunkRetriever(
            store, threads=1,
            policy=RetryPolicy(
                base_backoff=0.0, max_backoff=0.0, hedge_after=2.0
            ),
            stats=stats,
            clock=clock,
        )
        assert retriever.fetch("k", 0, 64) == payload
        # The straggler would have held the fetch for 1800 virtual
        # seconds; the hedge fired at 2.0 and won immediately.
        assert clock.monotonic() < 1800.0
        assert stats.hedges == 1
        assert stats.hedge_wins == 1


def test_attempt_timeout_abandons_hung_request_and_retries():
    with FakeClock() as clock:
        store = StragglerStore(stall=1800.0, clock=clock)
        payload = b"t" * 32
        store.put("k", payload)
        stats = ResilienceStats()
        retriever = ChunkRetriever(
            store, threads=1,
            policy=RetryPolicy(
                max_attempts=3, base_backoff=0.0, max_backoff=0.0,
                attempt_timeout=5.0,
            ),
            stats=stats,
            clock=clock,
        )
        assert retriever.fetch("k", 0, 32) == payload
        assert clock.monotonic() < 1800.0  # never waited out the straggler
        assert stats.timeouts == 1
        assert stats.retries == 1  # the timed-out attempt was retried


def test_retriever_records_attempt_metrics_and_trace():
    store = FlakyStore(fail_first=1)
    store.put("k", b"m" * 64)
    trace = EventLog()
    trace.start()
    retriever = ChunkRetriever(
        store, threads=2,
        policy=RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0),
        trace=trace,
    )
    retriever.fetch("k", 0, 64, job_id=9, file_id=3)
    assert sum(store.attempts.values()) == 4  # 2 ranges x 2 attempts
    retry_events = [e for e in trace.snapshot() if e.kind == "retry"]
    assert len(retry_events) == 2
    assert all(e.job_id == 9 and e.file_id == 3 for e in retry_events)
