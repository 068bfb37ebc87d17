"""The self-sizing prefetch window, in virtual time.

Everything here runs on :class:`~repro.clock.FakeClock`: fetches are
virtual sleeps (a closure, or a shaped :class:`ObjectStore` given the
clock), compute is a settled virtual wait, and no assertion depends on
real time.

* a hypothesis property test of :class:`~repro.cache.Prefetcher` alone —
  order, exactly-once delivery, the window and byte bounds, error
  surfacing, thread hygiene;
* a slave-level test on a shaped store: a real
  :class:`~repro.runtime.slave.SlaveWorker` against a scripted master
  finishes *n* remote chunks of latency *L* in ``(1 + ceil((n-1)/W))·L``
  virtual seconds where the sequential slave takes ``n·L``, with the
  same GETs and cache misses. (The full runtime's head and masters wait
  on real queues, not the clock — ROADMAP items 6/7 — so the slave is
  the largest piece that runs in virtual time.)
"""

from __future__ import annotations

import math
import queue
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cache import ChunkCache, Prefetcher
from repro.cache import prefetch as prefetch_module
from repro.cache.prefetch import MAX_WINDOW_JOBS
from repro.clock import FakeClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    DatasetSpec,
    PlacementSpec,
)
from repro.core.messages import (
    SlaveJobDone,
    SlaveJobReply,
    SlaveJobRequest,
    SlaveReduction,
)
from repro.data.dataset import DatasetReader, build_dataset
from repro.runtime.slave import SlaveWorker
from repro.runtime.transport import Mailbox
from repro.storage.objectstore import ObjectStore, TrafficShaper

_NOTHING: "queue.SimpleQueue[None]" = queue.SimpleQueue()

#: The byte budget the property test runs under, so chunks can stay small.
_BUDGET = 4096


def settle(clock: FakeClock, seconds: float) -> None:
    """The owner computes for ``seconds``: virtual time moves only once
    every stage has parked, so what a stage starts *now* starts now."""
    if seconds > 0:
        with pytest.raises(queue.Empty):
            clock.wait(_NOTHING, seconds)


def prefetch_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate() if t.name.startswith("prefetch:")
    ]


class Recording(Prefetcher):
    """Remembers every window the owner refilled to, and how many jobs it
    had been handed by then (a refill is what lets a stage acquire)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.windows: list[int] = []
        self.handed = 0

    def _refill(self) -> None:
        self.windows.append(self.window)
        self.handed = self._delivered
        super()._refill()


class Boom(Exception):
    pass


_durations = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]), min_size=1,
                      max_size=4)


@settings(deadline=None, max_examples=60)
@given(
    jobs=st.integers(0, 14),
    fetch_s=_durations,
    compute_s=_durations,
    chunk=st.sampled_from([1, _BUDGET // 3, _BUDGET, 2 * _BUDGET]),
    failure=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["acquire", "fetch"]), st.integers(0, 13)),
    ),
)
def test_prefetcher_window_properties(jobs, fetch_s, compute_s, chunk, failure):
    """Random fetch/compute durations, job counts and failure points."""
    if failure is not None and failure[1] >= jobs:
        failure = None
    acquired: list[int] = []
    delivered: list[int] = []
    peak = 0

    with FakeClock() as clock, mock.patch.object(
        prefetch_module, "WINDOW_BYTES", _BUDGET
    ):

        def acquire():  # the prefetcher runs one of these at a time
            nonlocal peak
            n = len(acquired)
            if failure == ("acquire", n):
                raise Boom(f"acquire {n}")
            if n >= jobs:
                return None
            acquired.append(n)
            peak = max(peak, len(acquired) - pf.handed)
            return n

        def fetch(job: int) -> bytes:
            clock.sleep(fetch_s[job % len(fetch_s)])
            if failure == ("fetch", job):
                raise Boom(f"fetch {job}")
            return bytes(chunk)

        pf = Recording(acquire, fetch, cluster="c", worker=3, clock=clock)
        error = None
        try:
            while True:
                try:
                    job, raw = pf.take(timeout=1000.0)
                except Boom as exc:
                    error = exc
                    break
                if job is None:
                    break
                assert len(raw) == chunk
                delivered.append(job)
                settle(clock, compute_s[job % len(compute_s)])
        finally:
            pf.close()
        assert prefetch_threads() == []

    # Delivery order is acquisition order; nothing is delivered twice.
    assert delivered == acquired[: len(delivered)]
    if failure is None:
        assert error is None and delivered == list(range(jobs))
    else:
        # The error surfaced on the failed job's own turn.
        assert str(error) == f"{failure[0]} {failure[1]}"
        assert delivered == list(range(failure[1]))
    # In-flight jobs and bytes never exceed the window or the budget.
    assert peak <= max(pf.windows) <= MAX_WINDOW_JOBS
    assert peak * chunk <= max(chunk, _BUDGET)
    if max(fetch_s) <= min(compute_s):
        assert set(pf.windows) == {1} and peak <= 1


def test_prefetcher_window_is_fetch_over_compute_within_cap():
    """The window a steady pipeline settles on: ceil(fetch / compute),
    clamped to the job ceiling."""
    for fetch_s, compute_s, expect in (
        (3.0, 1.0, 3), (2.5, 1.0, 3), (1.0, 1.0, 1), (0.0, 1.0, 1),
        (100.0, 1.0, MAX_WINDOW_JOBS), (1.0, 0.0, MAX_WINDOW_JOBS),
    ):
        jobs = iter(range(12))
        with FakeClock() as clock:

            def fetch(job: int) -> bytes:
                clock.sleep(fetch_s)
                return b"x"

            pf = Prefetcher(lambda: next(jobs, None), fetch, clock=clock)
            try:
                for _ in range(6):
                    assert pf.take(timeout=1000.0)[0] is not None
                    settle(clock, compute_s)
                assert pf.window == expect, (fetch_s, compute_s)
            finally:
                pf.close()


# -- the slave on a shaped store ---------------------------------------------

LATENCY = 5.0
CHUNKS = 18


def shaped_dataset(clock: FakeClock):
    units = CHUNKS * 64
    bundle = repro.make_bundle("histogram", units, bins=16)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=units * rb, num_files=2,
        chunk_bytes=(units // CHUNKS) * rb, record_bytes=rb,
    )
    stores = {
        LOCAL_SITE: ObjectStore(),
        CLOUD_SITE: ObjectStore(TrafficShaper(request_latency=LATENCY),
                                clock=clock),
    }
    index = build_dataset(spec, PlacementSpec(0.0), bundle.schema,
                          bundle.block_fn, stores)
    return bundle, index, stores


def run_slave(clock: FakeClock, *, prefetch: bool):
    """One local slave over an all-remote dataset, served by a scripted
    master that hands the index's jobs out in order and never parks."""
    bundle, index, stores = shaped_dataset(clock)
    cache = ChunkCache(1 << 22)
    reader = DatasetReader(index, stores, retrieval_threads=1, cache=cache)
    inbox = Mailbox("master")
    slave = SlaveWorker(
        0, "local-cluster", LOCAL_SITE, bundle.app, reader, inbox,
        prefetch=prefetch, take_timeout=10_000.0, clock=clock,
    )
    pending = list(index.jobs())
    done: list[int] = []
    slave.start()
    while True:
        message = inbox.take(timeout=30.0)
        if isinstance(message, SlaveJobRequest):
            job = pending.pop(0) if pending else None
            message.reply_to.post(SlaveJobReply(job))
        elif isinstance(message, SlaveJobDone):
            done.append(message.job.job_id)
        else:
            assert isinstance(message, SlaveReduction) and not message.partial
            break
    slave.join(timeout=30.0)
    assert done == [job.job_id for job in index.jobs()]
    return (
        clock.monotonic(), stores[CLOUD_SITE].stats.gets, cache.stats.misses,
        bundle.app.finalize(message.robj),
    )


def test_slave_window_hides_latency_on_a_shaped_store():
    with FakeClock() as clock:
        serial_s, serial_gets, serial_misses, serial_value = run_slave(
            clock, prefetch=False
        )
    with FakeClock() as clock:
        piped_s, piped_gets, piped_misses, piped_value = run_slave(
            clock, prefetch=True
        )
        assert prefetch_threads() == []
    assert serial_s == pytest.approx(CHUNKS * LATENCY)
    # One fetch alone (window 1), then full windows: compute takes no
    # virtual time, so the window opens to the job ceiling.
    rounds = 1 + math.ceil((CHUNKS - 1) / MAX_WINDOW_JOBS)
    assert piped_s == pytest.approx(rounds * LATENCY)
    # The WAN is still paid exactly once per chunk.
    assert piped_gets == serial_gets == CHUNKS
    assert piped_misses == serial_misses == CHUNKS
    assert (piped_value == serial_value).all()
