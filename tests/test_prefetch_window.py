"""The self-sizing prefetch window, in virtual time.

No assertion here depends on real time:

* a hypothesis property test of :class:`~repro.core.slave.SlaveCore`
  alone, stepped by a discrete-event loop with no threads — delivery in
  grant order, exactly-once reduction, the window and byte bounds;
* a hypothesis property test of the :class:`~repro.cache.Prefetcher`
  stages on :class:`~repro.clock.FakeClock` — grant numbering, error
  surfacing, and that :meth:`~repro.cache.Prefetcher.close` joins every
  stage;
* a slave-level test on a shaped store: a real
  :class:`~repro.runtime.slave.SlaveWorker` against a scripted master
  finishes *n* remote chunks of latency *L* in ``(1 + ceil((n-1)/W))·L``
  virtual seconds where the sequential slave takes ``n·L``, with the
  same GETs and cache misses. (The full runtime's head and masters wait
  on real queues, not the clock — ROADMAP items 6/7 — so the slave is
  the largest piece that runs in virtual time.)
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cache import ChunkCache, Prefetcher
from repro.clock import FakeClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    DatasetSpec,
    PlacementSpec,
)
from repro.core import slave as slave_module
from repro.core.messages import (
    SlaveJobDone,
    SlaveJobReply,
    SlaveJobRequest,
    SlaveReduction,
)
from repro.core.slave import (
    MAX_WINDOW_JOBS,
    Fetched,
    Reduce,
    Reduced,
    Request,
    SlaveCore,
    prefetch_window,
)
from repro.data.dataset import DatasetReader, build_dataset
from repro.runtime.crew import SlaveCrew
from repro.runtime.slave import SlaveWorker
from repro.runtime.transport import Mailbox
from repro.storage.objectstore import ObjectStore, TrafficShaper

#: The byte budget the property test runs under, so chunks can stay small.
_BUDGET = 4096


def prefetch_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate() if t.name.startswith("prefetch:")
    ]


class Recording(SlaveCore):
    """A prefetching core that remembers every window it read."""

    def __init__(self) -> None:
        super().__init__(3, prefetch=True)
        self.windows: list[int] = []

    @property
    def window(self) -> int:
        window = super().window
        self.windows.append(window)
        return window


def drive(core: SlaveCore, jobs: int, fetch_s, compute_s, chunk: int):
    """Step ``core`` in virtual time over ``jobs`` jobs: each request is
    granted at once, in request order (job ``i`` is grant ``i``), fetch
    ``i`` lands ``fetch_s(i)`` later, and reducing job ``i`` takes
    ``compute_s(i)``. Returns the jobs in the order they were reduced and
    the most jobs granted ahead of the one being reduced."""
    events: list = []
    order = itertools.count()
    granted, reduced, lead = 0, [], 0

    def carry_out(actions, now):
        nonlocal granted, lead
        for action in actions:
            if isinstance(action, Request) and granted <= jobs:
                seq, granted = granted, granted + 1
                if seq == jobs:  # the master's ``None``: no later request
                    landed = (now, Fetched(seq, None))
                else:
                    lead = max(lead, granted - core.delivered)
                    job = SimpleNamespace(job_id=seq)
                    landed = (now + fetch_s(seq), Fetched(seq, job, fetch_s(seq), chunk))
                heapq.heappush(events, (landed[0], next(order), landed[1]))
            elif isinstance(action, Reduce):
                reduced.append(action.job.job_id)
                done = now + compute_s(action.job.job_id)
                heapq.heappush(events, (done, next(order), Reduced(action.job)))

    carry_out(core.start(0.0), 0.0)
    while events:
        now, _, event = heapq.heappop(events)
        carry_out(core.step(event, now), now)
    assert core.finished
    return reduced, lead


_durations = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]), min_size=1,
                      max_size=4)


@settings(deadline=None, max_examples=100)
@given(
    jobs=st.integers(0, 14),
    fetch_s=_durations,
    compute_s=_durations,
    chunk=st.sampled_from([1, _BUDGET // 3, _BUDGET, 2 * _BUDGET]),
)
def test_slave_core_window_properties(jobs, fetch_s, compute_s, chunk):
    """Random fetch/compute durations, job counts and chunk sizes."""
    core = Recording()
    with mock.patch.object(slave_module, "WINDOW_BYTES", _BUDGET):
        reduced, lead = drive(
            core, jobs,
            lambda i: fetch_s[i % len(fetch_s)],
            lambda i: compute_s[i % len(compute_s)],
            chunk,
        )
    # Every job is reduced once, in grant order, however fetches land.
    assert reduced == list(range(jobs))
    # Jobs and bytes held ahead never exceed the window or the budget.
    assert lead <= max(core.windows) <= MAX_WINDOW_JOBS
    assert lead * chunk <= max(chunk, _BUDGET)
    if max(fetch_s) <= min(compute_s):
        assert set(core.windows) == {1} and lead <= 1


def test_prefetch_window_is_fetch_over_compute_within_cap():
    """The window a steady pipeline settles on: ceil(fetch / compute),
    clamped to the job ceiling."""
    for fetch_s, compute_s, expect in (
        (3.0, 1.0, 3), (2.5, 1.0, 3), (1.0, 1.0, 1), (0.0, 1.0, 1),
        (100.0, 1.0, MAX_WINDOW_JOBS), (1.0, 0.0, MAX_WINDOW_JOBS),
    ):
        assert prefetch_window(fetch_s, compute_s, 1) == expect
        core = SlaveCore(0, prefetch=True)
        drive(core, 12, lambda i: fetch_s, lambda i: compute_s, 1)
        assert core.window == expect, (fetch_s, compute_s)


def test_prefetch_window_is_one_until_both_estimates_exist():
    assert prefetch_window(None, 1.0, 1) == prefetch_window(9.0, None, 1) == 1
    assert prefetch_window(9.0, 1.0, slave_module.WINDOW_BYTES // 2) == 2
    assert SlaveCore(0).window == 0  # no prefetch: strictly sequential


class Boom(Exception):
    pass


@settings(deadline=None, max_examples=60)
@given(
    jobs=st.integers(0, 8),
    requests=st.integers(1, 10),
    fetch_s=_durations,
    failure=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["acquire", "fetch"]), st.integers(0, 7)),
    ),
)
def test_prefetcher_numbers_grants_surfaces_errors_and_joins(
    jobs, requests, fetch_s, failure
):
    """Stage threads number acquisitions in grant order, stop at the first
    ``None`` or error, re-raise a stage's error on the owner's ``take``,
    and are all joined by ``close``."""
    if failure is not None and failure[1] >= min(jobs, requests):
        failure = None
    with FakeClock() as clock:
        acquired = itertools.count()

        def acquire():  # the prefetcher runs one of these at a time
            n = next(acquired)
            if failure == ("acquire", n):
                raise Boom(f"acquire {n}")
            return n if n < jobs else None

        def fetch(job: int) -> bytes:
            clock.sleep(fetch_s[job % len(fetch_s)])
            if failure == ("fetch", job):
                raise Boom(f"fetch {job}")
            return bytes(3)

        pf = Prefetcher(acquire, fetch, cluster="c", worker=3, clock=clock)
        taken, error = [], None
        try:
            for _ in range(requests):
                pf.request()
            for _ in range(min(requests, jobs + 1)):
                try:
                    fetched, raw = pf.take(timeout=1000.0)
                except Boom as exc:
                    error = exc
                    break
                assert fetched.job == (fetched.seq if fetched.seq < jobs else None)
                assert raw == (None if fetched.job is None else bytes(3))
                taken.append(fetched.seq)
        finally:
            pf.close()
        assert prefetch_threads() == []

    if failure is None:
        assert error is None
        assert sorted(taken) == list(range(min(requests, jobs + 1)))
    else:
        assert str(error) == f"{failure[0]} {failure[1]}"
        assert failure[1] not in taken
        assert len(set(taken)) == len(taken)


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
    pending = list(index.jobs())
    done: list[int] = []
    with SlaveCrew() as crew:
        slave = SlaveWorker(
            0, "local-cluster", LOCAL_SITE, bundle.app, reader, inbox,
            crew=crew, prefetch=prefetch, take_timeout=10_000.0, clock=clock,
        )
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
