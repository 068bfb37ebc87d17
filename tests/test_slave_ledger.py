"""The slave's half of the paper's split, counted once, by the slave core.

Both engines' shells report durations on the events they step — the
seconds a :class:`~repro.core.slave.Reduced` took, the seconds the owner
was blocked for a :class:`~repro.core.slave.Fetched` — and
:class:`~repro.core.slave.SlaveCore` sums them; one builder,
:func:`~repro.obs.record.cluster_reports`, turns the cores' ledgers into
each cluster's bar.

* scripted events, sequential and prefetching: the core sums exactly the
  seconds it was given, in the order it was given them, and never the
  prefetch window's fetch estimate;
* a traced prefetching runtime run over a shaped WAN store: the fetches
  overlap, so the blocked wait the clusters report is well below the
  fetch intervals the trace records.
"""

from __future__ import annotations

import random
from collections import deque
from types import SimpleNamespace

import pytest

import repro
from repro.config import ComputeSpec, DatasetSpec, PlacementSpec
from repro.core.slave import Fetched, Reduce, Reduced, Request, SlaveCore
from repro.data.dataset import build_dataset
from repro.obs import EventLog
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore, TrafficShaper


def drive(core: SlaveCore, jobs: int, rng: random.Random) -> tuple[float, float]:
    """Carry ``core``'s actions out as a shell would: each ``Reduce`` is
    answered at once, and requests are answered in a random completion
    order (grant ``jobs`` is the master's ``None``; later grants never
    answer). Returns the processing and retrieval seconds handed to the
    core, each summed in the order it was stepped."""
    processing = retrieval = 0.0
    pending: list[int] = []
    granted = 0
    todo = deque(core.start())
    while todo or not core.finished:
        if todo:
            action = todo.popleft()
            if isinstance(action, Request):
                pending.append(granted)
                granted += 1
                continue
            if not isinstance(action, Reduce):
                continue  # Emit, Post, HandOver: no event comes back
            seconds = rng.uniform(0.0, 1.0)
            processing += seconds
            event = Reduced(action.job, seconds)
        else:
            seq = pending.pop(rng.randrange(len(pending)))
            if seq > jobs:
                continue  # asked after the ``None``: never answered
            job = SimpleNamespace(job_id=seq) if seq < jobs else None
            waited = rng.uniform(0.0, 1.0)
            retrieval += waited
            # ``seconds`` is the window's fetch estimate, not the ledger's.
            event = Fetched(seq, job, rng.uniform(1.0, 9.0), 64, waited=waited)
        todo.extendleft(reversed(core.step(event)))
    return processing, retrieval


@pytest.mark.parametrize("prefetch", [False, True], ids=["sequential", "prefetch"])
@pytest.mark.parametrize("seed", range(5))
def test_core_sums_exactly_the_seconds_it_was_given(prefetch, seed):
    core = SlaveCore(0, prefetch=prefetch, watermark=3)
    jobs = 12
    processing, retrieval = drive(core, jobs, random.Random(seed))
    assert core.reduced == jobs
    assert (core.processing, core.retrieval) == (processing, retrieval)


def test_a_fresh_core_has_an_empty_ledger():
    core = SlaveCore(0)
    assert (core.processing, core.retrieval, core.reduced) == (0.0, 0.0, 0)


# -- the runtime's prefetching slaves on a shaped WAN --------------------------

UNITS, CHUNKS = 4096, 32
LATENCY = 0.02  # per GET: fetch is far slower than a chunk's compute


def test_prefetching_run_reports_the_blocked_wait_not_the_fetches():
    bundle = repro.make_bundle("kmeans", UNITS)
    rb = bundle.schema.record_bytes
    shaped = ObjectStore(TrafficShaper(request_latency=LATENCY))
    stores = {"local": ObjectStore(), "cloud": shaped}
    index = build_dataset(
        DatasetSpec(total_bytes=UNITS * rb, num_files=2,
                    chunk_bytes=UNITS // CHUNKS * rb, record_bytes=rb),
        PlacementSpec(0.0), bundle.schema, bundle.block_fn, stores,
    )
    log = EventLog()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=1, cloud_cores=1),
        prefetch=True, trace=log, join_timeout=60.0,
    )
    telemetry = runtime.run().telemetry
    telemetry.validate()
    assert telemetry.prefetches > 0 and telemetry.total_jobs == CHUNKS

    started = {
        (e.worker, e.job_id): e.time for e in log.of_kind("fetch_start")
    }
    fetching: dict[str, float] = {}
    for end in log.of_kind("fetch_end"):
        span = end.time - started[(end.worker, end.job_id)]
        fetching[end.cluster] = fetching.get(end.cluster, 0.0) + span
    for cluster in telemetry.clusters.values():
        assert cluster.slaves == 1
        mean_fetching = fetching[cluster.name] / cluster.slaves
        assert mean_fetching >= cluster.jobs_processed * LATENCY
        # Up to eight fetches ride the wire at once, and the owner waits
        # only for the one it needs next.
        assert cluster.mean_retrieval < 0.5 * mean_fetching
