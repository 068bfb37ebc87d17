"""Micro-benchmarks of the middleware's hot primitives.

Unlike the figure/table benches (which run the simulator once and assert
shapes), these measure real wall time of the core building blocks across
many rounds, so regressions in the data path show up directly:

* reduction-object merge throughput (the global-reduction inner loop);
* top-k offer (knn's per-group local reduction);
* head-scheduler request/ack throughput (the control plane);
* DES engine event throughput (the simulator's speed limit);
* fair-share link flow churn (the simulator's hottest model);
* record decode over a zero-copy view (the read path's hot primitive).

The slave substrates are compared at real size by
``bench_compute_path.py`` and ``benchmarks/e2e``; a kilobyte-sized run
here measured fork cost, not the substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MiddlewareTuning, PlacementSpec
from repro.core.index import build_index
from repro.core.reduction import ArrayReduction, TopKReduction
from repro.core.scheduler import HeadScheduler
from repro.config import DatasetSpec, LOCAL_SITE, CLOUD_SITE
from repro.sim.engine import Environment
from repro.sim.linkmodel import FairShareLink


@pytest.mark.benchmark(group="micro")
def test_micro_array_merge(benchmark):
    """Merging two 8 MB array reduction objects (pagerank-style)."""
    a = ArrayReduction((1024 * 1024,), data=np.random.default_rng(0).random(1024 * 1024))
    b = ArrayReduction((1024 * 1024,), data=np.random.default_rng(1).random(1024 * 1024))

    benchmark(lambda: a.merge(b))
    assert a.data.shape == (1024 * 1024,)


@pytest.mark.benchmark(group="micro")
def test_micro_topk_offer(benchmark):
    """Offering a 4096-candidate batch into a k=1000 top-k object."""
    rng = np.random.default_rng(7)
    robj = TopKReduction(1000)
    scores = rng.random(4096)
    ids = rng.integers(0, 10**9, size=4096)

    benchmark(lambda: robj.offer(scores, ids))
    assert len(robj.scores) <= 1000


@pytest.mark.benchmark(group="micro")
def test_micro_scheduler_throughput(benchmark):
    """A full 960-job assignment conversation (requests + acks)."""
    spec = DatasetSpec.paper(record_bytes=4)

    def drive():
        index = build_index(spec, PlacementSpec(0.5))
        sched = HeadScheduler(index.jobs(), MiddlewareTuning())
        sched.register_cluster("a", LOCAL_SITE)
        sched.register_cluster("b", CLOUD_SITE)
        served = 0
        turn = 0
        groups = []
        while True:
            cluster = "a" if turn % 2 == 0 else "b"
            turn += 1
            group = sched.request_jobs(cluster)
            if group is None:
                break
            groups.append(group.group_id)
            served += len(group)
        for gid in groups:
            sched.complete_group(gid)
        return served

    served = benchmark(drive)
    assert served == 960


@pytest.mark.benchmark(group="micro")
def test_micro_des_event_throughput(benchmark):
    """10k timeout events through the DES kernel."""

    def drive():
        env = Environment()

        def ticker():
            for _ in range(100):
                yield env.timeout(1.0)

        for _ in range(100):
            env.process(ticker())
        env.run()
        return env.events_processed

    events = benchmark(drive)
    assert events >= 10_000


@pytest.mark.benchmark(group="micro")
def test_micro_link_flow_churn(benchmark):
    """400 staggered flows through one fair-share link."""

    def drive():
        env = Environment()
        link = FairShareLink(env, bandwidth=1000.0, per_flow_cap=50.0,
                             group_cap=200.0)

        def sender(i):
            yield env.timeout(i * 0.01)
            yield link.transfer(25.0, group=i % 7)

        for i in range(400):
            env.process(sender(i))
        env.run()
        return link.stats.flows_completed

    done = benchmark(drive)
    assert done == 400


@pytest.mark.benchmark(group="micro")
def test_micro_decode_view(benchmark):
    """Decoding a 1 MB chunk from a read-only memoryview (zero-copy)."""
    from repro.data.chunks import readonly_view
    from repro.data.records import VALUE_SCHEMA

    blob = readonly_view(np.random.default_rng(3).random(131_072).tobytes())

    decoded = benchmark(lambda: VALUE_SCHEMA.decode(blob))
    assert decoded.shape == (131_072, 1)
    assert not decoded.flags.writeable
