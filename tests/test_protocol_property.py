"""Protocol property suite — zero threads, zero sleeping.

The head core (:class:`~repro.core.head.HeadCore`) and two master cores
(:class:`~repro.core.master.MasterCore`) are stepped on the test's own
thread; nothing from :mod:`repro.runtime` is imported. A seeded
scheduler delivers every posted message one channel (sender -> receiver)
at a time, first in first out within a channel, in an order hypothesis
draws. Slave stubs fold each job's unit count into a
:class:`DictReduction` under its job id. Some orders include one slave
crash (its object is lost and its jobs re-executed) and one retirement.
Whatever the order, every job is folded exactly once, the head's
coverage is full, and no thread is started.
"""

from __future__ import annotations

import random
import threading
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLOUD_SITE, LOCAL_SITE, MiddlewareTuning, PlacementSpec
from repro.core.head import HeadCore, Merge
from repro.core.index import build_index
from repro.core.job import JobGroup
from repro.core.master import Emit, MasterCore, Post, Ship
from repro.core.messages import (
    JobReply,
    ReductionUpload,
    SlaveDetach,
    SlaveFailed,
    SlaveJobDone,
    SlaveJobReply,
    SlaveJobRequest,
    SlaveReduction,
)
from repro.core.reduction import DictReduction, merge_all
from repro.core.scheduler import HeadScheduler
from repro.core.sync import SyncCodec, SyncSpec, build_sync_plan, plan_roots

from conftest import small_spec

CLUSTERS = {"local-cluster": LOCAL_SITE, "cloud-cluster": CLOUD_SITE}
SLAVES_PER_CLUSTER = 3
#: Small groups, so masters refill many times in one run.
TUNING = MiddlewareTuning(job_group_size=3, pool_low_water=1)


def jobs_of(files=4, chunks=4):
    spec = small_spec(record_bytes=4, files=files, chunks_per_file=chunks)
    return build_index(spec, PlacementSpec(local_fraction=0.5)).jobs()


class Network:
    """Every node of one run, and the messages in flight between them."""

    def __init__(self, jobs, topology: str, seed: int, crash, retire) -> None:
        self.rng = random.Random(seed)
        self.channels: dict[tuple, deque] = {}
        scheduler = HeadScheduler(jobs, TUNING)
        for name, site in CLUSTERS.items():
            scheduler.register_cluster(name, site)
        self.codec = SyncCodec(SyncSpec(topology=topology, fanout=1))
        self.plan = build_sync_plan(list(CLUSTERS), topology, fanout=1)
        self.head = HeadCore(
            scheduler, list(CLUSTERS), roots=tuple(plan_roots(self.plan)),
            codec=self.codec,
        )
        self.masters = {
            name: MasterCore(
                name, SLAVES_PER_CLUSTER, TUNING, head="head", inbox=name,
                children=self.plan[name].children, codec=self.codec,
            )
            for name in CLUSTERS
        }
        #: slave id -> (cluster, its reduction object, jobs it was handed)
        self.slaves: dict[int, list] = {}
        for index, name in enumerate(CLUSTERS):
            for k in range(SLAVES_PER_CLUSTER):
                sid = index * SLAVES_PER_CLUSTER + k
                self.slaves[sid] = [name, DictReduction("sum"), 0]
                self.send(("slave", sid), name, SlaveJobRequest(sid, ("slave", sid)))
        #: ``(slave id, job ordinal)``: that slave dies holding that job.
        self.crash = crash
        self.dead: set[int] = set()
        if retire is not None:
            self.send("driver", retire, SlaveDetach(count=1))

    def send(self, src, dst, message) -> None:
        self.channels.setdefault((src, dst), deque()).append(message)

    def run(self):
        while not self.head.finished:
            live = [key for key, queue in self.channels.items() if queue]
            src, dst = live[self.rng.randrange(len(live))]
            message = self.channels[src, dst].popleft()
            if dst == "head":
                self.step_head(message)
            elif dst in self.masters:
                self.step_master(dst, message)
            else:
                self.step_slave(dst[1], message)
        return self.head

    def step_head(self, message) -> None:
        for action in self.head.step(message):
            if isinstance(action, Post):
                self.send("head", action.to, action.message)
            elif isinstance(action, Merge):
                for part in action.parts:
                    action.into.merge(part)
            else:
                assert isinstance(action, Emit), action

    def step_master(self, name: str, message) -> None:
        for action in self.masters[name].step(message):
            if isinstance(action, Post):  # a woken request comes back to ``name``
                self.send(name, action.to, action.message)
            elif isinstance(action, Ship):
                combined = merge_all(action.parts)
                parent = self.plan[name].parent or "head"
                blob = self.codec.encode(name, combined).blob
                self.send(name, parent, ReductionUpload(name, blob, action.origins))
            else:
                assert isinstance(action, Emit), action

    def step_slave(self, sid: int, reply: SlaveJobReply) -> None:
        if sid in self.dead:
            return  # a dead slave's reply goes nowhere
        cluster, robj, handed = self.slaves[sid]
        me = ("slave", sid)
        job = reply.job
        if job is None:
            self.send(me, cluster, SlaveReduction(sid, robj))
            return
        self.slaves[sid][2] = handed + 1
        if self.crash == (sid, handed):
            self.dead.add(sid)
            self.send(me, cluster, SlaveFailed(sid))
            return
        robj.add(job.job_id, job.num_units)
        self.send(me, cluster, SlaveJobDone(sid, job))
        self.send(me, cluster, SlaveJobRequest(sid, me))


@settings(max_examples=200, deadline=None)
@given(
    topology=st.sampled_from(["star", "tree"]),
    seed=st.integers(0, 2**32 - 1),
    crash=st.none() | st.tuples(
        st.integers(0, 2 * SLAVES_PER_CLUSTER - 1), st.integers(0, 4)
    ),
    retire=st.none() | st.sampled_from(list(CLUSTERS)),
)
def test_every_job_folds_exactly_once_under_any_delivery_order(
    topology, seed, crash, retire
):
    threads = threading.active_count()
    jobs = jobs_of()
    head = Network(jobs, topology, seed, crash, retire).run()
    serial = {job.job_id: job.num_units for job in jobs}
    assert head.merged.value() == serial
    assert set(head.receipts.origins) == set(CLUSTERS)
    assert head.scheduler.exhausted
    assert threading.active_count() == threads


def test_a_crash_after_a_streamed_partial_requeues_only_unflushed_work():
    """Jobs a slave flushed in a partial stay committed when it dies; only
    its unflushed and in-flight jobs run again, on the other slave."""
    jobs = jobs_of(files=1, chunks=8)
    core = MasterCore(
        "c", 2, MiddlewareTuning(job_group_size=8), head="head", inbox="c",
        stream=True,
    )
    core.step(JobReply(JobGroup(group_id=0, cluster="c", jobs=tuple(jobs))))
    core.step(JobReply(None))  # the head has nothing more

    def take(sid):
        actions = core.step(SlaveJobRequest(sid, reply_to=sid))
        (reply,) = [a.message for a in actions if isinstance(a, Post)]
        return reply.job

    crew = {0: DictReduction("sum"), 1: DictReduction("sum")}
    flushed = [take(0), take(0), take(0)]
    for job in flushed:
        crew[0].add(job.job_id, job.num_units)
        core.step(SlaveJobDone(0, job))
    core.step(
        SlaveReduction(
            0, crew[0], partial=True, job_ids=tuple(j.job_id for j in flushed)
        )
    )
    unflushed = take(0)
    core.step(SlaveJobDone(0, unflushed))  # folded into an object now lost
    in_flight = take(0)
    actions = core.step(SlaveFailed(0))

    reexecuted = [
        a.fields["job_id"] for a in actions
        if isinstance(a, Emit) and a.kind == "job_reexecuted"
    ]
    assert reexecuted == [unflushed.job_id, in_flight.job_id]
    assert core.jobs_reexecuted == 2
    # The survivor drains the pool: it never sees a flushed job.
    seen = []
    while (job := take(1)) is not None:
        seen.append(job.job_id)
        crew[1].add(job.job_id, job.num_units)
        core.step(SlaveJobDone(1, job))
    assert not {j.job_id for j in flushed} & set(seen)
    assert {unflushed.job_id, in_flight.job_id} <= set(seen)

    (ship,) = [a for a in core.step(SlaveReduction(1, crew[1])) if isinstance(a, Ship)]
    assert merge_all(ship.parts).value() == {j.job_id: j.num_units for j in jobs}
