"""Protocol property suite — zero threads, zero sleeping.

The head core (:class:`~repro.core.head.HeadCore`) and two master cores
(:class:`~repro.core.master.MasterCore`) are stepped on the test's own
thread; nothing from :mod:`repro.runtime` is imported. A seeded
scheduler delivers every posted message one channel (sender -> receiver)
at a time, first in first out within a channel, in an order hypothesis
draws. Slave stubs fold each job's unit count into a
:class:`DictReduction` under its job id. Some orders include one slave
crash (its object is lost and its jobs re-executed), one retirement and
a spot die on the cloud core (a revoked slave's object is dropped and
its jobs re-executed). Whatever the order, every job is folded exactly
once, the head's coverage is full, and no thread is started.
"""

from __future__ import annotations

import random
import threading
from collections import deque

from hypothesis import assume, given, settings
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
from repro.scale.revocation import RevocationSpec

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

    def __init__(
        self, jobs, topology: str, seed: int, crash, retire, revoke=0.0
    ) -> None:
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
        die = RevocationSpec(rate=revoke, seed=seed) if revoke else None
        self.masters = {
            name: MasterCore(
                name, SLAVES_PER_CLUSTER, TUNING, head="head", inbox=name,
                children=self.plan[name].children, codec=self.codec,
                revocation=die if name == "cloud-cluster" else None,
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
        if job is None:  # end of run, retired or revoked: hand the object in
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
    revoke=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_every_job_folds_exactly_once_under_any_delivery_order(
    topology, seed, crash, retire, revoke
):
    # The die never takes the cloud's last active slave, but a crash can:
    # that is a genuine "every slave failed", not a protocol fault.
    assume(not (revoke and crash and crash[0] >= SLAVES_PER_CLUSTER))
    threads = threading.active_count()
    jobs = jobs_of()
    network = Network(jobs, topology, seed, crash, retire, revoke)
    head = network.run()  # a core that raised "every slave failed" fails here
    serial = {job.job_id: job.num_units for job in jobs}
    assert head.merged.value() == serial
    assert set(head.receipts.origins) == set(CLUSTERS)
    assert head.scheduler.exhausted
    assert network.masters["cloud-cluster"].active >= 1  # the keep-one floor
    assert threading.active_count() == threads


class StreamingPair:
    """One streaming master core of two slaves holding one group of eight
    jobs, stepped by hand. Slave 0 flushes three jobs in a partial, then
    is handed an unflushed job it finishes and an in-flight one."""

    def __init__(self, revocation=None) -> None:
        self.jobs = jobs_of(files=1, chunks=8)
        self.core = core = MasterCore(
            "c", 2, MiddlewareTuning(job_group_size=8), head="head", inbox="c",
            stream=True, revocation=revocation,
        )
        core.step(JobReply(JobGroup(group_id=0, cluster="c", jobs=tuple(self.jobs))))
        core.step(JobReply(None))  # the head has nothing more
        flushed = DictReduction("sum")
        self.flushed = [self.take(0), self.take(0), self.take(0)]
        for job in self.flushed:
            flushed.add(job.job_id, job.num_units)
            core.step(SlaveJobDone(0, job))
        core.step(
            SlaveReduction(
                0, flushed, partial=True,
                job_ids=tuple(j.job_id for j in self.flushed),
            )
        )
        self.unflushed = self.take(0)
        core.step(SlaveJobDone(0, self.unflushed))  # folded into a lost object
        self.in_flight = self.take(0)

    def take(self, sid):
        actions = self.core.step(SlaveJobRequest(sid, reply_to=sid))
        (reply,) = [a.message for a in actions if isinstance(a, Post)]
        return reply.job

    def survivor_drains(self) -> None:
        """Slave 1 drains the pool: it runs exactly the two lost jobs, never
        a flushed one, and the combined object covers every job once."""
        robj = DictReduction("sum")
        seen = []
        while (job := self.take(1)) is not None:
            seen.append(job.job_id)
            robj.add(job.job_id, job.num_units)
            self.core.step(SlaveJobDone(1, job))
        assert not {j.job_id for j in self.flushed} & set(seen)
        assert {self.unflushed.job_id, self.in_flight.job_id} <= set(seen)
        actions = self.core.step(SlaveReduction(1, robj))
        (ship,) = [a for a in actions if isinstance(a, Ship)]
        serial = {j.job_id: j.num_units for j in self.jobs}
        assert merge_all(ship.parts).value() == serial


def reexecuted(actions) -> list[int]:
    return [
        a.fields["job_id"] for a in actions
        if isinstance(a, Emit) and a.kind == "job_reexecuted"
    ]


def test_a_crash_after_a_streamed_partial_requeues_only_unflushed_work():
    """Jobs a slave flushed in a partial stay committed when it dies; only
    its unflushed and in-flight jobs run again, on the other slave."""
    pair = StreamingPair()
    actions = pair.core.step(SlaveFailed(0))
    assert reexecuted(actions) == [pair.unflushed.job_id, pair.in_flight.job_id]
    assert pair.core.jobs_reexecuted == 2
    pair.survivor_drains()


def test_a_revoked_slaves_later_partial_is_dropped():
    """The die takes slave 0 at its sixth hand-out: its flushed jobs stay
    committed, its unflushed and in-flight jobs run again, and what it
    sends afterwards — the in-flight job's report, a partial carrying both
    lost jobs, its final object — is dropped."""
    die = next(
        spec for spec in (RevocationSpec(rate=0.5, seed=s) for s in range(1000))
        if [spec.draw(0, n) for n in range(6)] == [False] * 5 + [True]
    )
    pair = StreamingPair(revocation=die)
    core = pair.core
    actions = core.step(SlaveJobRequest(0, reply_to=0))
    assert [a.message for a in actions if isinstance(a, Post)] == [
        SlaveJobReply(None)
    ]
    assert reexecuted(actions) == [pair.unflushed.job_id, pair.in_flight.job_id]
    assert (core.slaves_revoked, core.jobs_reexecuted) == (1, 2)

    late = DictReduction("sum")
    for job in (pair.unflushed, pair.in_flight):
        late.add(job.job_id, job.num_units)
    lost = (pair.unflushed.job_id, pair.in_flight.job_id)
    assert core.step(SlaveJobDone(0, pair.in_flight)) == []
    assert core.step(SlaveReduction(0, late, partial=True, job_ids=lost)) == []
    assert core.step(SlaveReduction(0, late)) == []
    assert core.sync_partials == 1  # the flush before the revocation only
    pair.survivor_drains()
