"""Protocol property suite — zero threads, zero sleeping.

The head core (:class:`~repro.core.head.HeadCore`), two master cores
(:class:`~repro.core.master.MasterCore`) and their slaves' cores
(:class:`~repro.core.slave.SlaveCore`) are stepped on the test's own
thread; nothing from :mod:`repro.runtime` is imported. A seeded
scheduler delivers every posted message one channel (sender -> receiver)
at a time, first in first out within a channel, in an order hypothesis
draws. Each fetch and each reduction is a channel of its own, so they
finish in any order too. Slave shells carry their cores' actions out the
way the runtime's do — one acquisition at a time, stopping at the first
``None`` — and fold each job's unit count into a :class:`DictReduction`
under its job id. Cores stream partials every 0, 1 or 3 jobs and keep 0,
1 or 4 jobs requested ahead. Some orders include one slave crash (its
object is lost and its uncommitted jobs re-executed), one retirement and
a spot die on the cloud core (a revoked slave's object is dropped and its
jobs re-executed). Whatever the order, every job is folded exactly once,
no committed job runs again, each slave reduces its jobs in grant order
and never holds more than its window + 1, the head's coverage is full,
and no thread is started.
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
from repro.core.slave import Fetched, HandOver, Reduce, Reduced, Request, SlaveCore
from repro.core.layout import lay_out
from repro.core.sync import SyncCodec, SyncSpec
from repro.scale.revocation import RevocationSpec

from conftest import small_spec

CLUSTERS = {"local-cluster": LOCAL_SITE, "cloud-cluster": CLOUD_SITE}
SLAVES_PER_CLUSTER = 3
#: Small groups, so masters refill many times in one run.
TUNING = MiddlewareTuning(job_group_size=3, pool_low_water=1)


def jobs_of(files=4, chunks=4):
    spec = small_spec(record_bytes=4, files=files, chunks_per_file=chunks)
    return build_index(spec, PlacementSpec(local_fraction=0.5)).jobs()


class WindowCore(SlaveCore):
    """A slave core whose prefetch window is fixed (``0``: sequential)."""

    def __init__(self, slave_id: int, window: int, **kwargs) -> None:
        super().__init__(slave_id, prefetch=window > 0, **kwargs)
        self.fixed = window

    @property
    def window(self) -> int:
        return self.fixed


class Slave:
    """One slave core and what its shell holds."""

    def __init__(self, sid: int, cluster: str, window: int, watermark: int) -> None:
        self.cluster = cluster
        self.core = WindowCore(sid, window, watermark=watermark, master=cluster)
        self.robj = DictReduction("sum")
        self.granted: list = []  # jobs the master handed it, in order
        self.reduced: list = []  # jobs whose reduction started, in order
        self.finished = 0  # reductions done
        self.queued = 0  # requests not yet posted: one acquisition at a time
        self.asking = False
        self.stopped = False  # an acquisition came back ``None``


class Network:
    """Every node of one run, and the messages in flight between them."""

    def __init__(
        self, jobs, topology: str, seed: int, crash, retire, revoke=0.0,
        watermark=0, window=0,
    ) -> None:
        self.rng = random.Random(seed)
        self.channels: dict[tuple, deque] = {}
        scheduler = HeadScheduler(jobs, TUNING)
        for name, site in CLUSTERS.items():
            scheduler.register_cluster(name, site)
        spec = SyncSpec(
            topology=topology, fanout=1, stream=watermark > 0,
            watermark=max(watermark, 1),
        )
        self.codec = SyncCodec(spec)
        layout = lay_out(
            [(site, 1) for site in CLUSTERS.values()], LOCAL_SITE, spec
        )
        self.plan = {slot.name: slot for slot in layout.slots}
        self.head = HeadCore(
            scheduler, list(CLUSTERS), roots=layout.roots,
            codec=self.codec, stream=spec.stream,
        )
        die = RevocationSpec(rate=revoke, seed=seed) if revoke else None
        self.masters = {
            name: MasterCore(
                name, SLAVES_PER_CLUSTER, TUNING, head="head", inbox=name,
                children=self.plan[name].children, codec=self.codec,
                stream=spec.stream,
                revocation=die if name == "cloud-cluster" else None,
            )
            for name in CLUSTERS
        }
        self.window = window
        #: ``(slave id, job ordinal)``: that slave dies as it starts
        #: reducing that job.
        self.crash = crash
        self.dead: set[int] = set()
        #: Jobs a master took as committed by a streamed partial.
        self.committed: set[int] = set()
        self.slaves: dict[int, Slave] = {}
        for index, name in enumerate(CLUSTERS):
            for k in range(SLAVES_PER_CLUSTER):
                sid = index * SLAVES_PER_CLUSTER + k
                slave = self.slaves[sid] = Slave(sid, name, window, spec.slave_watermark)
                self.carry_out(sid, slave.core.start())
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
                if action.kind == "sync_merge" and "worker" in action.fields:
                    self.committed.update(message.job_ids)  # a partial taken
                assert not (
                    action.kind == "job_reexecuted"
                    and action.fields["job_id"] in self.committed
                ), action

    def step_slave(self, sid: int, message) -> None:
        if sid in self.dead:
            return  # a dead slave's messages go nowhere
        slave = self.slaves[sid]
        if not isinstance(message, SlaveJobReply):  # a fetch or a reduction done
            slave.finished += isinstance(message, Reduced)
            self.carry_out(sid, slave.core.step(message))
            return
        seq = len(slave.granted)
        slave.asking = False
        job = message.job
        if job is None:  # end of run, retired or revoked: no more requests
            slave.stopped = True
            self.carry_out(sid, slave.core.step(Fetched(seq, None)))
            return
        slave.granted.append(job)
        assert len(slave.granted) - slave.finished <= self.window + 1
        self.send(("fetch", sid, seq), ("slave", sid), Fetched(seq, job))
        self.ask(sid)

    def ask(self, sid: int) -> None:
        """Post the next queued acquisition once the last one is answered."""
        slave = self.slaves[sid]
        if slave.queued and not slave.asking and not slave.stopped:
            slave.queued -= 1
            slave.asking = True
            me = ("slave", sid)
            self.send(me, slave.cluster, SlaveJobRequest(sid, me))

    def carry_out(self, sid: int, actions) -> None:
        slave = self.slaves[sid]
        me = ("slave", sid)
        for action in actions:
            if isinstance(action, Request):
                slave.queued += 1
                self.ask(sid)
            elif isinstance(action, Reduce):
                job = action.job
                if self.crash == (sid, len(slave.reduced)):
                    self.dead.add(sid)
                    self.send(me, slave.cluster, SlaveFailed(sid))
                    return
                assert job is slave.granted[len(slave.reduced)]  # grant order
                assert job.job_id not in self.committed
                slave.reduced.append(job)
                slave.robj.add(job.job_id, job.num_units)
                self.send(("reduce", sid), me, Reduced(job))
            elif isinstance(action, Post):
                self.send(me, action.to, action.message)
            elif isinstance(action, HandOver):
                reduction = SlaveReduction(sid, slave.robj, action.partial, action.job_ids)
                self.send(me, slave.cluster, reduction)
                if action.partial:
                    slave.robj = DictReduction("sum")
            else:
                assert isinstance(action, Emit), action


@settings(max_examples=200, deadline=None)
@given(
    topology=st.sampled_from(["star", "tree"]),
    seed=st.integers(0, 2**32 - 1),
    crash=st.none() | st.tuples(
        st.integers(0, 2 * SLAVES_PER_CLUSTER - 1), st.integers(0, 4)
    ),
    retire=st.none() | st.sampled_from(list(CLUSTERS)),
    revoke=st.sampled_from([0.0, 0.3, 1.0]),
    watermark=st.sampled_from([0, 1, 3]),
    window=st.sampled_from([0, 1, 4]),
)
def test_every_job_folds_exactly_once_under_any_delivery_order(
    topology, seed, crash, retire, revoke, watermark, window
):
    # The die never takes the cloud's last active slave, but a crash can:
    # that is a genuine "every slave failed", not a protocol fault.
    assume(not (revoke and crash and crash[0] >= SLAVES_PER_CLUSTER))
    threads = threading.active_count()
    jobs = jobs_of()
    network = Network(jobs, topology, seed, crash, retire, revoke, watermark, window)
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
    assert core.sync_partial_merges == 1  # the flush before the revocation only
    pair.survivor_drains()
