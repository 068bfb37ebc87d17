"""Inline delivery: the head and the masters are stepped by the threads
that post to their mailboxes.

A handler-owned :class:`Mailbox` is drained by one posting thread at a
time, in FIFO order, and never re-enters its handler. A pass starts only
its slave threads. A step that raises fails its cluster without raising
in the thread that posted. A pass's nodes are freed by reference
counting alone: the mailbox holds its owner's handler weakly.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.core.head import HeadCore
from repro.core.scheduler import HeadScheduler
from repro.core.sync import SyncCodec, SyncSpec
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import RuntimeProtocolError
from repro.runtime import driver
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.head import HeadNode
from repro.runtime.master import MasterNode
from repro.runtime.transport import Mailbox
from repro.storage.objectstore import ObjectStore

POSTERS = 4
PER_POSTER = 500


class Node:
    """A handler-owned mailbox's owner that checks the drain contract:
    it records every message it handles and whether its handler was ever
    entered while already running. Poster messages every third seq
    re-post to this node; every fifth they go to ``peer``, which posts
    them back."""

    def __init__(self, name: str) -> None:
        self.inbox = Mailbox(name, handler=self.handle)
        self.peer: Node | None = None
        self.handled: list[tuple] = []
        self.overlaps = 0
        self._inside = threading.Lock()

    def handle(self, message: tuple) -> None:
        if not self._inside.acquire(blocking=False):
            self.overlaps += 1  # a second thread, or this one re-entered
            return
        try:
            self.handled.append(message)
            kind, poster, seq = message
            if kind == "post" and seq % 3 == 0:
                self.inbox.post(("self", poster, seq))
            if kind == "post" and seq % 5 == 0:
                self.peer.inbox.post(("peer", poster, seq))
            if kind == "peer":
                self.peer.inbox.post(("back", poster, seq))
        finally:
            self._inside.release()


def test_drain_steps_each_message_once_in_order_and_never_twice_at_once():
    a, b = Node("a"), Node("b")
    a.peer, b.peer = b, a
    start = threading.Barrier(POSTERS)

    def poster(index: int) -> None:
        rng = random.Random(4900 + index)
        start.wait()
        for seq in range(PER_POSTER):
            a.inbox.post(("post", index, seq))
            if rng.random() < 0.3:
                threading.Event().wait(0)  # yield at a seeded point

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=poster, args=(i,)) for i in range(POSTERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)

    assert a.overlaps == 0 and b.overlaps == 0
    seqs = range(PER_POSTER)
    expected_a = (
        [("post", p, s) for p in range(POSTERS) for s in seqs]
        + [("self", p, s) for p in range(POSTERS) for s in seqs if s % 3 == 0]
        + [("back", p, s) for p in range(POSTERS) for s in seqs if s % 5 == 0]
    )
    expected_b = [("peer", p, s) for p in range(POSTERS) for s in seqs if s % 5 == 0]
    # Each message handled exactly once, and nothing left pending.
    assert sorted(a.handled) == sorted(expected_a)
    assert sorted(b.handled) == sorted(expected_b)
    for node in (a, b):
        assert len(node.inbox) == 0
        assert node.inbox.sent == node.inbox.received == len(node.handled)
    # FIFO: each poster's messages are handled in the order it posted them.
    for p in range(POSTERS):
        order = [s for kind, q, s in a.handled if kind == "post" and q == p]
        assert order == list(seqs)


def test_a_mailbox_whose_owner_is_gone_drops_what_is_posted():
    node = Node("gone")
    inbox = node.inbox
    del node
    inbox.post(("post", 0, 1))
    assert len(inbox) == 0 and inbox.sent == inbox.received == 1


# -- a pass ---------------------------------------------------------------------


def materialize(total_units: int = 2048):
    bundle = make_bundle("histogram", total_units, bins=16)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb, num_files=4,
        chunk_bytes=(total_units // 16) * rb, record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def one_plus_one(bundle, index, stores) -> CloudBurstingRuntime:
    # One retrieval thread: remote chunks are read on the slave's own
    # thread, so the census counts only what the runtime itself starts.
    return CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=1, cloud_cores=1),
        tuning=MiddlewareTuning(retrieval_threads=1),
    )


def test_a_pass_starts_only_its_slave_threads(monkeypatch):
    bundle, index, stores = materialize()
    started: list[str] = []
    real_start = threading.Thread.start

    def start(thread: threading.Thread) -> None:
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = set(threading.enumerate())
    result = one_plus_one(bundle, index, stores).run()
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    np.testing.assert_array_equal(result.value, oracle)
    assert sorted(started) == ["slave:cloud-cluster:1", "slave:local-cluster:0"]
    # Every thread alive now was alive before the pass (a count could be
    # thrown off by an earlier test's thread ending meanwhile).
    assert set(threading.enumerate()) <= before


def test_a_pass_frees_its_nodes_without_the_cycle_collector(monkeypatch):
    bundle, index, stores = materialize()
    nodes: list[weakref.ref] = []

    def recorded(cls):
        def build(*args, **kwargs):
            node = cls(*args, **kwargs)
            nodes.append(weakref.ref(node))
            return node
        return build

    monkeypatch.setattr(driver, "HeadNode", recorded(HeadNode))
    monkeypatch.setattr(driver, "MasterNode", recorded(MasterNode))
    enabled = gc.isenabled()
    gc.disable()
    try:
        runtime = one_plus_one(bundle, index, stores)
        result = runtime.run()
        del runtime, result
        assert len(nodes) == 3  # the head and two masters
        assert [ref() for ref in nodes] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


# -- failures ---------------------------------------------------------------------


def test_a_failing_step_fails_its_cluster_not_the_posting_thread():
    """A master whose step raises records the error and posts it to the
    head: the thread that posted gets nothing, the head's join names
    the cluster, and later posts to the failed master are void."""
    scheduler = HeadScheduler([], MiddlewareTuning())
    scheduler.register_cluster("local-cluster", LOCAL_SITE)
    codec = SyncCodec(SyncSpec())
    head = HeadNode(
        HeadCore(scheduler, ["local-cluster"], roots=("local-cluster",), codec=codec)
    )
    master = MasterNode(
        "local-cluster", LOCAL_SITE, head.inbox, num_slaves=1,
        parent_inbox=head.inbox, codec=codec,
    )
    raised: list[BaseException] = []

    def post(message) -> None:
        try:
            master.inbox.post(message)
        except BaseException as exc:  # must never happen
            raised.append(exc)

    for message in ("garbage", "more garbage"):
        thread = threading.Thread(target=post, args=(message,))
        thread.start()
        thread.join(10.0)
    assert raised == []
    failed = "cluster 'local-cluster' failed"
    with pytest.raises(RuntimeProtocolError, match=failed) as info:
        head.join(timeout=5.0)
    assert "received str" in str(info.value.__cause__)
    assert master.inbox.sent == master.inbox.received == 2
    assert head.inbox.sent == 1  # the second post found the cluster failed
