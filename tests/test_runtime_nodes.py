"""Protocol-level tests for head and master nodes (driven manually, no
full runtime)."""

from __future__ import annotations

import pytest

from repro.config import LOCAL_SITE, MiddlewareTuning, PlacementSpec
from repro.core.head import HeadCore
from repro.core.index import build_index
from repro.core.messages import (
    JobRequest,
    ReductionUpload,
    SlaveJobRequest,
    SlaveJobDone,
    SlaveReduction,
)
from repro.core.reduction import ScalarReduction
from repro.core.scheduler import HeadScheduler
from repro.core.sync import SyncCodec, SyncSpec
from repro.errors import RuntimeProtocolError, RuntimeTimeoutError
from repro.runtime.head import HeadNode
from repro.runtime.master import MasterNode
from repro.runtime.transport import Mailbox

from conftest import small_spec


#: One default-spec codec: dense uploads carry no channel state.
CODEC = SyncCodec(SyncSpec())


def make_head(files=2, chunks=2, clusters=("local-cluster",)):
    spec = small_spec(record_bytes=4, files=files, chunks_per_file=chunks)
    index = build_index(spec, PlacementSpec(local_fraction=1.0))
    scheduler = HeadScheduler(index.jobs(), MiddlewareTuning())
    for name in clusters:
        scheduler.register_cluster(name, LOCAL_SITE)
    return HeadNode(HeadCore(scheduler, clusters, roots=clusters, codec=CODEC))


def upload(cluster, robj, origins=None):
    """``robj`` as ``cluster``'s master ships it."""
    blob = CODEC.encode(cluster, robj).blob
    return ReductionUpload(cluster=cluster, blob=blob, origins=origins or (cluster,))


def test_head_serves_requests_and_merges():
    head = make_head(files=2, chunks=4)
    reply = Mailbox("reply")
    head.inbox.post(JobRequest(cluster="local-cluster", reply_to=reply, max_jobs=4))
    group = reply.take(timeout=2.0).group
    assert group is not None and len(group) == 4
    head.inbox.post(upload("local-cluster", ScalarReduction("sum", 5.0)))
    result = head.join(timeout=5.0)
    assert result.value() == 5.0
    assert head.core.receipts.origins == ["local-cluster"]


def test_head_rejects_duplicate_upload():
    head = make_head(clusters=("a", "b"))
    head.inbox.post(upload("a", ScalarReduction("sum", 1.0)))
    head.inbox.post(upload("a", ScalarReduction("sum", 1.0)))
    with pytest.raises(RuntimeProtocolError, match="twice"):
        head.join(timeout=5.0)


def test_head_rejects_unknown_cluster_and_message():
    head = make_head()
    head.inbox.post(ReductionUpload(cluster="stranger", blob=b"", origins=()))
    with pytest.raises(RuntimeProtocolError, match="unknown cluster"):
        head.join(timeout=5.0)

    head2 = make_head()
    head2.inbox.post("garbage")
    with pytest.raises(RuntimeProtocolError, match="unexpected message"):
        head2.join(timeout=5.0)


def test_head_requires_clusters_and_names_its_deadline():
    with pytest.raises(RuntimeProtocolError):
        make_head(clusters=())
    head = make_head()
    with pytest.raises(RuntimeTimeoutError, match="head did not finish"):
        head.join(timeout=0.01)


def test_master_end_to_end_protocol():
    """Drive a master with two fake slaves against a real head."""
    head = make_head(files=2, chunks=2, clusters=("local-cluster",))
    master = MasterNode(
        "local-cluster", LOCAL_SITE, head.inbox, num_slaves=2,
        parent_inbox=head.inbox, codec=CODEC,
    )

    replies = [Mailbox("s0"), Mailbox("s1")]
    done_jobs = []
    robjs = [ScalarReduction("sum", 0.0), ScalarReduction("sum", 0.0)]
    active = [0, 1]
    while active:
        for sid in list(active):
            master.inbox.post(SlaveJobRequest(slave_id=sid, reply_to=replies[sid]))
            job = replies[sid].take(timeout=2.0).job
            if job is None:
                master.inbox.post(SlaveReduction(slave_id=sid, robj=robjs[sid]))
                active.remove(sid)
                continue
            done_jobs.append(job.job_id)
            robjs[sid].add(1.0)
            master.inbox.post(SlaveJobDone(slave_id=sid, job=job))
    assert master.core.finished
    result = head.join(timeout=5.0)
    assert sorted(done_jobs) == [0, 1, 2, 3]
    assert result.value() == 4.0  # one unit per job


def test_master_validation():
    head = make_head()
    sync = dict(parent_inbox=head.inbox, codec=CODEC)
    with pytest.raises(RuntimeProtocolError):
        MasterNode("c", LOCAL_SITE, head.inbox, num_slaves=0, **sync)


def test_tree_master_rejects_a_second_upload_from_one_child():
    """A tree master takes one upload per child, as the head takes one
    per root: a repeat names its sender instead of being merged twice."""
    head_inbox = Mailbox("head")
    master = MasterNode(
        "a", LOCAL_SITE, head_inbox, num_slaves=1,
        parent_inbox=head_inbox, codec=CODEC, children=("b", "c"),
    )
    assert master.core.receipts.senders == ("b", "c")
    master.step(upload("b", ScalarReduction("sum", 1.0)))  # on this thread
    with pytest.raises(RuntimeProtocolError, match="'b' uploaded twice"):
        master.step(upload("b", ScalarReduction("sum", 1.0)))
