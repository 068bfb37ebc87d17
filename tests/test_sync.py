"""Global-reduction sync: plan shapes, spec validation, codec accounting,
head timing via an injectable clock, streaming fault tolerance, and the
topology story (tree beats star on a shared head-ingress trunk).
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps import make_bundle
from repro.apps.base import get_profile
from repro.bench.configs import env_config
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core import wire
from repro.core.api import run_serial
from repro.core.head import HeadCore
from repro.core.index import build_index
from repro.core.messages import ReductionUpload
from repro.core.reduction import (
    ArrayReduction,
    DictReduction,
    ScalarReduction,
)
from repro.core.scheduler import HeadScheduler
from repro.core.sync import (
    SyncCodec,
    SyncSpec,
    build_sync_plan,
    plan_roots,
)
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import ConfigurationError, RuntimeProtocolError
from repro.network.topology import Link
from repro.network.transfer import sync_aggregation_time, transfer_time
from repro.obs.events import EventLog
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.head import HeadNode
from repro.sim.multisite import (
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)
from repro.sim.simulation import CloudBurstSimulation
from repro.sim.storagemodel import StorePath
from repro.storage.objectstore import ObjectStore
from repro.units import MB

from conftest import CrashOnce, bench_module, hold_others, small_spec


def layout(topology: str) -> dict:
    """Plan keywords for a topology as these tests name it: ``ring`` is
    the fanout-1 tree."""
    if topology == "ring":
        return {"topology": "tree", "fanout": 1}
    return {"topology": topology}


# -- plan shapes -------------------------------------------------------------


def test_star_plan_everyone_uploads_to_head():
    plan = build_sync_plan(["a", "b", "c", "d"], "star")
    assert plan_roots(plan) == ["a", "b", "c", "d"]
    assert all(node.children == () for node in plan.values())


def test_tree_plan_uses_heap_indexing():
    names = [f"c{i}" for i in range(7)]
    plan = build_sync_plan(names, "tree", fanout=2)
    assert plan_roots(plan) == ["c0"]
    assert plan["c0"].children == ("c1", "c2")
    assert plan["c1"].children == ("c3", "c4")
    assert plan["c2"].children == ("c5", "c6")
    # A parent always precedes its children in cluster order, so the
    # runtime can build masters in index order and wire parent inboxes.
    order = {name: i for i, name in enumerate(names)}
    for node in plan.values():
        if node.parent is not None:
            assert order[node.parent] < order[node.name]


def test_tree_plan_respects_fanout():
    plan = build_sync_plan([f"c{i}" for i in range(5)], "tree", fanout=4)
    assert plan["c0"].children == ("c1", "c2", "c3", "c4")


def test_ring_plan_is_a_chain():
    plan = build_sync_plan(["a", "b", "c"], "tree", fanout=1)
    assert plan["c"].parent == "b" and plan["b"].parent == "a"
    assert plan["a"].parent is None


def test_single_cluster_plans_degenerate_to_star():
    for topology in ("star", "tree", "ring"):
        plan = build_sync_plan(["only"], **layout(topology))
        assert plan_roots(plan) == ["only"]


def test_plan_rejects_bad_inputs():
    with pytest.raises(ConfigurationError, match="at least one"):
        build_sync_plan([], "star")
    with pytest.raises(ConfigurationError, match="duplicate"):
        build_sync_plan(["a", "a"], "tree")
    with pytest.raises(ConfigurationError, match="topology"):
        build_sync_plan(["a"], "mesh")


# -- spec validation ---------------------------------------------------------


def test_spec_validation():
    # A chain is a fanout-1 tree and ``delta`` picks the cheapest body:
    # there is no ``ring`` or ``auto``.
    for topology in ("mesh", "ring"):
        with pytest.raises(ConfigurationError, match="topology"):
            SyncSpec(topology=topology)
    for encoding in ("huffman", "auto"):
        with pytest.raises(ConfigurationError, match="encoding"):
            SyncSpec(encoding=encoding)
    with pytest.raises(ConfigurationError, match="compression"):
        SyncSpec(compress="zstd")
    with pytest.raises(ConfigurationError, match="watermark"):
        SyncSpec(watermark=0)
    with pytest.raises(ConfigurationError, match="fanout"):
        SyncSpec(fanout=0)
    with pytest.raises(ConfigurationError, match="sim_ratio"):
        SyncSpec(sim_ratio=0.0)


def test_dense_uploads_save_nothing_whatever_the_sim_only_knobs():
    robj = DictReduction("sum", {f"w{i}": i for i in range(200)})
    for spec in (SyncSpec(), SyncSpec(watermark=3, fanout=5, sim_ratio=0.5)):
        codec = SyncCodec(spec)
        for _ in range(2):
            blob = codec.encode("cloud-cluster", robj).blob
            assert codec.decode("cloud-cluster", blob).to_bytes() == robj.to_bytes()
        stats = codec.stats
        assert stats.encodings == {"dense": 2}
        # The wire header is counted on both sides of the ledger.
        assert stats.wire_bytes == stats.dense_bytes == 2 * len(blob)
        assert stats.bytes_saved == 0
        # Only delta reads a baseline, so nothing else keeps one.
        assert not codec._encode_baselines and not codec._decode_baselines


# -- codec accounting --------------------------------------------------------


def test_codec_tracks_bytes_saved_per_channel():
    codec = SyncCodec(SyncSpec(encoding="delta", compress="zlib"))
    robj = DictReduction("sum", {f"w{i}": i for i in range(200)})
    for _ in range(3):
        blob = codec.encode("cloud-cluster", robj).blob
        assert codec.decode("cloud-cluster", blob).to_bytes() == robj.to_bytes()
    stats = codec.stats
    assert stats.uploads == 3
    assert stats.dense_bytes == 3 * (wire._HEADER.size + len(robj.to_bytes()))
    # Passes 2 and 3 are pure deltas of an unchanged object: near-free.
    assert stats.bytes_saved > stats.dense_bytes // 2
    assert stats.encodings.get("delta", 0) >= 2


def test_two_channels_encode_and_decode_concurrently(monkeypatch):
    """The codec lock guards baselines and stats, not the codec work: two
    channels' encodes (and an encode beside a decode) are inside
    ``wire`` at the same moment. Each patched call waits for a partner
    at a two-party barrier, which times out if the calls are serialized."""
    meet = threading.Barrier(2, timeout=5.0)
    real_encode, real_decode = wire.encode, wire.decode

    def encode(*args, **kwargs):
        meet.wait()
        return real_encode(*args, **kwargs)

    def decode(*args, **kwargs):
        meet.wait()
        return real_decode(*args, **kwargs)

    codec = SyncCodec(SyncSpec(encoding="delta", compress="zlib"))
    robj = ArrayReduction(64, data=np.arange(64.0))
    blob = codec.encode("c", robj).blob  # unpatched: nothing to meet yet
    monkeypatch.setattr(wire, "encode", encode)
    monkeypatch.setattr(wire, "decode", decode)
    errors: list[BaseException] = []

    def guarded(fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # BrokenBarrierError on a timeout
            errors.append(exc)

    for calls in (
        [(codec.encode, "a", robj), (codec.encode, "b", robj)],
        [(codec.encode, "a", robj), (codec.decode, "c", blob)],
    ):
        threads = [threading.Thread(target=guarded, args=call) for call in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert not errors, errors
    assert codec.stats.uploads == 4


@settings(deadline=None, max_examples=25)
@given(
    chains=st.lists(
        st.lists(
            st.lists(st.integers(0, 3), min_size=8, max_size=8),
            min_size=1, max_size=4,
        ),
        min_size=2, max_size=4,
    ),
)
def test_codec_state_is_exact_under_interleaved_channels(chains):
    """One sender/receiver thread per channel, all channels at once on a
    shortened switch interval: the shared stats equal the sum of what
    each channel produces alone, and both baseline stores end on each
    channel's last object."""
    spec = SyncSpec(encoding="delta", compress="zlib")
    objects = {
        f"ch{i}": [
            ArrayReduction(8, data=np.array(values, dtype=np.float64))
            for values in chain
        ]
        for i, chain in enumerate(chains)
    }
    expected = Counter()
    encodings = Counter()
    for name, chain in objects.items():
        alone = SyncCodec(spec)
        for robj in chain:
            alone.encode(name, robj)
        expected.update(
            uploads=alone.stats.uploads,
            wire_bytes=alone.stats.wire_bytes,
            dense_bytes=alone.stats.dense_bytes,
        )
        encodings.update(alone.stats.encodings)

    codec = SyncCodec(spec)
    start = threading.Barrier(len(objects), timeout=5.0)
    failures: list[BaseException] = []

    def channel(name, chain):
        try:
            start.wait()
            for robj in chain:
                blob = codec.encode(name, robj).blob
                assert codec.decode(name, blob).to_bytes() == robj.to_bytes()
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=channel, args=item)
            for item in objects.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    stats = codec.stats
    assert stats.uploads == expected["uploads"]
    assert stats.wire_bytes == expected["wire_bytes"]
    assert stats.dense_bytes == expected["dense_bytes"]
    assert stats.encodings == dict(encodings)
    for name, chain in objects.items():
        last = chain[-1].to_bytes()
        assert codec._encode_baselines[name] == last
        assert codec._decode_baselines[name] == last


# -- candidate memory --------------------------------------------------------

DELTA_ZLIB = SyncSpec(encoding="delta", compress="zlib", topology="tree")


@pytest.fixture(scope="module")
def bench_sync():
    return bench_module("bench_sync")


def memoryless(uploads):
    """``(encoding, blob)`` per ``(channel, robj)`` upload with every
    candidate built on every upload: only baselines carried over."""
    baselines, out = {}, []
    for channel, robj in uploads:
        encoded = wire.encode(
            robj, encoding="delta", compress="zlib",
            baseline=baselines.get(channel),
        )
        baselines[channel] = encoded.dense
        out.append((encoded.encoding, encoded.blob))
    return out


def remembering(uploads, monkeypatch):
    """The same uploads through one :class:`SyncCodec`: per upload its
    ``(encoding, blob)``, the candidates the channel sat out and whether a
    delta body was built."""
    built = []
    real = wire._delta_body

    def delta_body(*args):
        built.append(True)
        return real(*args)

    monkeypatch.setattr(wire, "_delta_body", delta_body)
    codec = SyncCodec(DELTA_ZLIB)
    out = []
    for channel, robj in uploads:
        losses = codec._encode_losses.get(channel, {})
        sat_out = {name for name, (left, _) in losses.items() if left}
        built.clear()
        encoded = codec.encode(channel, robj)
        out.append(((encoded.encoding, encoded.blob), sat_out, bool(built)))
    return out


def pagerank_uploads(bench_sync, passes=6):
    """The e2e-sized accumulators a two-cluster tree ships per pass."""
    return [
        (label, robj)
        for objects in bench_sync.pagerank_objects(
            bench_sync.E2E_UNITS, bench_sync.E2E_PAGES, passes
        )
        for label, robj in objects.items()
    ]


#: The cloud cluster's share of 16 pagerank jobs on each pass of a
#: 20-pass 2+2 run, as recorded from the threaded runtime: the head-site
#: cluster steals 0, 4 or 8 of the cloud's jobs, differently per pass.
CLOUD_JOBS = (4, 0, 8, 4, 4, 4, 0, 8, 8, 4, 4, 0, 8, 4, 0, 0, 0, 4, 8, 8)


def iterative_uploads():
    """The uploads of a 20-pass two-cluster tree pagerank whose cloud
    share moves with ``CLOUD_JOBS``: per pass the cloud master's object,
    then the head-site master's with the cloud's merged in."""
    units = 65536
    bundle = make_bundle("pagerank", units)
    app, edges = bundle.app, bundle.block_fn(0, units, 0)
    job = units // 16
    uploads = []
    for share in CLOUD_JOBS:
        cloud = app.create_reduction_object()
        app.local_reduction(cloud, edges[8 * job : (8 + share) * job])
        local = app.create_reduction_object()
        app.local_reduction(local, edges[: 8 * job])
        app.local_reduction(local, edges[(8 + share) * job :])
        local.merge(cloud)
        uploads += [("cloud-cluster", cloud), ("local-cluster", local)]
        app.update(app.finalize(local))
    return uploads


def test_memory_skips_a_delta_that_cannot_win(bench_sync, monkeypatch):
    """On the e2e pagerank object sparse beats delta by 3x or more on
    every upload. Remembering that ships the same bytes and builds the
    delta body only on the uploads that re-probe it: a channel's 2nd and
    4th of six (sat out 1, then 2)."""
    uploads = pagerank_uploads(bench_sync)
    before = memoryless(uploads)
    assert {encoding for encoding, _ in before} == {"sparse"}
    for channel in ("half", "full"):
        sent = [robj for name, robj in uploads if name == channel]
        for previous, robj in zip(sent, sent[1:]):
            dense = robj.to_bytes()
            delta = wire._delta_body(robj, dense, previous.to_bytes())
            sparse = wire._sparse_body(robj)
            assert (
                wire._estimate(delta, "zlib")[0]
                >= 3 * wire._estimate(sparse, "zlib")[0]
            )

    after = remembering(uploads, monkeypatch)
    assert [sent for sent, _, _ in after] == before
    for channel in ("half", "full"):
        mine = [row for (name, _), row in zip(uploads, after) if name == channel]
        assert [n for n, (_, _, built) in enumerate(mine, 1) if built] == [2, 4]
        assert [n for n, (_, out, _) in enumerate(mine, 1) if out] == [3, 5, 6]


def test_memory_keeps_a_delta_that_alternates(monkeypatch):
    """On a converging 20-pass pagerank delta wins about half the uploads
    and loses the others, mostly within 2x — a rule that benched it after
    any loss would ship dense where delta was about to win. With the
    margin, every upload that sat nothing out chooses as before."""
    uploads = iterative_uploads()
    assert len(uploads) == 40
    before = memoryless(uploads)
    encodings = Counter(encoding for encoding, _ in before)
    assert encodings["delta"] >= 15 and encodings["dense"] >= 10
    per_channel: dict[str, list[str]] = {}
    for (channel, _), (encoding, _) in zip(uploads, before):
        per_channel.setdefault(channel, []).append(encoding)
    assert any(
        a != "delta" and b == "delta"
        for chosen in per_channel.values()
        for a, b in zip(chosen, chosen[1:])
    ), "delta never won right after losing on a channel"

    after = remembering(uploads, monkeypatch)
    for (encoding, blob), (sent, sat_out, _) in zip(before, after):
        if not sat_out:
            assert sent == (encoding, blob)
    assert sum(len(blob) for (_, blob), _, _ in after) <= 1.1 * sum(
        len(blob) for _, blob in before
    )


@settings(deadline=None, max_examples=200)
@given(
    uploads=st.lists(
        st.fixed_dictionaries({
            "delta": st.integers(1, 400), "sparse": st.integers(1, 400),
        }),
        max_size=60,
    ),
    shipped=st.integers(1, 200),
)
def test_a_benched_candidate_is_estimated_again_within_the_cap(
    uploads, shipped
):
    """Whatever the estimates, a wide loser sits out 1, 2, 4, ... uploads
    (doubling per consecutive wide loss, capped at ``_MAX_SKIP``) and a
    candidate within the margin is built next time — so no candidate
    goes unestimated for more than ``_MAX_SKIP`` uploads in a row, which
    bounds the bytes a wrong skip can cost."""
    losses: dict = {}
    streak = {"delta": 0, "sparse": 0}
    unestimated = {"delta": 0, "sparse": 0}
    for sizes in uploads:
        estimated = {
            name: size for name, size in sizes.items()
            if not losses.get(name, (0, 0))[0]
        }
        losses = wire._remember(losses, {"dense": shipped, **estimated}, shipped)
        assert "dense" not in losses
        for name in sizes:
            if name not in estimated:
                unestimated[name] += 1
                assert unestimated[name] <= wire._MAX_SKIP
                continue
            unestimated[name] = 0
            if estimated[name] >= wire._WIDE_LOSS * shipped:
                streak[name] += 1
                span = min(2 ** (streak[name] - 1), wire._MAX_SKIP)
                assert losses[name] == (span, span)
            else:
                streak[name] = 0
                assert name not in losses


# -- head timing via the injectable clock ------------------------------------


class TickClock:
    """monotonic() advances exactly one second per call."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def make_head(clusters, *, roots, codec, stream=False, clock=None):
    spec = small_spec(record_bytes=4, files=2, chunks_per_file=2)
    index = build_index(spec, PlacementSpec(local_fraction=1.0))
    scheduler = HeadScheduler(index.jobs(), MiddlewareTuning())
    for name in clusters:
        scheduler.register_cluster(name, LOCAL_SITE)
    core = HeadCore(scheduler, clusters, roots=roots, codec=codec, stream=stream)
    return HeadNode(core, clock=clock)


def upload(codec, cluster, robj, origins=None):
    """``robj`` as ``cluster``'s master ships it through ``codec``."""
    blob = codec.encode(cluster, robj).blob
    return ReductionUpload(cluster=cluster, blob=blob, origins=origins or (cluster,))


def test_head_barrier_timing_is_clock_driven():
    clock = TickClock()
    codec = SyncCodec(SyncSpec())
    head = make_head(("a", "b"), roots=("a", "b"), codec=codec, clock=clock)
    for name in ("a", "b"):
        # Stepped on this thread: timing must come from the clock.
        head.step(upload(codec, name, ScalarReduction("sum", 1.0)))
    # One started/finished pair around the whole barrier merge: 1 tick.
    assert head.global_reduction_seconds == 1.0
    assert head.result.value() == 2.0


def test_head_stream_timing_accumulates_per_upload():
    clock = TickClock()
    codec = SyncCodec(SyncSpec(stream=True))
    head = make_head(
        ("a", "b"), roots=("a", "b"), codec=codec, stream=True, clock=clock
    )
    for name in ("a", "b"):
        head.step(upload(codec, name, ScalarReduction("sum", 2.0)))
    # One started/finished pair per streamed merge: 2 ticks in total.
    assert head.global_reduction_seconds == 2.0
    assert head.result.value() == 4.0


def test_head_rejects_incomplete_coverage():
    codec = SyncCodec(SyncSpec(topology="tree"))
    head = make_head(("a", "b", "c"), roots=("a",), codec=codec)
    with pytest.raises(RuntimeProtocolError, match="coverage"):
        # "c" never shows up in any origins.
        head.step(upload(codec, "a", ScalarReduction("sum", 1.0), origins=("a", "b")))


def test_head_accepts_relayed_coverage():
    codec = SyncCodec(SyncSpec(topology="tree", fanout=1))
    head = make_head(("a", "b", "c"), roots=("a",), codec=codec)
    head.step(upload(codec, "a", ScalarReduction("sum", 6.0), origins=("a", "b", "c")))
    assert head.result.value() == 6.0


# -- runtime equivalence and streaming fault tolerance -----------------------


def materialize(app_key="histogram", total_units=2048, **params):
    bundle = make_bundle(app_key, total_units, **params)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=total_units * rb,
        num_files=4,
        chunk_bytes=(total_units // 16) * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def run_once(
    bundle, index, stores, sync=None, fault_hook=None, cores=(1, 1), trace=None
):
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=cores[0], cloud_cores=cores[1]),
        tuning=MiddlewareTuning(units_per_group=100),
        sync=sync,
        fault_hook=fault_hook,
        trace=trace,
    )
    return runtime.run()


def test_runtime_sync_telemetry_accounts_for_wire_savings():
    bundle, index, stores = materialize("wordcount", vocabulary=64)
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    result = run_once(
        bundle, index, stores,
        sync=SyncSpec(encoding="delta", compress="zlib"),
    )
    assert result.value == oracle
    t = result.telemetry
    assert t.sync_uploads == 2  # one combined object per cluster
    assert t.sync_bytes_sent > 0
    assert t.sync_bytes_saved > 0  # zlib easily beats pickled dicts
    assert t.sync_partial_merges == 0  # barrier mode: no partial flushes


def test_sync_upload_trace_says_what_the_encode_cost():
    bundle, index, stores = materialize("wordcount", vocabulary=64)
    log = EventLog()
    result = run_once(
        bundle, index, stores,
        sync=SyncSpec(encoding="delta", compress="zlib"), trace=log,
    )
    details = [e.detail for e in log.snapshot() if e.kind == "sync_upload"]
    assert len(details) == result.telemetry.sync_uploads == 2
    shape = re.compile(
        r"(dense|sparse|delta)\+(none|zlib) (\d+)/\d+B \d+\.\dms"
    )
    sent = 0
    for detail in details:
        m = shape.fullmatch(detail)
        assert m, detail
        sent += int(m.group(3))
    assert sent == result.telemetry.sync_bytes_sent


def test_runtime_streaming_flushes_partials():
    bundle, index, stores = materialize("histogram")
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    result = run_once(
        bundle, index, stores,
        sync=SyncSpec(stream=True, watermark=2),
        cores=(2, 2),
    )
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.sync_partial_merges > 0


def test_traced_tree_streaming_records_every_master_merge():
    """A streaming tree run traces each master-side fold: one
    ``sync_merge`` per slave partial and one per child upload (the
    cloud master is the local master's child)."""
    bundle, index, stores = materialize("histogram")
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    log = EventLog()
    result = run_once(
        bundle, index, stores,
        sync=SyncSpec(topology="tree", stream=True, watermark=2),
        cores=(2, 2), trace=log,
    )
    np.testing.assert_array_equal(result.value, oracle)
    merges = log.of_kind("sync_merge")
    partials = [e for e in merges if re.fullmatch(r"partial of \d+ jobs", e.detail)]
    uploads = [(e.cluster, e.detail) for e in merges if e not in partials]
    assert len(partials) == result.telemetry.sync_partial_merges > 0
    assert uploads == [("local-cluster", "upload from cloud-cluster")]


def test_streaming_commits_flushed_work_across_a_crash():
    """A dead slave's flushed partials survive: only the jobs since its
    last watermark flush (plus the in-flight one) are re-executed, and
    the result still equals the oracle. The other slaves are held until
    the crash, so the victim always reaches its third job."""
    bundle, index, stores = materialize("histogram")
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    watermark = 1
    hook = CrashOnce(victim=0, after=2)
    streamed = run_once(
        bundle, index, stores,
        sync=SyncSpec(stream=True, watermark=watermark),
        fault_hook=hold_others(hook, {0}, hook.crashed),
        cores=(2, 2),
    )
    assert hook.fired
    np.testing.assert_array_equal(streamed.value, oracle)
    assert streamed.telemetry.slaves_failed == 1
    # Every processed job was flushed (watermark 1), so only the job that
    # was in flight at the crash replays.
    assert 0 < streamed.telemetry.jobs_reexecuted <= watermark + 1

    hook = CrashOnce(victim=0, after=2)
    barrier = run_once(
        bundle, index, stores, fault_hook=hold_others(hook, {0}, hook.crashed),
        cores=(2, 2),
    )
    assert hook.fired
    np.testing.assert_array_equal(barrier.value, oracle)
    # Without commits the whole history of the victim replays.
    assert barrier.telemetry.jobs_reexecuted >= 3


@pytest.mark.parametrize("mode", ["runtime", "simulate"])
def test_both_engines_flush_a_partial_every_watermark_jobs(mode):
    """One 2+2 streamed config with watermark 2, on thread slaves and in
    the simulator: every slave flushes ``jobs // 2`` partials, and each
    master folds exactly its own slaves' partials."""
    watermark = 2
    log = EventLog()
    repro.run(
        "histogram",
        DatasetSpec(
            total_bytes=4096 * 8, num_files=4, chunk_bytes=128 * 8, record_bytes=8
        ),
        repro.RunConfig(
            mode=mode, trace=log,
            compute=ComputeSpec(local_cores=2, cloud_cores=2),
            sync=SyncSpec(stream=True, watermark=watermark),
        ),
    )
    jobs = Counter((e.cluster, e.worker) for e in log.of_kind("job_done"))
    partials = Counter((e.cluster, e.worker) for e in log.of_kind("sync_partial"))
    assert sum(partials.values()) > 0 and set(partials) <= set(jobs)
    for slave, done in jobs.items():
        assert partials[slave] == done // watermark, slave
    folded = Counter(
        e.cluster for e in log.of_kind("sync_merge")
        if e.detail.startswith("partial of")
    )
    for cluster in ("local-cluster", "cloud-cluster"):
        assert folded[cluster] == sum(
            n for (name, _), n in partials.items() if name == cluster
        ), cluster


# -- simulators --------------------------------------------------------------


def test_sim_default_spec_is_byte_identical_to_legacy():
    config = env_config("pagerank", "env-50/50", scale=0.05)
    legacy = CloudBurstSimulation(config).run()
    default = CloudBurstSimulation(config, sync=SyncSpec()).run()
    assert default.makespan == legacy.makespan
    assert default.events_processed == legacy.events_processed


@pytest.mark.parametrize("topology", ("star", "tree", "ring"))
def test_sim_topologies_keep_invariants(topology):
    config = env_config("pagerank", "env-50/50", scale=0.05)
    report = CloudBurstSimulation(
        config, sync=SyncSpec(**layout(topology), stream=True)
    ).run()
    report.validate()
    assert report.total_jobs == CloudBurstSimulation(config).run().total_jobs


def test_sim_ratio_cuts_modeled_sync_time():
    config = env_config("pagerank", "env-50/50", scale=0.05)
    chain = layout("ring")
    dense = CloudBurstSimulation(config, sync=SyncSpec(**chain)).run()
    thin = CloudBurstSimulation(
        config, sync=SyncSpec(**chain, sim_ratio=0.01)
    ).run()
    assert thin.makespan < dense.makespan


# -- multisite: the tree-beats-star story ------------------------------------


def _many_site_config(n_sites=6, ingress_mb=4):
    def storage_path(name):
        return StorePath(
            name=name, bandwidth=200 * MB, per_connection_cap=20 * MB,
            request_latency=0.001,
        )

    names = ["campus"] + [f"cloud{i}" for i in range(1, n_sites)]
    sites = tuple(
        SiteSpec(name=name, cores=2, data_files=1, storage=storage_path(name))
        for name in names
    )
    cross = tuple(
        CrossPath(
            src=a, dst=b,
            path=StorePath(
                name=f"{a}->{b}", bandwidth=40 * MB,
                per_connection_cap=20 * MB, request_latency=0.05,
            ),
        )
        for a in names for b in names if a != b
    )
    return MultiSiteConfig(
        name="wan-tax",
        app="kmeans",
        dataset=DatasetSpec(
            total_bytes=n_sites * 4 * MB,
            num_files=n_sites,
            chunk_bytes=1 * MB,
            record_bytes=4,
        ),
        sites=sites,
        cross_paths=cross,
        head_site="campus",
        head_ingress_bandwidth=ingress_mb * MB,
    )


def _big_robj_profile():
    return replace(get_profile("kmeans"), robj_bytes=64 * MB)


def test_multisite_tree_beats_star_on_shared_ingress():
    """With a 64 MB reduction object and a skinny shared trunk into the
    head site, star's n-1 concurrent flows strangle each other while
    tree ships at most a level's worth at a time."""
    config = _many_site_config()
    profile = _big_robj_profile()
    results = {
        topo: MultiSiteSimulation(
            config, profile=profile, sync=SyncSpec(**layout(topo))
        ).run()
        for topo in ("star", "tree", "ring")
    }
    for report in results.values():
        report.validate()
    assert results["tree"].makespan < results["star"].makespan
    assert results["ring"].makespan < results["star"].makespan


def test_multisite_star_spec_matches_legacy_exactly():
    config = _many_site_config()
    profile = _big_robj_profile()
    legacy = MultiSiteSimulation(config, profile=profile).run()
    star = MultiSiteSimulation(
        config, profile=profile, sync=SyncSpec(topology="star")
    ).run()
    assert star.makespan == legacy.makespan


def test_multisite_sim_ratio_models_wire_savings():
    config = _many_site_config()
    profile = _big_robj_profile()
    dense = MultiSiteSimulation(
        config, profile=profile, sync=SyncSpec(topology="tree")
    ).run()
    thin = MultiSiteSimulation(
        config, profile=profile,
        sync=SyncSpec(topology="tree", sim_ratio=0.1),
    ).run()
    assert thin.makespan < dense.makespan


def test_head_ingress_bandwidth_validation():
    with pytest.raises(ConfigurationError, match="ingress"):
        _many_site_config(ingress_mb=0)


# -- closed-form estimates ---------------------------------------------------


def test_sync_aggregation_time_closed_forms():
    link = Link("sites", "head", bandwidth=100.0, latency=0.5)
    one = transfer_time(link, 1000)
    # Star: one n-way shared transfer plus n serial head merges.
    star = sync_aggregation_time(
        link, 1000, 4, merge_seconds=2.0, topology="star"
    )
    assert star == pytest.approx(transfer_time(link, 1000, concurrent_flows=4) + 8.0)
    # A chain (fanout-1 tree): n serial single-flow hops, one merge each.
    ring = sync_aggregation_time(
        link, 1000, 4, merge_seconds=2.0, **layout("ring")
    )
    assert ring == pytest.approx(4 * (one + 2.0))
    # Tree sits between the two extremes on a capped trunk.
    capped = Link("sites", "head", bandwidth=100.0, latency=0.5,
                  per_flow_cap=50.0)
    times = {
        topo: sync_aggregation_time(capped, 10_000, 8, **layout(topo))
        for topo in ("star", "tree", "ring")
    }
    assert times["star"] <= times["tree"] <= times["ring"]


def test_sync_aggregation_time_rejects_bad_inputs():
    link = Link("a", "b", bandwidth=10.0)
    with pytest.raises(ConfigurationError):
        sync_aggregation_time(link, -1, 2)
    with pytest.raises(ConfigurationError):
        sync_aggregation_time(link, 10, 0)
    with pytest.raises(ConfigurationError):
        sync_aggregation_time(link, 10, 2, merge_seconds=-1.0)
