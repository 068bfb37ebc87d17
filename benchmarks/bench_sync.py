"""Benchmarks of the WAN-shrinking global-reduction stack.

The paper's headline non-scalable cost is global reduction: at sync time
every master ships its full reduction object over the WAN. Three
artifacts pin what the sync stack buys back:

* **Iterative wire-byte cut** — pagerank power iterations through one
  :class:`~repro.runtime.driver.CloudBurstingRuntime` with
  ``delta+zlib``: the codec's per-channel baselines persist across
  passes, so the converging rank vector turns successive uploads into
  lane-diffed, byte-shuffled, compressed deltas. The cumulative dense
  bytes must exceed the cumulative wire bytes by **>= 5x**.
* **Tree beats star on a shared ingress trunk** — a six-site burst (five
  cloud masters behind one 4 MB/s trunk into the campus head) with a
  64 MB reduction object, simulated per topology. Star's five concurrent
  flows strangle each other on the trunk; tree merges en route and ships
  a level at a time. Narrated against the closed-form
  :func:`~repro.network.transfer.sync_aggregation_time` estimates.
* **Default overhead** — the dense/star/barrier default ships every
  pass through the same codec and plan as any other spec; the codec's
  encode + decode of one pass's uploads must stay under 2 % of the pass.
* **Codec table** — what ``wire.encode`` chooses between at the
  ``benchmarks/e2e`` ``pagerank_sync`` object size (2 Mi edges, 262,144
  pages; the half-cluster object the cloud master ships and the
  full-cluster one the head-site master ships, passes 1-4): per
  candidate its body bytes, the sampled estimate, the size and time of
  compressing it in full, and which one the encoder picked. The
  estimate must rank the candidates as full compression does, and one
  encode must compress exactly one whole body. Beside the sparse body, a
  reference row compresses the layout it replaced (absolute int64
  indices, :func:`sparse_reference`): the gap-coded body must compress
  to no more bytes than it (bytes only; the ms are printed, not gated).
* **Warm channel** — the same objects over six passes through one
  channel, encoded with and without the channel's candidate memory: per
  upload the candidates built, the encode ms and the choice. Delta loses
  to sparse by 3-4x on this object, so the remembering channel sits it
  out on 3 of 5 warm uploads; the blobs must be equal and a sat-out
  upload must build no delta body.

Run directly with ``--smoke`` for a quick CI-sized pass of the first two
artifacts, the e2e-size codec table and a quarter-size warm-channel table
(same assertions); ``--out report.json`` writes the WAN-bytes accounting
as a machine-readable artifact.
"""

from __future__ import annotations

import argparse
import json
import pickle
import time
import timeit
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from conftest import print_block

from repro.apps import make_bundle
from repro.apps.base import get_profile
from repro.bench.reporting import render_table
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core import wire
from repro.core.reduction import ArrayReduction
from repro.core.sync import SyncCodec, SyncSpec
from repro.data.dataset import build_dataset
from repro.network.topology import Link
from repro.network.transfer import sync_aggregation_time, transfer_time
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import (
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)
from repro.sim.storagemodel import StorePath
from repro.storage.objectstore import ObjectStore
from repro.units import MB


# -- iterative wire-byte cut -------------------------------------------------


def _pagerank_runtime(units: int, *, sync: SyncSpec | None):
    bundle = make_bundle("pagerank", units)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=units * rb,
        num_files=4,
        chunk_bytes=(units // 16) * rb,
        record_bytes=rb,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(units_per_group=max(units // 16, 256)),
        sync=sync,
    )
    return bundle, runtime


def run_iterative(units: int, iterations: int):
    """Pagerank power iterations over one runtime (so the codec's delta
    baselines survive between passes); one accounting row per pass."""
    bundle, runtime = _pagerank_runtime(
        units,
        sync=SyncSpec(encoding="delta", compress="zlib", topology="tree"),
    )
    rows = []
    for i in range(iterations):
        result = runtime.run()
        t = result.telemetry
        dense = t.sync_bytes_sent + t.sync_bytes_saved
        rows.append({
            "iteration": i + 1,
            "wire_bytes": t.sync_bytes_sent,
            "dense_bytes": dense,
            "ratio": dense / max(t.sync_bytes_sent, 1),
        })
        bundle.app.update(result.value)
    return rows


def render_iterative(rows) -> str:
    out = [f"{'iter':>5} {'wire bytes':>11} {'dense bytes':>12} {'cut':>7}"]
    for r in rows:
        out.append(
            f"{r['iteration']:>5} {r['wire_bytes']:>11,} "
            f"{r['dense_bytes']:>12,} {r['ratio']:>6.1f}x"
        )
    wire = sum(r["wire_bytes"] for r in rows)
    dense = sum(r["dense_bytes"] for r in rows)
    out.append(
        f"{'total':>5} {wire:>11,} {dense:>12,} {dense / wire:>6.1f}x"
    )
    return "\n".join(out)


def check_iterative(rows) -> dict:
    wire = sum(r["wire_bytes"] for r in rows)
    dense = sum(r["dense_bytes"] for r in rows)
    assert wire > 0 and dense > wire
    cut = dense / wire
    # The acceptance bar: delta+zlib must cut the WAN reduction traffic
    # of an iterative pagerank by at least 5x against dense uploads.
    assert cut >= 5.0, f"WAN-byte cut only {cut:.2f}x"
    return {
        "iterations": len(rows),
        "wire_bytes": wire,
        "dense_bytes": dense,
        "bytes_saved": dense - wire,
        "cut": cut,
    }


# -- tree vs star on a shared head-ingress trunk -----------------------------

N_SITES = 6  # one campus head + five cloud masters


def shared_trunk_config() -> MultiSiteConfig:
    """Six equal sites, a full 40 MB/s cross mesh, and one skinny 4 MB/s
    trunk into the head site that every inbound reduction flow shares."""
    def storage_path(name):
        return StorePath(
            name=name, bandwidth=200 * MB, per_connection_cap=20 * MB,
            request_latency=0.001,
        )

    names = ["campus"] + [f"cloud{i}" for i in range(1, N_SITES)]
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
            total_bytes=N_SITES * 4 * MB,
            num_files=N_SITES,
            chunk_bytes=1 * MB,
            record_bytes=4,
        ),
        sites=sites,
        cross_paths=cross,
        head_site="campus",
        head_ingress_bandwidth=4 * MB,
    )


def run_topologies():
    """Simulate the shared-trunk burst per topology, plus the modeled
    wire-savings row (sim_ratio 0.1 stands in for delta+zlib)."""
    config = shared_trunk_config()
    profile = replace(get_profile("kmeans"), robj_bytes=64 * MB)
    out = {}
    layouts = {
        "star": SyncSpec(),
        "tree": SyncSpec(topology="tree"),
        "chain": SyncSpec(topology="tree", fanout=1),
    }
    for name, spec in layouts.items():
        report = MultiSiteSimulation(config, profile=profile, sync=spec).run()
        report.validate()
        out[name] = report
    out["tree+delta"] = MultiSiteSimulation(
        config, profile=profile,
        sync=SyncSpec(topology="tree", sim_ratio=0.1),
    ).run()
    return out


def render_topologies(reports) -> str:
    rows = [
        (name, f"{r.makespan:.2f}", f"{r.global_reduction:.2f}")
        for name, r in reports.items()
    ]
    # Closed forms explain the gap: star pushes all n-1 flows through the
    # trunk, while tree merges upstream on the 40 MB/s mesh and only the
    # root's fan-in (2 flows at fanout 2) ever touches the trunk.
    trunk = Link("sites", "head", bandwidth=4 * MB, latency=0.05,
                 per_flow_cap=20 * MB)
    star_trunk = sync_aggregation_time(
        trunk, 64 * MB, N_SITES - 1, merge_seconds=0.05, topology="star"
    )
    tree_trunk = transfer_time(trunk, 64 * MB, concurrent_flows=2)
    return (
        render_table(("topology", "makespan", "sync s"), rows)
        + f"\nclosed-form trunk crossings: star ships 5 flows "
        f"({star_trunk:.1f}s), tree only the root fan-in "
        f"({tree_trunk:.1f}s) — upstream levels ride the 40 MB/s mesh"
    )


def check_topologies(reports) -> dict:
    star, tree, chain = (reports[t].makespan for t in ("star", "tree", "chain"))
    assert tree < star, (tree, star)
    assert chain < star, (chain, star)
    assert reports["tree+delta"].makespan < tree
    return {name: r.makespan for name, r in reports.items()}


def test_tree_beats_star_on_shared_ingress_trunk():
    reports = run_topologies()
    print_block(
        f"six-site burst, 64 MB reduction object, 4 MB/s head trunk\n"
        + render_topologies(reports)
    )
    check_topologies(reports)


def test_iterative_pagerank_delta_cuts_wan_bytes_five_fold():
    rows = run_iterative(65536, 20)
    print_block("iterative pagerank, delta+zlib over a tree\n"
                + render_iterative(rows))
    check_iterative(rows)


def test_default_sync_spec_overhead_under_two_percent():
    """The dense/star/barrier default ships every pass's cross-site
    upload through the same codec as any other spec, so bound what that
    codec costs: one default pass timed beside the codec's own encode +
    decode of the objects the pass shipped. The codec's share of the pass must stay under 2 %."""
    _, runtime = _pagerank_runtime(16384, sync=None)
    assert runtime.sync == SyncSpec()
    codec = runtime._sync_codec
    shipped = []
    encode = codec.encode

    def recording_encode(channel, robj):
        shipped.append((channel, robj))
        return encode(channel, robj)

    codec.encode = recording_encode
    result = runtime.run()
    del codec.encode
    t = result.telemetry
    # One dense upload, the cloud cluster's (the local cluster hands its
    # object to the head unencoded): the object's own serialization, so
    # nothing is saved.
    assert t.sync_uploads == len(shipped) == 1
    assert codec.stats.encodings == {"dense": 1}
    assert t.sync_bytes_saved == 0

    probe = SyncCodec(runtime.sync)

    def round_trip():
        for channel, robj in shipped:
            probe.decode(channel, probe.encode(channel, robj).blob)

    # Interleave the two series (min-of-reps then isolates each cost
    # from scheduler noise); a round trip takes tens of microseconds, so
    # each of its readings spans 20 of them.
    reps, passes, trips = 8, 2, 20
    pass_times, codec_times = [], []
    for _ in range(reps):
        pass_times.append(timeit.timeit(runtime.run, number=passes))
        codec_times.append(timeit.timeit(round_trip, number=trips))
    t_pass = min(pass_times) / passes
    t_codec = min(codec_times) / trips
    share = t_codec / t_pass
    print_block(
        f"default-spec codec: pass {t_pass * 1e3:.2f}ms, encode+decode of "
        f"its {len(shipped)} uploads {t_codec * 1e3:.3f}ms "
        f"-> {share * 100:.2f}%"
    )
    assert share < 0.02, (
        f"default sync codec costs {share * 100:.2f}% of a pass "
        f"({t_codec * 1e3:.3f}ms of {t_pass * 1e3:.2f}ms)"
    )


# -- codec table: estimate, then compress one --------------------------------

E2E_UNITS, E2E_PAGES = 2_097_152, 262_144


def pagerank_objects(units: int, n_pages: int, passes: int):
    """The rank accumulators a two-cluster tree ships on each power
    iteration: the cloud master's half and the head-site master's full."""
    bundle = make_bundle("pagerank", units, n_pages=n_pages)
    app, edges = bundle.app, bundle.block_fn(0, units, 0)
    for _ in range(passes):
        half = app.create_reduction_object()
        app.local_reduction(half, edges[: units // 2])
        full = app.create_reduction_object()
        app.local_reduction(full, edges[units // 2 :])
        full.merge(half)
        yield {"half": half, "full": full}
        app.update(app.finalize(full))


@contextmanager
def watching(name: str, keep):
    """Record ``keep(args, result)`` for every call of ``wire.<name>``."""
    seen: list = []
    real = getattr(wire, name)

    def watched(*args):
        result = real(*args)
        seen.append(keep(args, result))
        return result

    setattr(wire, name, watched)
    try:
        yield seen
    finally:
        setattr(wire, name, real)


def _ms(fn):
    started = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - started) * 1e3


def sparse_reference(robj: ArrayReduction) -> bytes:
    """The sparse body the encoder built before gap coding, which wire
    version 1 decoders still read: every non-identity lane as an absolute
    int64 index, then the raw values."""
    data = robj.data
    lane = wire._lane_dtype(data.dtype)
    identity = np.full((), ArrayReduction._IDENTITY[robj.op], dtype=data.dtype)
    idx = np.flatnonzero(wire._bits(data, lane) != wire._bits(identity, lane)[0])
    values = np.ascontiguousarray(data).reshape(-1)[idx]
    return pickle.dumps(
        ("arr", robj.op, data.dtype.str, data.shape,
         idx.astype(np.int64).tobytes(), values.tobytes()),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def run_codec_table(units: int, n_pages: int, passes: int = 4):
    """One entry per encode on a ``delta+zlib`` channel, with one row per
    candidate body inside it."""
    encodes = []
    baselines: dict[str, bytes | None] = {"half": None, "full": None}
    for i, objects in enumerate(pagerank_objects(units, n_pages, passes), 1):
        for label, robj in objects.items():
            baseline = baselines[label]
            with watching("_compress", lambda args, _: len(args[0])) as fed:
                encoded, encode_ms = _ms(lambda: wire.encode(
                    robj, encoding="delta", compress="zlib", baseline=baseline
                ))
            bodies = wire._bodies(robj, encoded.dense, "delta", baseline)
            candidates = []
            for name, body in bodies.items():
                (estimate, _), estimate_ms = _ms(
                    lambda: wire._estimate(body, "zlib")
                )
                packed, compress_ms = _ms(lambda: wire._compress(body, "zlib"))
                candidates.append({
                    "candidate": name, "body_bytes": len(body),
                    "estimate_bytes": estimate, "estimate_ms": estimate_ms,
                    "actual_bytes": len(packed[0]), "compress_ms": compress_ms,
                })
            body_sizes = {len(body) for body in bodies.values()}
            reference = sparse_reference(robj)
            packed, compress_ms = _ms(lambda: wire._compress(reference, "zlib"))
            assert wire._sparse_restore(
                pickle.loads(reference)
            ).to_bytes() == encoded.dense
            encodes.append({
                "pass": i, "object": label, "chosen": encoded.encoding,
                "encode_ms": encode_ms, "wire_bytes": len(encoded.blob),
                "whole_bodies_compressed": sum(n in body_sizes for n in fed),
                "compressor_bytes": sum(fed),
                "candidates": candidates,
                "reference": {
                    "candidate": "sparse, int64 idx",
                    "body_bytes": len(reference),
                    "actual_bytes": len(packed[0]),
                    "compress_ms": compress_ms,
                },
            })
            baselines[label] = encoded.dense
    return encodes


def render_codec_table(encodes) -> str:
    def row(e, c):
        return (
            e["pass"], e["object"], c["candidate"], f"{c['body_bytes']:,}",
            f"{c['estimate_bytes']:,}" if "estimate_bytes" in c else "-",
            f"{c['estimate_ms']:.1f}" if "estimate_ms" in c else "-",
            f"{c['actual_bytes']:,}", f"{c['compress_ms']:.1f}",
            f"<- {e['encode_ms']:.1f} ms" if c["candidate"] == e["chosen"]
            else "(reference)" if c is e["reference"] else "",
        )

    table = render_table(
        ("pass", "object", "candidate", "body B", "estimate B", "est ms",
         "actual B", "full ms", "chosen"),
        [row(e, c) for e in encodes for c in [*e["candidates"], e["reference"]]],
    )
    return table + (
        "\n(chosen: one wire.encode call with no channel memory, every "
        "candidate built; the warm-channel table shows what a channel skips; "
        "reference: the sparse layout before gap coding, never a candidate)"
    )


def check_codec_table(encodes) -> dict:
    budget = wire._SAMPLE_BLOCKS * wire._SAMPLE_BLOCK
    for e in encodes:
        key = (e["pass"], e["object"])
        by_estimate = sorted(e["candidates"], key=lambda c: c["estimate_bytes"])
        by_actual = sorted(e["candidates"], key=lambda c: c["actual_bytes"])
        assert by_estimate == by_actual, (
            f"estimate misranks the candidates of {key}"
        )
        smallest = by_actual[0]
        assert e["chosen"] == smallest["candidate"], key
        assert e["whole_bodies_compressed"] == 1, key
        assert e["compressor_bytes"] <= (
            smallest["body_bytes"] + len(e["candidates"]) * budget
        ), key
        sparse = next(c for c in e["candidates"] if c["candidate"] == "sparse")
        assert sparse["actual_bytes"] <= e["reference"]["actual_bytes"], (
            f"gap-coded sparse body compresses larger than int64 indices "
            f"on {key}"
        )
    return {
        "encodes": len(encodes),
        "wire_bytes": sum(e["wire_bytes"] for e in encodes),
        "encode_ms": sum(e["encode_ms"] for e in encodes),
        "compress_all_ms": sum(
            c["compress_ms"] for e in encodes for c in e["candidates"]
        ),
        "sparse_bytes": sum(
            c["actual_bytes"] for e in encodes for c in e["candidates"]
            if c["candidate"] == "sparse"
        ),
        "sparse_reference_bytes": sum(
            e["reference"]["actual_bytes"] for e in encodes
        ),
    }


# -- warm channel: build only what can win ----------------------------------


def run_warm_channel(units: int, n_pages: int, passes: int = 6, reps: int = 3):
    """Each upload of a ``delta+zlib`` channel encoded with and without the
    channel's candidate memory, from the same baseline: per side the
    candidates built, the delta bodies built, the fastest of ``reps``
    encodes in ms and the blob."""
    uploads = []
    baselines: dict[str, bytes | None] = {"half": None, "full": None}
    losses: dict[str, wire.Losses] = {"half": {}, "full": {}}
    for i, objects in enumerate(pagerank_objects(units, n_pages, passes), 1):
        for label, robj in objects.items():
            row = {"pass": i, "object": label}
            for side, memory in (("off", {}), ("on", losses[label])):
                with (
                    watching("_bodies", lambda a, bodies: tuple(bodies)) as built,
                    watching("_delta_body", lambda a, body: 1) as deltas,
                ):
                    timed = [
                        _ms(lambda: wire.encode(
                            robj, encoding="delta", compress="zlib",
                            baseline=baselines[label], losses=memory,
                        ))
                        for _ in range(reps)
                    ]
                encoded = timed[0][0]
                row[side] = {
                    "built": built[0], "delta_bodies": len(deltas) // reps,
                    "encode_ms": min(ms for _, ms in timed),
                    "chosen": encoded.encoding, "blob": encoded.blob,
                }
            # The memory-on side ran last: carry its state to the next upload.
            baselines[label] = encoded.dense
            losses[label] = encoded.losses
            uploads.append(row)
    return uploads


def render_warm_channel(uploads) -> str:
    def side(entry):
        return ("+".join(entry["built"]), f"{entry['encode_ms']:.1f}",
                entry["chosen"])

    table = render_table(
        ("pass", "object", "memory off: built", "ms", "chosen",
         "memory on: built", "ms", "chosen"),
        [(u["pass"], u["object"], *side(u["off"]), *side(u["on"]))
         for u in uploads],
    )
    off = sum(u["off"]["encode_ms"] for u in uploads)
    on = sum(u["on"]["encode_ms"] for u in uploads)
    return table + (
        f"\n(ms: the fastest of repeated encodes; all uploads {off:.1f} ms "
        f"without memory, {on:.1f} ms with it)"
    )


def check_warm_channel(uploads) -> dict:
    skipped = 0
    for u in uploads:
        key = (u["pass"], u["object"])
        assert u["on"]["blob"] == u["off"]["blob"], key
        if "delta" not in u["on"]["built"] and "delta" in u["off"]["built"]:
            skipped += 1
            assert u["on"]["delta_bodies"] == 0, key
    assert skipped, "the channel never sat delta out"
    return {
        "uploads": len(uploads),
        "delta_skipped": skipped,
        "encode_ms_off": sum(u["off"]["encode_ms"] for u in uploads),
        "encode_ms_on": sum(u["on"]["encode_ms"] for u in uploads),
    }


def test_codec_estimate_ranks_like_full_compression():
    encodes = run_codec_table(E2E_UNITS // 4, E2E_PAGES // 4, passes=3)
    print_block("codec candidates, quarter-size pagerank object\n"
                + render_codec_table(encodes))
    check_codec_table(encodes)


def test_warm_channel_builds_only_what_can_win():
    uploads = run_warm_channel(E2E_UNITS // 4, E2E_PAGES // 4)
    print_block("warm delta+zlib channel, quarter-size pagerank object\n"
                + render_warm_channel(uploads))
    check_warm_channel(uploads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: fewer pagerank passes, same assertions",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the WAN-bytes accounting to PATH as JSON",
    )
    args = parser.parse_args(argv)

    units, iterations = (65536, 8) if args.smoke else (65536, 20)
    rows = run_iterative(units, iterations)
    print(render_iterative(rows))
    iterative = check_iterative(rows)
    print(f"ok: delta+zlib cut WAN reduction bytes {iterative['cut']:.1f}x "
          f"over {iterations} pagerank passes")

    reports = run_topologies()
    print(render_topologies(reports))
    topologies = check_topologies(reports)
    print("ok: tree and a fanout-1 chain beat star on the shared head-ingress "
          "trunk")

    encodes = run_codec_table(E2E_UNITS, E2E_PAGES)
    print(render_codec_table(encodes))
    codec = check_codec_table(encodes)
    print(
        f"ok: {codec['encodes']} encodes in {codec['encode_ms']:.0f} ms, one "
        f"whole body compressed each (compressing every candidate: "
        f"{codec['compress_all_ms']:.0f} ms); gap-coded sparse bodies "
        f"{codec['sparse_bytes']:,} B compressed against "
        f"{codec['sparse_reference_bytes']:,} B with int64 indices"
    )

    scale = 4 if args.smoke else 1
    uploads = run_warm_channel(E2E_UNITS // scale, E2E_PAGES // scale)
    print(render_warm_channel(uploads))
    warm = check_warm_channel(uploads)
    print(
        f"ok: equal blobs on all {warm['uploads']} uploads; delta sat out "
        f"{warm['delta_skipped']} and built no body there"
    )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "iterative_pagerank": iterative,
                    "multisite_makespans": topologies,
                    "codec": codec,
                    "codec_table": encodes,
                    "warm_channel": warm,
                },
                fh, indent=2,
            )
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
