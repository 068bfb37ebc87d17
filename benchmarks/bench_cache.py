"""Benchmarks of the chunk cache + prefetch pipeline.

Three acceptance bounds and one characterization:

* **Iterative payoff** — a remote-heavy kmeans (every chunk on the cloud,
  every core local, injected per-read latency standing in for the WAN)
  run twice over a shared :class:`~repro.cache.ChunkCache`: iteration 2
  must fetch **zero** remote bytes and finish measurably faster than
  iteration 1. The table prints per-iteration remote bytes, wall time,
  and hit/miss accounting.
* **Disabled overhead** — attaching a cache that never engages (every
  read is site-local, so the reader's ``remote`` check short-circuits
  before any cache code runs) must cost < 2 % extra wall time against a
  cache-free reader. With ``cache.bytes=0`` the facade constructs none
  of the machinery at all, so this bounds the worst case.
* **Prefetch window** — one prefetching
  :class:`~repro.core.slave.SlaveCore` whose requests a
  :class:`~repro.cache.Prefetcher` carries out, on a
  :class:`~repro.clock.FakeClock` (deterministic: fetches and compute
  are virtual sleeps), fixed windows 1 / 2 / 4 / 8 against the
  self-sized one at fetch-to-compute ratios of about 0, 1 and 10. The
  self-sized window must finish within 15 % of the best fixed one at
  every ratio and stay at 1 when fetches cost nothing. This table is
  the evidence for ``MAX_WINDOW_JOBS`` / ``WINDOW_BYTES`` in
  :mod:`repro.core.slave`, and where a change to them is judged.

Run directly with ``--smoke`` for a quick CI-sized pass of the iterative
table (same assertions, smaller dataset) and the window table.
"""

from __future__ import annotations

import argparse
import queue
import time
import timeit
from collections import deque
from types import SimpleNamespace

from conftest import print_block

from repro.apps import make_bundle
from repro.cache import ChunkCache, Prefetcher
from repro.clock import FakeClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.slave import Reduce, Reduced, Request, SlaveCore
from repro.data.dataset import DatasetReader, build_dataset
from repro.resilience import FaultInjector, FaultSpec
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

RECORD = 16  # kmeans point records


def kmeans_dataset(units: int) -> DatasetSpec:
    return DatasetSpec(
        total_bytes=units * RECORD,
        num_files=4,
        chunk_bytes=(units // 16) * RECORD,
        record_bytes=RECORD,
    )


def remote_heavy_kmeans(units: int, *, latency: float):
    """Everything on the cloud, all compute local, per-read latency
    injected so 'remote' costs something the cache can actually save."""
    bundle = make_bundle("kmeans", units, seed=2011, k=8)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        kmeans_dataset(units), PlacementSpec(0.0), bundle.schema,
        bundle.block_fn, stores,
    )
    spec = FaultSpec(latency_rate=1.0, latency_seconds=latency, seed=7)
    stores = {site: FaultInjector(s, spec) for site, s in stores.items()}
    return bundle, index, stores


def run_iterations(units: int, iterations: int, *, latency: float):
    """Run the remote-heavy workload over one shared cache; returns one
    accounting row per iteration."""
    bundle, index, stores = remote_heavy_kmeans(units, latency=latency)
    cache = ChunkCache(64 << 20)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(units_per_group=512),
        cache=cache, prefetch=True,
    )
    rows = []
    for i in range(iterations):
        started = time.perf_counter()
        result = runtime.run()
        wall = time.perf_counter() - started
        t = result.telemetry
        rows.append({
            "iteration": i + 1,
            "remote_bytes": t.remote_bytes,
            "wall": wall,
            "hits": t.cache_hits,
            "misses": t.cache_misses,
        })
        bundle.app.update(result.value)
    return rows


def render_rows(rows) -> str:
    out = [f"{'iter':>5} {'remote bytes':>13} {'wall':>10} "
           f"{'hits':>6} {'misses':>7}"]
    for r in rows:
        out.append(
            f"{r['iteration']:>5} {r['remote_bytes']:>13,} "
            f"{r['wall'] * 1e3:>8.1f}ms {r['hits']:>6} {r['misses']:>7}"
        )
    return "\n".join(out)


def check_rows(rows) -> None:
    first, rest = rows[0], rows[1:]
    assert first["remote_bytes"] > 0 and first["misses"] > 0
    for row in rest:
        # Every byte of iteration >= 2 comes from the cache.
        assert row["remote_bytes"] == 0, row
        assert row["misses"] == 0, row
        assert row["hits"] == first["misses"], row
        assert row["wall"] < first["wall"], row


def test_second_iteration_fetches_zero_remote_bytes_and_is_faster():
    rows = run_iterations(8192, 3, latency=0.004)
    print_block("iterative kmeans over a shared chunk cache\n"
                + render_rows(rows))
    check_rows(rows)


def test_disabled_cache_overhead_under_two_percent():
    """A cache the reads never reach must be nearly free."""
    units = 65536
    bundle = make_bundle("kmeans", units, seed=2011, k=8)
    store = ObjectStore()
    # Many small chunks: read_job call count (where the disabled-cache
    # branch lives) dominates the timing, not the byte copies.
    spec = DatasetSpec(
        total_bytes=units * RECORD,
        num_files=8,
        chunk_bytes=(units // 256) * RECORD,
        record_bytes=RECORD,
    )
    index = build_dataset(
        spec, PlacementSpec(0.5), bundle.schema,
        bundle.block_fn, {LOCAL_SITE: store, CLOUD_SITE: store},
    )
    bare = DatasetReader(index, {LOCAL_SITE: store, CLOUD_SITE: store})
    cached = DatasetReader(
        index, {LOCAL_SITE: store, CLOUD_SITE: store}, cache=ChunkCache(1 << 20)
    )

    def drain(reader: DatasetReader) -> int:
        total = 0
        for job in index.jobs():
            # Reading from the chunk's own site: the cache never engages.
            site = index.entry(job.file_id).site
            total += len(reader.read_job(job, from_site=site))
        return total

    expected = sum(e.nbytes for e in index.files)
    assert drain(bare) >= expected  # warm up + sanity
    assert drain(cached) >= expected
    assert len(cached.cache) == 0  # the cache really never engaged

    # Interleave the two series (clock-frequency drift hits both alike)
    # and alternate which goes first (whoever runs second in a pair eats
    # the first's garbage); min-of-reps then isolates the per-call cost.
    reps, number = 12, 3
    bare_times, cached_times = [], []
    for i in range(reps):
        pair = [("bare", bare), ("cached", cached)]
        if i % 2:
            pair.reverse()
        for label, reader in pair:
            t = timeit.timeit(lambda: drain(reader), number=number)
            (bare_times if label == "bare" else cached_times).append(t)
    t_bare = min(bare_times) / number
    t_cached = min(cached_times) / number
    overhead = (t_cached - t_bare) / t_bare
    print_block(
        f"disabled-cache overhead: bare {t_bare * 1e3:.2f}ms, "
        f"cache attached (never hit) {t_cached * 1e3:.2f}ms "
        f"-> {overhead * 100:+.2f}%"
    )
    assert overhead < 0.02, (
        f"idle cache path costs {overhead * 100:.2f}% "
        f"({t_bare * 1e3:.2f}ms -> {t_cached * 1e3:.2f}ms)"
    )


# -- the prefetch window ------------------------------------------------------

WINDOW_JOBS = 96
COMPUTE_S = 1.0
#: Fetch seconds per compute second: a warm/local pass, a balanced one,
#: and the shaped-WAN cold pass of ``benchmarks/e2e`` (23 ms over 2.3 ms).
RATIOS = (0.001, 1.0, 10.0)
FIXED_WINDOWS = (1, 2, 4, 8)
_NOTHING: "queue.SimpleQueue[None]" = queue.SimpleQueue()


def window_makespan(ratio: float, fixed: int | None) -> tuple[float, int]:
    """Virtual seconds for one prefetching slave core, its requests carried
    out by a :class:`~repro.cache.Prefetcher`, to compute ``WINDOW_JOBS``
    jobs with its window ``fixed`` (or self-sized), and the widest window
    it used."""
    kind = SlaveCore if fixed is None else type(
        "FixedWindow", (SlaveCore,), {"window": fixed}
    )
    jobs = iter(range(WINDOW_JOBS))
    widest = 0
    with FakeClock() as clock:

        def acquire() -> SimpleNamespace | None:
            job = next(jobs, None)
            return None if job is None else SimpleNamespace(job_id=job)

        def fetch(job) -> bytes:
            clock.sleep(ratio * COMPUTE_S)
            return b"chunk"

        core = kind(0, prefetch=True)
        prefetcher = Prefetcher(acquire, fetch, clock=clock)
        todo = deque(core.start(clock.monotonic()))
        try:
            while todo or not core.finished:
                if not todo:
                    fetched, _ = prefetcher.take(timeout=1e6)
                    todo.extend(core.step(fetched, clock.monotonic()))
                    continue
                action = todo.popleft()
                if isinstance(action, Request):
                    prefetcher.request()
                elif isinstance(action, Reduce):
                    widest = max(widest, core.window)
                    try:
                        # Compute: time passes only once every stage is parked.
                        clock.wait(_NOTHING, COMPUTE_S)
                    except queue.Empty:
                        pass
                    todo.extend(core.step(Reduced(action.job), clock.monotonic()))
        finally:
            prefetcher.close()
        return clock.monotonic(), widest


def window_table() -> list[dict]:
    rows = []
    for ratio in RATIOS:
        fixed = {w: window_makespan(ratio, w)[0] for w in FIXED_WINDOWS}
        sized, widest = window_makespan(ratio, None)
        rows.append(
            {"ratio": ratio, "fixed": fixed, "self": sized, "widest": widest}
        )
    return rows


def render_window_rows(rows) -> str:
    out = [
        f"prefetch window: virtual seconds for {WINDOW_JOBS} jobs of "
        f"{COMPUTE_S:g} s compute",
        f"{'fetch/compute':>14} "
        + " ".join(f"{'W=' + str(w):>8}" for w in FIXED_WINDOWS)
        + f" {'self-sized':>11} {'(widest)':>9} {'vs best':>8}",
    ]
    for r in rows:
        best = min(r["fixed"].values())
        out.append(
            f"{r['ratio']:>14g} "
            + " ".join(f"{r['fixed'][w]:>8.1f}" for w in FIXED_WINDOWS)
            + f" {r['self']:>11.1f} {r['widest']:>9} "
            f"{(r['self'] / best - 1) * 100:>+7.1f}%"
        )
    return "\n".join(out)


def check_window_rows(rows) -> None:
    for r in rows:
        best = min(r["fixed"].values())
        assert r["self"] <= 1.15 * best, r
    # A fetch that costs nothing never widens the window.
    assert rows[0]["widest"] == 1, rows[0]


def test_self_sized_window_tracks_best_fixed_window():
    rows = window_table()
    print_block(render_window_rows(rows))
    check_window_rows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny dataset, same zero-remote-bytes assertions",
    )
    args = parser.parse_args(argv)
    units = 2048 if args.smoke else 8192
    latency = 0.002 if args.smoke else 0.004
    rows = run_iterations(units, 3, latency=latency)
    print(render_rows(rows))
    check_rows(rows)
    print("ok: iterations >= 2 fetched zero remote bytes and were faster")
    windows = window_table()
    print(render_window_rows(windows))
    check_window_rows(windows)
    print("ok: self-sized window within 15% of the best fixed window")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
