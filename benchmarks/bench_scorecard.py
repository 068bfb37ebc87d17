"""Capstone bench — the reproduction scorecard and the perf snapshot.

Two artifacts live here:

* **Claim scorecard** (``test_scorecard``) — runs the complete evaluation
  (Figure 3 + Figure 4 for all three applications) and grades every claim
  the paper makes; fails if any claim fails.
* **Perf-regression snapshot** (``main``) — collects the repo's headline
  performance numbers into one machine-readable document: figure-3
  makespans, the chunk cache's second-pass payoff and the sync stack's
  WAN-byte cut. CI runs
  ``python bench_scorecard.py --smoke --json BENCH_scorecard.json --check``
  and fails when any deterministic metric differs from the committed
  ``BENCH_baseline.json``. Regenerate the baseline with
  ``--smoke --write-baseline`` after an intentional perf change.

The gated sections (figure3 / cache / sync / zero_copy) are simulator
makespans, byte counts, and data-path read accounting — deterministic
for a given seed, so they are gated at equality with the baseline's
stored (3-decimal) values. The ``service`` section is wall clock and
therefore never compared against the baseline, but carries its own hard
bound inside the collector: a ``JobService`` submission's ceremony must
stay within 2 % of a ``repro.run()``.
"""

from __future__ import annotations

import argparse
import json
import os
import timeit

import pytest

from repro.bench.configs import env_config
from repro.bench.experiments import run_figure3
from repro.bench.artifacts import evaluate_claims, render_scorecard
from repro.cache import ChunkCache
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.sync import SyncSpec
from repro.apps import make_bundle
from repro.data.dataset import build_dataset
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import MultiSiteSimulation
from repro.sim.simulation import two_site_config
from repro.storage.objectstore import ObjectStore

from conftest import print_block

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")

#: Snapshot sections that are wall-clock measurements: recorded for the
#: artifact, never compared against the baseline. (The ``service``
#: section's <2% overhead bound is asserted inside its collector — wall
#: clock is gated at collection time, not against the baseline.)
INFORMATIONAL = ("service",)

#: Recorded but not compared: the threaded runtime's float-summation
#: order moves the compressed size a few bytes run to run (5494-5503
#: observed against the baseline's 5498). ``sync.cut`` — the same
#: quantity as a 2-decimal ratio — is stable and is the gate.
UNGATED_KEYS = ("sync.wire_bytes",)


@pytest.mark.benchmark(group="scorecard")
def test_scorecard(benchmark):
    claims = benchmark.pedantic(evaluate_claims, rounds=1, iterations=1)
    print_block(render_scorecard(claims))
    failed = [c for c in claims if not c.passed]
    assert not failed, f"failed claims: {[c.claim_id for c in failed]}"
    # Sanity: the scorecard actually covers the whole evaluation.
    assert len(claims) >= 15


# -- snapshot collection -----------------------------------------------------


def collect_figure3(*, scale: float, seed: int) -> dict:
    """Knn makespans per environment — the headline sim numbers."""
    run = run_figure3("knn", scale=scale, seed=seed)
    return {
        env: round(report.makespan, 3) for env, report in run.reports.items()
    }


def collect_cache(*, scale: float, seed: int) -> dict:
    """Two kmeans passes over one chunk cache: pass 2 pays no WAN reads."""
    dataset, config = env_config("kmeans", "env-33/67", scale=scale, seed=seed)
    sim = MultiSiteSimulation(
        two_site_config("kmeans", dataset, config), cache=ChunkCache(1 << 34)
    )
    first = sim.run()
    second = sim.run()
    assert second.cache_hits > 0, "second pass never hit the cache"
    assert second.makespan < first.makespan, (
        "cached second pass should beat the cold first pass"
    )
    return {
        "pass1_makespan": round(first.makespan, 3),
        "pass2_makespan": round(second.makespan, 3),
        "pass2_hits": second.cache_hits,
        "pass2_misses": second.cache_misses,
    }


def collect_sync(*, units: int, iterations: int, seed: int) -> dict:
    """Iterative pagerank through delta+zlib: cumulative WAN-byte cut.

    Stealing is disabled so each cluster's reduction object covers a fixed
    job set — the wire byte count then only wobbles with float-summation
    order (see ``UNGATED_KEYS``); the dense count and the cut are exact.
    """
    bundle = make_bundle("pagerank", units, seed=seed)
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
        tuning=MiddlewareTuning(
            units_per_group=max(units // 16, 256), allow_stealing=False
        ),
        sync=SyncSpec(encoding="delta", compress="zlib"),
        seed=seed,
    )
    wire = dense = 0
    for _ in range(iterations):
        result = runtime.run()
        t = result.telemetry
        wire += t.sync_bytes_sent
        dense += t.sync_bytes_sent + t.sync_bytes_saved
        bundle.app.update(result.value)
    assert wire > 0 and dense > wire
    return {
        "iterations": iterations,
        "wire_bytes": wire,
        "dense_bytes": dense,
        "cut": round(dense / wire, 2),
    }


def collect_zero_copy(*, units: int, seed: int) -> dict:
    """Data-path read accounting — deterministic, gated.

    Two probes: a no-steal runtime run (every read same-site, so the
    whole pass must be served as views), and a serial two-pass cached
    run (pass 2's cloud chunks come back as cache hits). Both are exact
    integer counts for a given config.
    """
    import repro

    spec = DatasetSpec(
        total_bytes=units * 8,
        num_files=4,
        chunk_bytes=(units // 16) * 8,
        record_bytes=8,
    )
    hot = repro.run(
        "histogram", spec,
        repro.RunConfig(
            mode="runtime", seed=seed,
            tuning=MiddlewareTuning(allow_stealing=False),
        ),
    ).telemetry
    assert hot.bytes_copied == 0, "hot read loop copied bytes"
    assert hot.zero_copy_reads == hot.total_jobs
    cached = repro.run(
        "histogram", spec,
        repro.RunConfig(mode="serial", seed=seed, iterations=1,
                        cache=repro.CacheOptions(bytes=1 << 30)),
    ).telemetry
    return {
        "hot_loop_reads": hot.zero_copy_reads,
        "hot_loop_bytes_copied": hot.bytes_copied,
        "serial_view_reads": cached.zero_copy_reads,
        "serial_bytes_copied": cached.bytes_copied,
    }


def collect_service(*, units: int, seed: int) -> dict:
    """Single-tenant service overhead — wall clock, gated at collection.

    A :class:`~repro.service.JobService` executes each submission through
    ``repro.run``; its admission/queue/handle machinery must be noise
    next to a real run. The gate isolates the two terms so machine
    jitter in the multi-millisecond engine run cannot mask (or fake) a
    regression in the microsecond-scale ceremony:

    * ``ceremony_us`` — one submission to an inline service with a no-op
      executor: service construction, admission, fair-share dispatch,
      handle resolution, drain, shutdown. Exactly what the service adds.
    * ``direct_ms`` — a real serial histogram run through ``repro.run``.

    The hard bound asserts ceremony < 2 % of the real run.
    """
    import repro
    from repro.service import JobService

    spec = DatasetSpec(
        total_bytes=units * 8,
        num_files=4,
        chunk_bytes=(units // 16) * 8,
        record_bytes=8,
    )
    config = repro.RunConfig(mode="serial", seed=seed)
    direct = lambda: repro.run("histogram", spec, config)  # noqa: E731

    def ceremony():
        with JobService(workers=0, executor=lambda *a: None) as service:
            service.submit("histogram", spec, config).result()

    for _ in range(3):  # warm caches before any timed pass
        direct()

    reps = 7
    t_ceremony = min(
        timeit.timeit(ceremony, number=20) / 20 for _ in range(reps)
    )
    t_direct = min(timeit.timeit(direct, number=3) / 3 for _ in range(reps))
    overhead = t_ceremony / t_direct
    assert overhead < 0.02, (
        f"service ceremony costs {overhead * 100:.2f}% of a direct run "
        f"({t_ceremony * 1e6:.0f}us over {t_direct * 1e3:.2f}ms); "
        f"bound is 2%"
    )
    return {
        "ceremony_us": round(t_ceremony * 1e6, 2),
        "direct_ms": round(t_direct * 1e3, 3),
        "overhead_pct": round(overhead * 100, 3),
    }


def collect_snapshot(*, smoke: bool, seed: int) -> dict:
    """The full perf snapshot. ``smoke`` shrinks every workload; the
    committed baseline is a smoke snapshot, so CI compares like for like
    (the ``config`` section is checked for equality before any metric)."""
    scale = 0.05 if smoke else 1.0
    sync_units, sync_iters = (8192, 2) if smoke else (65536, 8)
    zero_copy_units = 2048 if smoke else 16384
    # Big enough that one serial run is ~15ms — the per-call service
    # machinery is ~0.1ms, so anything smaller can't resolve a 2% bound.
    service_units = 65536 if smoke else 262144
    return {
        "config": {
            "smoke": smoke,
            "seed": seed,
            "scale": scale,
            "sync_units": sync_units,
            "sync_iterations": sync_iters,
            "zero_copy_units": zero_copy_units,
            "service_units": service_units,
        },
        "figure3": collect_figure3(scale=scale, seed=seed),
        "cache": collect_cache(scale=scale, seed=seed),
        "sync": collect_sync(
            units=sync_units, iterations=sync_iters, seed=seed
        ),
        "zero_copy": collect_zero_copy(units=zero_copy_units, seed=seed),
        "service": collect_service(units=service_units, seed=seed),
    }


# -- baseline comparison -----------------------------------------------------


def flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, f"{path}."))
        else:
            out[path] = value
    return out


def compare(current: dict, baseline: dict) -> list[str]:
    """Drift report: one line per gated metric that differs; empty = pass.

    Informational sections are skipped; the ``config`` section must match
    exactly (comparing a smoke snapshot against a full-scale baseline is a
    harness bug, not a regression).
    """
    problems = []
    if current.get("config") != baseline.get("config"):
        problems.append(
            f"snapshot config mismatch: {current.get('config')} vs "
            f"baseline {baseline.get('config')}"
        )
        return problems
    cur = flatten(current)
    for key, base_value in sorted(flatten(baseline).items()):
        section = key.split(".", 1)[0]
        if section in INFORMATIONAL or section == "config" or key in UNGATED_KEYS:
            continue
        value = cur.get(key)
        if value is None:
            problems.append(f"{key}: missing from current snapshot")
            continue
        if value != base_value:
            problems.append(f"{key}: {value!r} != baseline {base_value!r}")
    return problems


def render_snapshot(doc: dict) -> str:
    lines = []
    for section, values in doc.items():
        if section == "config":
            continue
        tag = " (informational)" if section in INFORMATIONAL else ""
        lines.append(f"{section}{tag}:")
        for key, value in values.items():
            lines.append(f"  {key:<22} {value}")
    return "\n".join(lines)


# -- unit tests for the comparison harness (cheap, no workloads) -------------


def test_compare_passes_identical_snapshots():
    doc = {"config": {"smoke": True}, "figure3": {"env-local": 100.0}}
    assert compare(doc, doc) == []


def test_compare_flags_any_drift():
    base = {"config": {"smoke": True}, "figure3": {"env-local": 13.742}}
    worse = {"config": {"smoke": True}, "figure3": {"env-local": 13.743}}
    assert compare(worse, base) == ["figure3.env-local: 13.743 != baseline 13.742"]


def test_compare_skips_informational_and_checks_config():
    base = {"config": {"smoke": True}, "service": {"direct_ms": 1.0}}
    fast = {"config": {"smoke": True}, "service": {"direct_ms": 99.0}}
    assert compare(fast, base) == []
    full = {"config": {"smoke": False}, "service": {"direct_ms": 1.0}}
    assert compare(full, base)  # config mismatch is always a failure


def test_compare_reports_missing_metric():
    base = {"config": {}, "cache": {"pass2_hits": 320}}
    assert compare({"config": {}, "cache": {}}, base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workloads (the committed baseline is a smoke run)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the snapshot to PATH as JSON"
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=BASELINE_PATH,
        help="baseline snapshot to compare against (default: committed)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any gated metric differs from the baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="overwrite the baseline with this run's snapshot",
    )
    parser.add_argument("--seed", type=int, default=2011)
    args = parser.parse_args(argv)

    snapshot = collect_snapshot(smoke=args.smoke, seed=args.seed)
    print(render_snapshot(snapshot))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"wrote baseline {args.baseline}")
        return 0
    if args.check:
        if not os.path.isfile(args.baseline):
            print(f"error: no baseline at {args.baseline} "
                  f"(run with --write-baseline first)")
            return 1
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = compare(snapshot, baseline)
        if problems:
            print(f"\nFAIL: {len(problems)} metric(s) drifted from baseline:")
            for line in problems:
                print(f"  {line}")
            return 1
        print("\nok: every gated metric equals the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
