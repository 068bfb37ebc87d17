"""Benchmarks of the observability layer — including its *absence*.

The acceptance bound for the unified observability layer: with tracing
disabled, the instrumentation hooks must be free. Every emission site is
an attribute load plus an ``is not None`` test, so the cost of a
disabled hook is measured directly here, scaled by a generous estimate
of hook executions in the smallest micro-bench configuration (the
960-job head-scheduler conversation of ``bench_micro.py``), and asserted
to stay under 2 % of that bench's measured wall time.

Also measures the enabled paths so their cost is a number, not a guess:
``EventLog.emit`` (lock + stamp + append) and ``to_perfetto`` over a
realistic-size log.
"""

from __future__ import annotations

import timeit

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
from repro.core.index import build_index
from repro.core.scheduler import HeadScheduler
from repro.data.dataset import build_dataset
from repro.obs import EventLog, RunMonitor, to_perfetto
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore


def drive_scheduler(trace=None) -> int:
    """The bench_micro 960-job conversation, optionally traced."""
    spec = DatasetSpec.paper(record_bytes=4)
    index = build_index(spec, PlacementSpec(0.5))
    sched = HeadScheduler(index.jobs(), MiddlewareTuning(), trace=trace)
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


def test_disabled_hook_overhead_under_two_percent():
    """The no-op hook path costs < 2 % of the smallest micro-bench."""
    # Per-check cost of the attribute-load + None-test gate — the exact
    # disabled-path shape at every emission site (`trace` is an instance
    # attribute set in __init__; the slave hot loop additionally hoists
    # it to a local). Measured as a timeit statement with the bare loop
    # subtracted, so the number is the guard itself, not Python call
    # overhead around it.
    setup = "class C:\n    def __init__(self): self.trace = None\nc = C()"
    checks = 200_000
    reps = 5
    t_guard = min(
        timeit.timeit("if c.trace is not None: pass", setup=setup,
                      number=checks)
        for _ in range(reps)
    )
    t_loop = min(
        timeit.timeit("pass", number=checks) for _ in range(reps)
    )
    per_check = max(0.0, t_guard - t_loop) / checks

    # Wall time of the smallest bench_micro configuration, untraced.
    best = min(
        timeit.timeit(drive_scheduler, number=1) for _ in range(reps)
    )

    # A 960-job run executes ~5 hooks per job (fetch/compute start+end,
    # job_done) plus per-group control-plane hooks; budget 10 per job to
    # be generous.
    hooks_per_run = 960 * 10
    overhead = per_check * hooks_per_run
    fraction = overhead / best
    assert fraction < 0.02, (
        f"disabled trace hooks cost {fraction * 100:.2f}% of the "
        f"scheduler micro-bench ({overhead * 1e6:.0f}us over {best * 1e3:.1f}ms)"
    )


def _wordcount_runtime(units: int, *, monitor: RunMonitor | None = None):
    bundle = make_bundle("wordcount", units)
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
    return CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        monitor=monitor,
    )


def test_monitor_overhead_under_two_percent():
    """The live run monitor must be invisible: disabled (the default) the
    driver constructs no machinery at all, and an *enabled* monitor at a
    realistic interval costs < 2 % of any run long enough for a ratio to
    mean something (>= 0.25 s; on a ~4 ms run one sampler-thread start
    decides a ratio, which is why this no longer asserts one there).

    The cost has two parts and each is bounded where it can be measured:
    the fixed start/stop (sampler thread, probe closure, sample ring) by
    paired min-of-reps timing with alternating order on the small run —
    same discipline as bench_sync's default-spec bound — at <= 1 ms a
    run; the per-sample cost by timing the bound monitor's own
    ``sample_now``. A paired wall-clock ratio on a 0.3 s run was tried
    and cannot resolve 2 %: adjacent runs differ by -21 % .. +39 % on a
    shared 2-core machine while the true overhead is ~0 (see CHANGES.md,
    PR 23)."""
    interval, long_run = 0.02, 0.25
    units = 16384
    bare = _wordcount_runtime(units)
    assert bare.monitor is None  # disabled-by-default builds nothing
    monitor = RunMonitor(interval)
    monitored = _wordcount_runtime(units, monitor=monitor)

    reps, number = 8, 2
    bare_times, monitored_times = [], []
    for i in range(reps):
        pair = [("bare", bare), ("monitored", monitored)]
        if i % 2:
            pair.reverse()
        for label, runtime in pair:
            t = timeit.timeit(runtime.run, number=number)
            (bare_times if label == "bare" else monitored_times).append(t)
    t_bare = min(bare_times) / number
    t_monitored = min(monitored_times) / number
    assert monitor.samples_taken > 0  # it really sampled
    fixed = t_monitored - t_bare
    # The monitor stays bound to its last pass's probe: one sample's cost.
    per_sample = min(timeit.repeat(monitor.sample_now, number=1000, repeat=5)) / 1000
    overhead = (max(fixed, 0.0) + per_sample * long_run / interval) / long_run
    print(f"\nmonitor overhead: bare {t_bare * 1e3:.2f}ms, "
          f"monitored {t_monitored * 1e3:.2f}ms -> {fixed * 1e3:+.3f}ms a run "
          f"fixed, {per_sample * 1e6:.1f}us a sample -> "
          f"{overhead * 100:.2f}% of a {long_run:g}s run")
    assert fixed <= 1e-3, (
        f"monitor start/stop costs {fixed * 1e3:.2f}ms a run "
        f"({t_bare * 1e3:.2f}ms -> {t_monitored * 1e3:.2f}ms)"
    )
    assert overhead < 0.02, (
        f"enabled monitor costs {overhead * 100:.2f}% of a {long_run:g}s run"
    )


def test_traced_scheduler_still_correct():
    trace = EventLog()
    assert drive_scheduler(trace) == 960
    # The alternating-cluster conversation steals whenever a cluster's own
    # files run dry; every steal is in the log.
    for event in trace.of_kind("steal"):
        assert event.cluster in ("a", "b")


@pytest.mark.benchmark(group="obs")
def test_obs_emit_throughput(benchmark):
    """Locked, stamped append into the shared event log."""
    log = EventLog()
    log.start()

    benchmark(lambda: log.emit("job_done", worker=0, job_id=1))
    assert len(log) > 0


@pytest.mark.benchmark(group="obs")
def test_obs_perfetto_export(benchmark):
    """Converting a 4k-interval log to a Perfetto document."""
    log = EventLog()
    t = 0.0
    for job in range(2000):
        worker = job % 8
        log.record(t, "fetch_start", worker=worker, job_id=job)
        log.record(t + 0.01, "fetch_end", worker=worker, job_id=job)
        log.record(t + 0.01, "compute_start", worker=worker, job_id=job)
        log.record(t + 0.03, "compute_end", worker=worker, job_id=job)
        log.record(t + 0.03, "job_done", worker=worker, job_id=job)
        t += 0.004

    doc = benchmark(lambda: to_perfetto(log))
    assert sum(1 for e in doc["traceEvents"] if e["ph"] == "X") == 4000
