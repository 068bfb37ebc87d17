"""Tests for live run-health monitoring (repro.obs.live)."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.apps import make_bundle
from repro.cache import ChunkCache
from repro.clock import FakeClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
)
from repro.data.dataset import build_dataset
from repro.errors import ConfigurationError, TraceError
from repro.obs import EventLog, RunMonitor, RunSample
from repro.options import ScaleOptions
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import MultiSiteSimulation
from repro.sim.simulation import two_site_config
from repro.storage.objectstore import ObjectStore


def make_sample(**overrides) -> RunSample:
    base = dict(
        time=2.0,
        jobs_total=10,
        jobs_done=4,
        pool_depth=3,
        in_flight=2,
        steals=1,
        workers=4,
        workers_busy=3,
        cache_hits=6,
        cache_misses=2,
        sync_bytes_sent=1024,
        remote_fetches=5,
        completion_rate=2.0,
        eta_seconds=3.0,
    )
    base.update(overrides)
    return RunSample(**base)


def test_sample_derived_ratios():
    sample = make_sample()
    assert sample.cache_hit_ratio == pytest.approx(6 / 8)
    assert sample.utilization == pytest.approx(3 / 4)
    assert sample.progress == pytest.approx(0.4)
    doc = sample.to_dict()
    assert doc["eta_seconds"] == 3.0
    assert doc["cache_hit_ratio"] == pytest.approx(6 / 8)


def test_sample_ratios_degrade_to_zero():
    idle = make_sample(
        jobs_total=0, jobs_done=0, workers=0, workers_busy=0,
        cache_hits=0, cache_misses=0, eta_seconds=None,
    )
    assert idle.cache_hit_ratio == 0.0
    assert idle.utilization == 0.0
    assert idle.progress == 0.0
    assert idle.to_dict()["eta_seconds"] is None


# -- RunMonitor ---------------------------------------------------------------


def test_monitor_rejects_bad_knobs():
    with pytest.raises(TraceError, match="interval"):
        RunMonitor(0.0)
    with pytest.raises(TraceError, match="interval"):
        RunMonitor(-1.0)
    with pytest.raises(TraceError, match="capacity"):
        RunMonitor(1.0, capacity=0)


def test_monitor_requires_probe():
    monitor = RunMonitor(1.0)
    with pytest.raises(TraceError, match="no probe"):
        monitor.sample_now()
    with pytest.raises(TraceError, match="no probe"):
        monitor.start()


def test_double_start_rejected():
    with FakeClock() as clock:
        monitor = RunMonitor(1.0, clock=clock)
        monitor.bind(lambda: {"jobs_total": 1})
        monitor.start()
        with pytest.raises(TraceError, match="already running"):
            monitor.start()
        monitor.stop()


def test_stop_ends_the_sampler_without_moving_the_clock():
    """The sampler waits on its stop queue through the clock: stop() hands
    it the item that ends the loop, and the closing sample is taken at the
    virtual instant stop() was called."""
    with FakeClock() as clock:
        monitor = RunMonitor(1.0, clock=clock)
        monitor.bind(lambda: {"jobs_total": 1})
        monitor.start()
        monitor.stop()
        assert clock.monotonic() == 0.0
    assert [s.time for s in monitor.samples()] == [0.0]
    assert "run-monitor" not in {t.name for t in threading.enumerate()}


def _drain(monitor: RunMonitor, clock: FakeClock, target: int) -> None:
    """Advance virtual time until the sampler has taken ``target`` samples."""
    deadline = time.monotonic() + 10.0
    while monitor.samples_taken < target:
        clock.advance(monitor.interval)
        time.sleep(0.005)
        assert time.monotonic() < deadline, "sampler never woke"


def test_monitor_samples_on_virtual_time():
    """The whole loop runs on a FakeClock: no real sleeps, exact derived
    rates, and stop() takes a closing sample."""
    state = {"jobs_total": 3, "jobs_done": 0, "workers": 2, "workers_busy": 2}
    seen: list[RunSample] = []
    with FakeClock() as clock:
        monitor = RunMonitor(1.0, clock=clock)
        monitor.bind(lambda: dict(state))
        monitor.subscribe(seen.append)
        monitor.start()
        for done in (1, 2, 3):
            state["jobs_done"] = done
            _drain(monitor, clock, target=len(seen) + 1)
        monitor.stop()
    samples = monitor.samples()
    assert samples[-1] is monitor.last
    assert len(samples) == len(seen) == monitor.samples_taken
    done_seq = [s.jobs_done for s in samples]
    assert done_seq[:1] == [1] and done_seq[-1] == 3
    assert all(a <= b for a, b in zip(done_seq, done_seq[1:]))
    times = [s.time for s in samples]
    assert times == sorted(times) and times[0] >= 1.0
    for sample in samples:
        # Virtual time makes the derived rate exact, not approximate.
        assert sample.completion_rate == pytest.approx(
            sample.jobs_done / sample.time
        )
        if sample.eta_seconds is not None:
            assert sample.eta_seconds == pytest.approx(
                (3 - sample.jobs_done) / sample.completion_rate
            )
    assert samples[-1].progress == 1.0
    assert monitor.callback_errors == 0


def test_raising_subscriber_is_counted_not_fatal():
    monitor = RunMonitor(1.0)
    monitor.bind(lambda: {"jobs_total": 4, "jobs_done": 2})

    def bad(sample: RunSample) -> None:
        raise RuntimeError("subscriber bug")

    good: list[RunSample] = []
    monitor.subscribe(bad)
    monitor.subscribe(good.append)
    sample = monitor.sample_now()
    assert monitor.callback_errors == 1
    assert good == [sample]
    monitor.unsubscribe(bad)
    monitor.sample_now()
    assert monitor.callback_errors == 1


def test_ring_keeps_only_newest_samples():
    monitor = RunMonitor(1.0, capacity=4)
    ticks = {"n": 0}

    def probe() -> dict:
        ticks["n"] += 1
        return {"jobs_total": 100, "jobs_done": ticks["n"]}

    monitor.bind(probe)
    for _ in range(7):
        monitor.sample_now()
    samples = monitor.samples()
    assert len(samples) == 4
    assert [s.jobs_done for s in samples] == [4, 5, 6, 7]  # oldest dropped
    assert monitor.samples_taken == 7


# -- facade integration -------------------------------------------------------

DATASET = DatasetSpec(
    total_bytes=2048 * 4, num_files=4, chunk_bytes=512, record_bytes=4
)


def test_facade_monitor_knob_validation():
    with pytest.raises(ConfigurationError, match=r"monitor\.interval"):
        repro.MonitorOptions(interval=-1.0)
    with pytest.raises(ConfigurationError, match=r"monitor\.capacity"):
        repro.MonitorOptions(capacity=0)
    with pytest.raises(ConfigurationError, match="on_sample"):
        repro.MonitorOptions(on_sample=lambda s: None)


def test_facade_runtime_monitoring():
    seen: list[RunSample] = []
    result = repro.run(
        "wordcount",
        DATASET,
        repro.RunConfig(
            mode="runtime",
            monitor=repro.MonitorOptions(interval=0.02, on_sample=seen.append),
        ),
    )
    assert result.samples, "runtime monitor took no samples"
    assert seen == result.samples
    final = result.samples[-1]
    assert final.progress == 1.0
    assert final.jobs_total == 16
    assert final.workers > 0


def test_facade_simulate_monitoring():
    seen: list[RunSample] = []
    result = repro.run(
        "wordcount",
        DATASET,
        repro.RunConfig(
            mode="simulate",
            monitor=repro.MonitorOptions(interval=1.0, on_sample=seen.append),
        ),
    )
    assert result.samples and seen == result.samples
    final = result.samples[-1]
    assert final.progress == 1.0
    assert final.time == pytest.approx(result.telemetry.makespan)
    # Both substrates speak the same sample vocabulary.
    runtime_keys = set(
        repro.run(
            "wordcount", DATASET,
            repro.RunConfig(
                mode="runtime", monitor=repro.MonitorOptions(interval=0.02)
            ),
        ).samples[-1].to_dict()
    )
    assert set(final.to_dict()) == runtime_keys


def test_facade_serial_mode_takes_no_samples():
    result = repro.run(
        "wordcount", DATASET, repro.RunConfig(mode="serial")
    )
    assert result.samples == []


def test_runtime_samples_each_pass_alone():
    """The cache and the sync codec outlive a pass, so they count across
    passes: each pass's closing sample reads their movement over that
    pass, as the pass's telemetry does, beside the per-pass
    ``remote_fetches`` (one per cache miss)."""
    bundle = make_bundle("kmeans", 8192)
    record = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=8192 * record, num_files=8, chunk_bytes=512,
        record_bytes=record,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(0.25), bundle.schema, bundle.block_fn, stores
    )
    monitor = RunMonitor(0.5)
    with CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        cache=ChunkCache(1 << 20), monitor=monitor,
    ) as runtime:
        for _ in range(2):  # a cold pass, then a warm one
            telemetry = runtime.run().telemetry
            closing = monitor.last
            for name in ("cache_hits", "cache_misses", "sync_bytes_sent"):
                assert getattr(closing, name) == getattr(telemetry, name), name
            assert closing.remote_fetches == closing.cache_misses
            assert closing.sync_bytes_sent > 0


# -- simulate mode: the simulator samples its own state ------------------------

SIM_DATASET = DatasetSpec(
    total_bytes=131072, num_files=8, chunk_bytes=512, record_bytes=4
)
PLACEMENT = PlacementSpec(0.25)
COUNTERS = (
    "jobs_done", "steals", "cache_hits", "cache_misses",
    "sync_bytes_sent", "remote_fetches",
)


def simulate(**overrides) -> repro.RunResult:
    options = dict(
        mode="simulate",
        placement=PLACEMENT,
        monitor=repro.MonitorOptions(interval=0.5),
    )
    options.update(overrides)
    return repro.run("kmeans", SIM_DATASET, repro.RunConfig(**options))


def test_simulate_samples_count_up_in_virtual_time():
    trace = EventLog()
    result = simulate(trace=trace, cache=repro.CacheOptions(bytes=1 << 20))
    samples, report = result.samples, result.telemetry
    # The simulator stamps the cache's events; the cache stamps none.
    lookups = trace.of_kind("cache_hit") + trace.of_kind("cache_miss")
    assert len(lookups) == report.cache_hits + report.cache_misses
    assert all(0.0 <= e.time <= report.makespan for e in lookups)
    for sample in samples:  # and both clocks are the pass's virtual time
        so_far = sum(e.time <= sample.time for e in lookups)
        assert so_far == sample.cache_hits + sample.cache_misses
    assert len(samples) > 2
    assert all(0 < s.time <= report.makespan for s in samples)
    for name in COUNTERS:
        values = [getattr(s, name) for s in samples]
        assert values == sorted(values), name
    final = samples[-1]
    assert final.time == report.makespan  # the closing sample
    assert final.jobs_done == final.jobs_total == 256
    assert final.cache_hits == report.cache_hits
    assert final.cache_misses == report.cache_misses > 0
    assert final.remote_fetches == final.cache_misses
    # Mid-run samples see the misses so far, not the whole pass's.
    assert samples[0].cache_misses < final.cache_misses


@pytest.mark.parametrize("revocation", [None, "rate=0.6,seed=42"])
@pytest.mark.parametrize("mode", ["runtime", "simulate"])
def test_closing_sample_reads_every_worker_idle(mode, revocation):
    """Both engines bind one probe. The closing sample comes after the
    last job, so nothing is in flight and no worker is busy, and
    ``workers`` is the masters' active slaves: the crew of four less
    every revoked one, not the threads or processes still alive."""
    options = dict(
        compute=ComputeSpec(local_cores=2, cloud_cores=2),
        scale=ScaleOptions(revocation=revocation),
    )
    if mode == "simulate":
        result = simulate(**options)
    else:
        result = repro.run(
            "wordcount", DATASET,
            repro.RunConfig(
                mode="runtime", placement=PLACEMENT,
                monitor=repro.MonitorOptions(interval=0.02), **options,
            ),
        )
    ledger = result.telemetry
    final = result.samples[-1]
    assert (final.in_flight, final.workers_busy) == (0, 0)
    assert final.workers == 4 - ledger.slaves_revoked
    assert final.jobs_done >= final.jobs_total
    if mode == "simulate" and revocation is not None:
        assert ledger.slaves_revoked > 0


def test_simulate_sync_bytes_are_the_codecs_wire_bytes():
    config = repro.RunConfig(
        placement=PLACEMENT, compute=ComputeSpec(local_cores=2, cloud_cores=2),
    )
    monitor = RunMonitor(0.5)
    sim = MultiSiteSimulation(
        two_site_config("kmeans", SIM_DATASET, config), monitor=monitor
    )
    report = sim.run()
    wire = sim.head.core.receipts.codec.stats.wire_bytes
    assert wire > 0
    assert monitor.last.sync_bytes_sent == wire
    assert monitor.last.time == report.makespan
    # The facade's run of the same experiment samples the same bytes.
    assert simulate().samples[-1].sync_bytes_sent == wire


def test_simulate_samples_every_pass_from_zero():
    result = simulate(iterations=2)  # no trace needed
    times = [s.time for s in result.samples]
    restart = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
    assert times[0] == times[restart] == 0.5
    # Without a cache both passes are the same pass.
    assert result.samples[:restart] == result.samples[restart:]
    assert result.samples[restart - 1].progress == 1.0


def test_simulate_monitor_keeps_capacity_samples():
    result = simulate(monitor=repro.MonitorOptions(interval=0.5, capacity=3))
    assert len(result.samples) == 3
    assert result.samples[-1].time == result.telemetry.makespan


def test_simulate_monitor_changes_no_modeled_time():
    plain = simulate(monitor=repro.MonitorOptions()).telemetry
    watched = simulate().telemetry
    assert watched.makespan == plain.makespan
    assert watched.clusters == plain.clusters
    # The sampler is a simulation process: its ticks are events too.
    assert watched.events_processed > plain.events_processed
