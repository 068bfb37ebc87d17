"""Tests for live run-health monitoring (repro.obs.live)."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.clock import FakeClock
from repro.config import DatasetSpec
from repro.errors import ConfigurationError, TraceError
from repro.obs import EventLog, RunMonitor, RunSample, samples_from_log


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


# -- samples_from_log (the simulator's path) ---------------------------------


def traced_run_log() -> EventLog:
    log = EventLog()
    log.record(0.0, "group_assigned", cluster="a",
               detail="group 0 x4 (0 other readers)")
    log.record(0.2, "fetch_start", worker=0, job_id=0, file_id=0, cluster="a")
    log.record(0.25, "cache_miss", file_id=0, detail="chunk 0")
    log.record(0.3, "remote_fetch", worker=0, file_id=0, cluster="a")
    log.record(0.4, "fetch_end", worker=0, job_id=0, file_id=0, cluster="a")
    log.record(0.4, "compute_start", worker=0, job_id=0, cluster="a")
    log.record(0.5, "steal", cluster="b", file_id=3, detail="group 1 x1")
    log.record(0.9, "compute_end", worker=0, job_id=0, cluster="a")
    log.record(0.9, "job_done", worker=0, job_id=0, cluster="a")
    log.record(1.0, "fetch_start", worker=0, job_id=1, file_id=1, cluster="a")
    log.record(1.05, "cache_hit", file_id=1, detail="chunk 1")
    log.record(1.2, "fetch_end", worker=0, job_id=1, file_id=1, cluster="a")
    log.record(1.2, "compute_start", worker=0, job_id=1, cluster="a")
    log.record(1.8, "compute_end", worker=0, job_id=1, cluster="a")
    log.record(1.8, "job_done", worker=0, job_id=1, cluster="a")
    log.record(2.0, "sync_upload", cluster="a", detail="sparse+zlib 128/512B 0.4ms")
    return log


def test_samples_from_log_reconstructs_gauges():
    samples = samples_from_log(traced_run_log(), 1.0)
    assert [s.time for s in samples] == [1.0, 2.0]  # ticks + final at makespan

    mid, end = samples
    assert mid.jobs_total == end.jobs_total == 2
    assert mid.jobs_done == 1 and end.jobs_done == 2
    assert mid.in_flight == 1 and end.in_flight == 0  # job 1 started, not done
    assert mid.pool_depth == 2  # 4 assigned - 2 started
    assert mid.steals == end.steals == 1
    assert mid.cache_hits == 0 and end.cache_hits == 1
    assert mid.cache_misses == 1
    assert mid.remote_fetches == 1
    assert mid.sync_bytes_sent == 0 and end.sync_bytes_sent == 128  # wire bytes
    assert mid.workers == 1
    assert mid.workers_busy == 1  # inside job 1's fetch at t=1.0
    assert end.workers_busy == 0
    assert mid.completion_rate == pytest.approx(1.0)
    assert mid.eta_seconds == pytest.approx(1.0)
    assert end.progress == 1.0


def test_samples_from_log_prefetch_fallback():
    """A pipelined trace has no fetch events; started falls back to done."""
    log = EventLog()
    for job in range(2):
        log.record(job + 0.1, "compute_start", worker=0, job_id=job)
        log.record(job + 0.9, "compute_end", worker=0, job_id=job)
        log.record(job + 0.9, "job_done", worker=0, job_id=job)
    samples = samples_from_log(log, 1.0)
    assert [s.in_flight for s in samples] == [0, 0]
    assert samples[-1].jobs_done == 2


def test_samples_from_log_edge_cases():
    assert samples_from_log(EventLog(), 1.0) == []
    with pytest.raises(TraceError, match="interval"):
        samples_from_log(traced_run_log(), 0.0)


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
    with pytest.raises(ConfigurationError, match="trace"):
        repro.RunConfig(
            mode="simulate", monitor=repro.MonitorOptions(interval=1.0)
        )


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


def test_facade_simulate_monitoring_replays_the_trace():
    trace = EventLog()
    seen: list[RunSample] = []
    result = repro.run(
        "wordcount",
        DATASET,
        repro.RunConfig(
            mode="simulate",
            trace=trace,
            monitor=repro.MonitorOptions(interval=1.0, on_sample=seen.append),
        ),
    )
    assert result.samples and seen == result.samples
    final = result.samples[-1]
    assert final.progress == 1.0
    assert final.time == pytest.approx(result.sim_report.makespan)
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
