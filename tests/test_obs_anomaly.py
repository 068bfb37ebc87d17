"""Tests for robust straggler detection (repro.obs.anomaly)."""

from __future__ import annotations

import math

import pytest

import repro
from repro.config import DatasetSpec
from repro.obs import (
    EventLog,
    detect_stragglers,
    render_stragglers,
)


def exec_log(latencies) -> EventLog:
    """One job per worker, each with the given execution latency."""
    log = EventLog()
    for worker, latency in enumerate(latencies):
        log.record(0.0, "fetch_start", worker=worker, job_id=worker,
                   file_id=worker, cluster="a")
        log.record(0.0, "fetch_end", worker=worker, job_id=worker,
                   file_id=worker, cluster="a")
        log.record(0.0, "compute_start", worker=worker, job_id=worker,
                   cluster="a")
        log.record(latency, "compute_end", worker=worker, job_id=worker,
                   cluster="a")
    return log


def test_too_few_jobs_says_nothing():
    report = detect_stragglers(exec_log([1.0, 9.0, 1.0]))
    assert report.jobs_seen == 3
    assert math.isinf(report.threshold)
    assert report.stragglers == ()
    assert report.flagged == ()


def test_uniform_fleet_is_clean():
    """Zero variance must not flag anyone: the relative floor absorbs it."""
    report = detect_stragglers(exec_log([1.0] * 8))
    assert report.median == 1.0 and report.mad == 0.0
    assert report.threshold == pytest.approx(1.0 + 3.0 * 0.05)
    assert report.stragglers == ()


def test_single_outlier_is_flagged():
    report = detect_stragglers(exec_log([1.0] * 7 + [3.0]))
    assert len(report.stragglers) == 1
    straggler = report.stragglers[0]
    assert straggler.worker == 7
    assert straggler.cluster == "a"
    assert straggler.jobs == (7,)
    assert straggler.worst_latency == pytest.approx(3.0)
    assert straggler.slowdown == pytest.approx(3.0)
    assert report.flagged[0].job_id == 7
    doc = report.to_dict()
    assert doc["stragglers"][0]["worker"] == 7
    assert doc["jobs_seen"] == 8


def test_mad_scales_the_threshold():
    """With real spread the MAD term wins over the relative floor, so a
    value just past the floor-only cut is *not* flagged."""
    latencies = [0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.4]
    report = detect_stragglers(exec_log(latencies))
    assert report.mad > 0.0
    assert report.threshold > report.median + 3.0 * 0.05 * report.median
    assert report.stragglers == ()


def test_render_stragglers_all_clear_and_flagged():
    clean = render_stragglers(detect_stragglers(exec_log([1.0] * 8)))
    assert "no stragglers flagged" in clean
    noisy = render_stragglers(detect_stragglers(exec_log([1.0] * 7 + [3.0])))
    assert "w007" in noisy
    assert "3.0x median" in noisy


# -- end to end: an injected latency fault is flagged in both substrates -----

DATASET = DatasetSpec(
    total_bytes=2048 * 4, num_files=4, chunk_bytes=512, record_bytes=4
)


def test_injected_latency_fault_flagged_in_simulator():
    trace = EventLog()
    result = repro.run(
        "wordcount",
        DATASET,
        repro.RunConfig(
            mode="simulate", trace=trace,
            resilience=repro.ResilienceOptions(faults="latency=0.1:25.0,seed=3"),
        ),
    )
    assert result.telemetry.faults_injected > 0
    report = detect_stragglers(trace)
    assert report.jobs_seen == 16
    assert report.stragglers, "seeded latency fault was not flagged"
    # The injected 25s stall dwarfs the sub-second healthy jobs.
    assert report.stragglers[0].slowdown > 5.0


def test_injected_latency_fault_flagged_in_runtime():
    trace = EventLog()
    result = repro.run(
        "wordcount",
        DATASET,
        repro.RunConfig(
            mode="runtime", trace=trace,
            resilience=repro.ResilienceOptions(faults="latency=0.12:0.4,seed=5"),
        ),
    )
    assert result.telemetry.faults_injected > 0
    report = detect_stragglers(trace)
    assert report.jobs_seen == 16
    assert report.stragglers, "seeded latency fault was not flagged"
    worst = max(s.worst_latency for s in report.stragglers)
    assert worst > 0.3  # the injected 0.4s sleep dominates ms-scale jobs
