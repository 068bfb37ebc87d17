"""Executable version of docs/TUTORIAL.md — keeps the tutorial honest.

Each test mirrors one tutorial step verbatim (modulo smaller sizes); if
an API change breaks the walkthrough, this file fails before a user hits
it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    CLOUD_SITE,
    LOCAL_SITE,
    CloudBurstingRuntime,
    ComputeSpec,
    DatasetSpec,
    GeneralizedReductionApp,
    PlacementSpec,
    env_config,
    simulate,
)
from repro.core.reduction import ScalarReduction
from repro.data import build_dataset, mixture_values
from repro.data.dataset import DatasetReader
from repro.data.records import VALUE_SCHEMA
from repro.storage import ObjectStore


class AboveThreshold(GeneralizedReductionApp):
    """The tutorial's step-1 application."""

    name = "above"

    def __init__(self, threshold: float):
        self.threshold = threshold

    def create_reduction_object(self):
        return ScalarReduction("sum")

    def local_reduction(self, robj, units):
        robj.add(float((units.ravel() > self.threshold).sum()))

    def decode_chunk(self, raw):
        return VALUE_SCHEMA.decode(raw)


@pytest.fixture(scope="module")
def tutorial_dataset():
    spec = DatasetSpec(total_bytes=4096 * 8, num_files=8,
                       chunk_bytes=128 * 8, record_bytes=8)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(local_fraction=0.25), VALUE_SCHEMA,
        lambda start, count, i: mixture_values(count, seed=start),
        stores,
    )
    return spec, index, stores


def test_step2_dataset_built_with_checksums(tutorial_dataset):
    spec, index, stores = tutorial_dataset
    assert index.num_chunks == spec.num_chunks
    assert all(e.checksum is not None for e in index.files)
    assert DatasetReader(index, stores).verify_all() == 8


def test_step3_run_with_bursting(tutorial_dataset):
    spec, index, stores = tutorial_dataset
    stolen = threading.Event()

    def hold_cloud_until_local_steals(slave_id: int, job) -> None:
        # Slaves 0-1 are the local cluster's. The cloud slaves wait at
        # their first job (their master holds one group of 8 of the 24
        # cloud jobs), so the head still has cloud jobs to hand out when
        # the local cluster has exhausted its own 8.
        if slave_id >= 2:
            assert stolen.wait(30.0)
        elif job.site == CLOUD_SITE:
            stolen.set()

    runtime = CloudBurstingRuntime(
        AboveThreshold(0.5), index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        fault_hook=hold_cloud_until_local_steals, join_timeout=60.0,
    )
    result = runtime.run()
    # Cross-check against a direct NumPy pass.
    decoded = np.concatenate(
        [VALUE_SCHEMA.decode(c)
         for c in DatasetReader(index, stores).read_all_chunks()]
    ).ravel()
    assert result.value == float((decoded > 0.5).sum())
    # Local cluster (25% of data, 50% of cores) must have stolen.
    local = result.telemetry.clusters["local-cluster"]
    assert local.jobs_stolen > 0


def test_step4_simulate_at_testbed_scale():
    report = simulate(env_config("histogram", "env-33/67", scale=0.02))
    assert report.total_jobs == 960
    assert report.makespan > 0
    report.validate()
