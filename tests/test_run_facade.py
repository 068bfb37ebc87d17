"""The unified ``repro.run`` facade must match every legacy entrypoint.

Each mode of the facade is a thin wrapper over an engine that predates
it (``run_serial``, ``MultiSiteSimulation``, ``CloudBurstingRuntime``).
These tests pin the equivalence: same app, same dataset, same seed —
identical output through either door.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ResilienceOptions, RunConfig, RunResult, run
from repro.apps import make_bundle
from repro.bench.configs import figure3_configs, figure4_configs
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import ConfigurationError
from repro.resilience import FaultSpec, RetryPolicy
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import MultiSiteSimulation
from repro.sim.simulation import two_site_config
from repro.storage.objectstore import ObjectStore

SEED = 2011


def small_dataset(record_bytes: int, units: int = 2048) -> DatasetSpec:
    return DatasetSpec(
        total_bytes=units * record_bytes,
        num_files=4,
        chunk_bytes=(units // 16) * record_bytes,
        record_bytes=record_bytes,
    )


def legacy_materialize(app_key: str, dataset: DatasetSpec, **params):
    """The pre-facade setup ritual, verbatim."""
    bundle = make_bundle(app_key, dataset.total_units, seed=SEED, **params)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        dataset, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def assert_values_equal(a, b):
    if isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("app_key", ["histogram", "wordcount", "knn"])
def test_facade_runtime_matches_legacy_driver(app_key):
    record_bytes = make_bundle(app_key, 2048, seed=SEED).schema.record_bytes
    dataset = small_dataset(record_bytes)
    bundle, index, stores = legacy_materialize(app_key, dataset)
    legacy = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2)
    ).run()

    result = run(app_key, dataset, RunConfig(mode="runtime"))
    assert isinstance(result, RunResult) and result.mode == "runtime"
    assert_values_equal(result.value, legacy.value)
    assert result.telemetry.total_jobs == legacy.telemetry.total_jobs


def test_facade_serial_matches_run_serial():
    dataset = small_dataset(8)
    bundle, index, stores = legacy_materialize("histogram", dataset)
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )
    result = run("histogram", dataset, RunConfig(mode="serial"))
    assert result.mode == "serial"
    assert_values_equal(result.value, oracle)
    assert result.telemetry is not None and result.telemetry.retries == 0


def test_facade_simulate_matches_simulate():
    dataset = DatasetSpec.paper(record_bytes=8).scaled(1e-5)
    config = RunConfig(
        mode="simulate", name="env-test", seed=SEED,
        compute=ComputeSpec(local_cores=8, cloud_cores=8),
    )
    legacy = MultiSiteSimulation(two_site_config("kmeans", dataset, config)).run()
    result = run("kmeans", dataset, config)
    assert result.mode == "simulate"
    assert result.value is None
    assert result.telemetry.to_dict() == legacy.to_dict()
    assert result.wall_seconds == legacy.makespan


#: The paper's nine kmeans configurations: Figure 3's envs (built by
#: ``env_config``), Figure 4's ladder.
PAPER_CONFIGS = {
    **figure3_configs("kmeans", scale=0.02), **figure4_configs("kmeans", scale=0.02)
}


@pytest.mark.parametrize("env", PAPER_CONFIGS)
def test_a_paper_config_simulates_the_same_through_either_door(env):
    dataset, config = PAPER_CONFIGS[env]
    direct = MultiSiteSimulation(two_site_config("kmeans", dataset, config)).run()
    facade = run("kmeans", dataset, config)
    assert facade.telemetry.to_json() == direct.to_json()


def test_facade_accepts_prebuilt_bundle():
    dataset = small_dataset(8)
    bundle = make_bundle("histogram", dataset.total_units, seed=SEED)
    via_key = run("histogram", dataset, RunConfig(mode="serial"))
    via_bundle = run(bundle, dataset, RunConfig(mode="serial"))
    assert_values_equal(via_key.value, via_bundle.value)


def test_facade_forwards_app_params():
    dataset = small_dataset(8)
    coarse = run(
        "histogram", dataset,
        RunConfig(mode="serial", app_params={"bins": 8}),
    )
    fine = run(
        "histogram", dataset,
        RunConfig(mode="serial", app_params={"bins": 64}),
    )
    assert len(coarse.value) == 8 and len(fine.value) == 64


def test_facade_faulted_run_is_bit_identical_to_clean_run():
    dataset = small_dataset(8)
    clean = run("histogram", dataset, RunConfig(mode="runtime"))
    faulted = run(
        "histogram", dataset,
        RunConfig(
            mode="runtime",
            resilience=ResilienceOptions(faults="transient=0.15,seed=5"),
        ),
    )
    assert_values_equal(faulted.value, clean.value)
    assert faulted.telemetry.faults_injected > 0
    assert faulted.telemetry.retries > 0
    assert faulted.telemetry.slaves_failed == 0


def test_run_config_validation_and_parsing():
    with pytest.raises(ConfigurationError):
        RunConfig(mode="warp")
    with pytest.raises(ConfigurationError):
        ResilienceOptions(join_timeout=0.0)
    config = RunConfig(resilience=ResilienceOptions(faults="transient=0.2,seed=9"))
    assert isinstance(config.resilience.faults, FaultSpec)
    assert config.fault_spec is config.resilience.faults
    # Faults imply a default retry policy; explicit policies win.
    assert config.effective_retry == RetryPolicy()
    custom = RetryPolicy(max_attempts=9)
    assert (
        RunConfig(resilience=ResilienceOptions(retry=custom)).effective_retry
        is custom
    )
    assert RunConfig().effective_retry is None
    # An all-zero spec is treated as no faults at all.
    inert = RunConfig(resilience=ResilienceOptions(faults=FaultSpec()))
    assert inert.fault_spec is None and inert.effective_retry is None


def test_facade_exported_at_package_top_level():
    assert repro.run is run
    assert repro.RunConfig is RunConfig
    assert repro.FaultSpec is FaultSpec
    assert all(hasattr(repro, name) for name in repro.__all__)
