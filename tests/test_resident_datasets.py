"""Resident datasets: a JobService builds each dataset once.

The first half pins what residency must not change — a service run's
value and its per-run counters equal a direct run's, alone or beside a
concurrent run on the same stores. The second half pins what it does
change: which submissions share a build, and the pool's byte bound.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    CacheOptions,
    FaultSpec,
    JobService,
    PlacementSpec,
    ResilienceOptions,
    RunConfig,
)
from repro.apps import make_bundle
from repro.data import resident
from repro.data.resident import ResidentDatasets, current

from conftest import middleware_threads, small_spec

SERIAL = RunConfig(mode="serial", seed=5)
RUNTIME = RunConfig(mode="runtime", seed=5)
#: Counters a serial run reports exactly; a concurrent run on the same
#: stores must not leak into them.
LEDGER = (
    "retries", "faults_injected", "cache_hits", "cache_misses",
    "bytes_saved", "zero_copy_reads", "bytes_copied",
)


def spec(app: str):
    return small_spec(make_bundle(app, 1024).schema.record_bytes)


@pytest.fixture
def builds(monkeypatch):
    """Count dataset materializations behind the facade."""
    calls = []
    real = repro.facade.build_dataset

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.facade, "build_dataset", counting)
    return calls


def assert_same(a, b, *, rtol: float = 0.0) -> None:
    if isinstance(a, dict):
        assert a == b
    else:
        np.testing.assert_allclose(np.asarray(a), np.asarray(b), rtol=rtol)


# -- what residency must not change -------------------------------------------


@pytest.mark.parametrize("app", ["histogram", "wordcount", "kmeans"])
@pytest.mark.parametrize("config", [SERIAL, RUNTIME], ids=["serial", "runtime"])
def test_service_runs_equal_direct_runs(app, config):
    direct = repro.run(app, spec(app), config)
    with JobService() as service:
        handles = [service.submit(app, spec(app), config) for _ in range(3)]
        for handle in handles:
            assert_same(handle.result().value, direct.value, rtol=1e-12)
        assert service.stats()["datasets"]["builds"] == 1


def test_concurrent_runs_on_one_resident_dataset_keep_their_own_ledger():
    config = RunConfig(
        mode="serial", seed=5,
        cache=CacheOptions(bytes=1 << 20),
        resilience=ResilienceOptions(
            faults=FaultSpec(transient_rate=0.2, seed=3)
        ),
    )
    solo = repro.run("histogram", spec("histogram"), config).telemetry
    assert solo.faults_injected and solo.retries and solo.cache_misses
    with JobService(workers=2) as service:
        handles = [
            service.submit("histogram", spec("histogram"), config)
            for _ in range(6)
        ]
        for handle in handles:
            telemetry = handle.result(timeout=60).telemetry
            assert {k: getattr(telemetry, k) for k in LEDGER} == {
                k: getattr(solo, k) for k in LEDGER
            }
    assert not middleware_threads()


def test_iterative_runs_on_resident_data_do_not_share_app_state():
    """kmeans recenters its app between passes; a resident dataset must
    not carry one run's centers into the next."""
    iterative = RunConfig(mode="runtime", seed=5, iterations=3)
    single = repro.run("kmeans", spec("kmeans"), RUNTIME).value
    triple = repro.run("kmeans", spec("kmeans"), iterative).value
    with JobService() as service:
        for config, expected in [
            (RUNTIME, single), (iterative, triple),
            (RUNTIME, single), (iterative, triple),
        ]:
            value = service.submit("kmeans", spec("kmeans"), config).result().value
            assert_same(value, expected, rtol=1e-12)
        assert service.stats()["datasets"]["builds"] == 1


# -- what residency changes ---------------------------------------------------


def test_a_service_builds_each_dataset_once(builds):
    with JobService() as service:
        for i in range(6):
            app = ("histogram", "wordcount")[i % 2]
            config = RunConfig(mode=("serial", "runtime")[i % 3 == 0], seed=5,
                               name=f"run{i}")
            service.submit(app, spec(app), config).result()
        stats = service.stats()["datasets"]
    assert len(builds) == 2
    assert stats["builds"] == 2 and stats["hits"] == 4 and stats["resident"] == 2


def test_the_key_is_what_fixes_the_bytes(builds):
    """Seed, placement, app params and the dataset shape change the bytes
    and build anew; run name, cores, mode and iterations do not."""
    data = spec("histogram")
    with JobService() as service:
        def submit(app=data, **changes):
            config = RunConfig(**{"mode": "serial", "seed": 5, **changes})
            service.submit("histogram", app, config).result()

        submit()
        submit(name="other", mode="runtime", iterations=1,
               compute=repro.ComputeSpec(1, 1))
        assert len(builds) == 1
        submit(seed=6)
        submit(placement=PlacementSpec(0.25))
        submit(app_params={"bins": 8})
        submit(app=small_spec(data.record_bytes, files=2))
        assert len(builds) == 5


def test_prebuilt_bundles_and_direct_runs_build_every_time(builds):
    bundle = make_bundle("histogram", spec("histogram").total_units, seed=5)
    with JobService() as service:
        for _ in range(2):
            service.submit(bundle, spec("histogram"), SERIAL).result()
    assert len(builds) == 2
    for _ in range(2):
        repro.run("histogram", spec("histogram"), SERIAL)
    assert len(builds) == 4
    assert current() is None


def test_threaded_service_shares_builds_and_shutdown_releases_them(builds):
    service = JobService(workers=2)
    handles = [
        service.submit("wordcount", spec("wordcount"), SERIAL) for _ in range(8)
    ]
    for handle in handles:
        handle.result(timeout=60)
    stats = service.stats()["datasets"]
    # Two runs that miss at once both build; only one copy stays.
    assert 1 <= len(builds) <= 2 and stats["resident"] == 1
    assert stats["builds"] + stats["hits"] == 8
    service.shutdown()
    assert service.stats()["datasets"]["resident"] == 0
    assert service.stats()["datasets"]["bytes"] == 0
    assert not middleware_threads()


# -- the pool -----------------------------------------------------------------


def test_pool_evicts_least_recently_used_and_skips_oversized(monkeypatch):
    monkeypatch.setattr(resident, "_BUDGET", 100)
    pool = ResidentDatasets()
    a = pool.get("a", object, 40)
    pool.get("b", object, 40)
    assert pool.get("a", object, 40) is a  # a is now the most recent
    pool.get("c", object, 40)  # evicts b
    assert pool.stats() == {
        "resident": 2, "bytes": 80, "builds": 3, "hits": 1, "evictions": 1,
    }
    big = pool.get("big", object, 101)
    assert pool.get("big", object, 101) is not big
    assert pool.stats()["resident"] == 2


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 60)), max_size=40
    ),
    budget=st.integers(1, 150),
)
def test_pool_stays_within_budget_and_hands_out_what_it_built(requests, budget):
    pool = ResidentDatasets()
    sizes: dict[int, int] = {}
    first: dict[int, object] = {}
    with mock.patch.object(resident, "_BUDGET", budget):
        for key, size in requests:
            size = sizes.setdefault(key, size)  # a key fixes its bytes
            value = pool.get(key, object, size)
            stats = pool.stats()
            assert stats["bytes"] <= budget
            assert stats["builds"] + stats["hits"] <= len(requests)
            if key in first and stats["evictions"] == 0 and size <= budget:
                assert value is first[key]
            first.setdefault(key, value)
    stats = pool.stats()
    assert stats["builds"] + stats["hits"] == len(requests)
    if sum(sizes.values()) <= budget:
        assert stats["builds"] == len(sizes) and stats["evictions"] == 0
