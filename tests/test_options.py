"""The option families are RunConfig's only spelling.

The contract these tests pin:

* nested construction is silent and validated per spec;
* ``dataclasses.replace`` swaps a family, ``==``/``repr`` are the plain
  dataclass ones;
* the 15 flat kwargs of the earlier API are gone — a ``TypeError`` to
  construct with, an ``AttributeError`` to read;
* the sync family is :class:`repro.SyncSpec` itself, with no mirror class.
"""

from __future__ import annotations

import dataclasses
import inspect
import warnings

import pytest

import repro
from repro import (
    CacheOptions,
    MonitorOptions,
    ResilienceOptions,
    RunConfig,
    SyncSpec,
)
from repro.errors import ConfigurationError
from repro.resilience import FaultSpec, RetryPolicy

NESTED_KWARGS = dict(
    cache=CacheOptions(bytes=1 << 20, prefetch=True),
    sync=SyncSpec(
        encoding="delta", compress="zlib", topology="tree",
        stream=True, watermark=4, fanout=3, sim_ratio=0.5,
    ),
    monitor=MonitorOptions(interval=0.25, capacity=64),
    resilience=ResilienceOptions(
        faults="transient=0.1,seed=7",
        retry=RetryPolicy(max_attempts=2),
        join_timeout=30.0,
    ),
)


def test_nested_construction_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RunConfig(**NESTED_KWARGS)


#: The flat kwargs the nested specs replaced, and the metrics registry
#: the run's counters left for ``RunTelemetry``, each with a once-legal value.
REMOVED_FLAT_KWARGS = dict(
    metrics=None,
    cache_bytes=1 << 20,
    prefetch=True,
    sync_encoding="delta",
    sync_compress="zlib",
    sync_topology="tree",
    sync_stream=True,
    sync_watermark=4,
    sync_fanout=3,
    sync_ratio=0.5,
    monitor_interval=0.25,
    monitor_capacity=64,
    on_sample=print,
    faults="transient=0.1,seed=7",
    retry=RetryPolicy(max_attempts=2),
    join_timeout=30.0,
)


@pytest.mark.parametrize("name", sorted(REMOVED_FLAT_KWARGS))
def test_flat_spelling_is_gone(name):
    with pytest.raises(TypeError, match=name):
        RunConfig(**{name: REMOVED_FLAT_KWARGS[name]})
    with pytest.raises(AttributeError):
        getattr(RunConfig(), name)


def test_signature_is_the_sixteen_real_fields():
    assert list(inspect.signature(RunConfig).parameters) == [
        "mode", "placement", "compute", "tuning", "seed", "name", "trace",
        "app_params", "slave_mode", "iterations", "converge",
        "cache", "sync", "monitor", "resilience", "scale",
    ]


def test_replace_round_trips_nested_fields():
    config = RunConfig(**NESTED_KWARGS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swapped = dataclasses.replace(config, cache=CacheOptions(bytes=7))
    assert swapped.cache.bytes == 7
    assert swapped.sync == config.sync
    assert swapped.monitor == config.monitor
    assert swapped.resilience == config.resilience
    # Unchanged replace is a clean identity-equal copy.
    assert dataclasses.replace(config) == config


def test_repr_and_eq_ignore_flat_mirrors():
    config = RunConfig(cache=CacheOptions(bytes=3))
    text = repr(config)
    assert "cache=CacheOptions" in text
    assert "cache_bytes" not in text
    assert config == RunConfig(cache=CacheOptions(bytes=3))
    assert config != RunConfig(cache=CacheOptions(bytes=4))


def test_spec_level_validation_still_fires():
    with pytest.raises(ConfigurationError, match=r"cache\.bytes"):
        CacheOptions(bytes=-1)
    with pytest.raises(ConfigurationError, match=r"monitor\.interval"):
        MonitorOptions(interval=-0.5)
    with pytest.raises(ConfigurationError, match="watermark"):
        SyncSpec(watermark=0)
    with pytest.raises(ConfigurationError, match="join_timeout"):
        ResilienceOptions(join_timeout=0.0)


def test_resilience_parses_string_faults():
    spec = ResilienceOptions(faults="transient=0.25,seed=11")
    assert isinstance(spec.faults, FaultSpec)
    assert spec.faults.transient_rate == 0.25


def test_sync_family_is_the_sync_spec_itself():
    assert RunConfig().sync == SyncSpec()
    spec = SyncSpec(topology="tree", sim_ratio=0.5)
    assert RunConfig(sync=spec).sync is spec and spec != SyncSpec()
    # Four option classes; none of them mirrors SyncSpec.
    families = ["CacheOptions", "MonitorOptions", "ResilienceOptions", "ScaleOptions"]
    assert sorted(repro.options.__all__) == families
    assert [n for n in dir(repro.options) if n.endswith("Options")] == families
    assert {n for n in dir(repro) if n.endswith("Options")} <= set(families)
