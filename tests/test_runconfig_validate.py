"""``RunConfig.validate()``: every cross-knob conflict fails fast.

Construction rejects individually-bad values; ``validate()`` rejects
*combinations* where each knob is legal but together they silently do
nothing or would only fail deep inside an engine. One test per conflict,
each asserting the message is actionable (names the knob and a fix).
"""

from __future__ import annotations

import pytest

from repro import (
    CacheOptions,
    MonitorOptions,
    ResilienceOptions,
    RunConfig,
    SyncSpec,
)
from repro.errors import ConfigurationError
from repro.resilience import RetryPolicy


def test_validate_returns_self_on_a_clean_config():
    config = RunConfig(
        mode="runtime",
        cache=CacheOptions(bytes=1 << 20, prefetch=True),
        sync=SyncSpec(encoding="delta", topology="tree", stream=True),
        monitor=MonitorOptions(interval=0.5),
    )
    assert config.validate() is config


def test_validate_default_config_is_clean():
    config = RunConfig()
    assert config.validate() is config


def test_prefetch_without_cache_conflicts():
    config = RunConfig(cache=CacheOptions(prefetch=True))
    with pytest.raises(ConfigurationError, match=r"prefetch.*cache\.bytes=0"):
        config.validate()


def test_prefetch_outside_runtime_conflicts():
    config = RunConfig(
        mode="serial", cache=CacheOptions(bytes=1 << 20, prefetch=True)
    )
    with pytest.raises(ConfigurationError, match="prefetch.*'serial'"):
        config.validate()


def test_sync_in_serial_mode_conflicts():
    # Any knob off the default spec, the simulator-only ones included.
    for spec in (SyncSpec(encoding="delta"), SyncSpec(watermark=3),
                 SyncSpec(sim_ratio=0.5)):
        config = RunConfig(mode="serial", sync=spec)
        with pytest.raises(ConfigurationError, match="serial mode has no masters"):
            config.validate()
    RunConfig(mode="serial", sync=SyncSpec()).validate()


def test_sim_only_sync_ratio_in_runtime_conflicts():
    config = RunConfig(
        mode="runtime", sync=SyncSpec(topology="tree", sim_ratio=0.5)
    )
    with pytest.raises(ConfigurationError, match=r"sync\.sim_ratio.*simulator"):
        config.validate()


def test_stream_with_star_dense_defaults_conflicts():
    config = RunConfig(mode="runtime", sync=SyncSpec(stream=True))
    with pytest.raises(
        ConfigurationError, match=r"sync\.stream.*star/dense"
    ):
        config.validate()


def test_monitor_in_serial_mode_conflicts():
    config = RunConfig(mode="serial", monitor=MonitorOptions(interval=1.0))
    with pytest.raises(
        ConfigurationError, match=r"monitor\.interval.*no samples"
    ):
        config.validate()


def test_converge_with_single_iteration_conflicts():
    config = RunConfig(converge=0.01)
    with pytest.raises(ConfigurationError, match="converge.*iterations"):
        config.validate()


def test_retry_in_simulate_mode_conflicts():
    config = RunConfig(
        mode="simulate",
        resilience=ResilienceOptions(retry=RetryPolicy()),
    )
    with pytest.raises(ConfigurationError, match="never retries"):
        config.validate()


def test_process_slaves_outside_runtime_conflicts():
    config = RunConfig(mode="simulate", slave_mode="process")
    with pytest.raises(
        ConfigurationError, match="slave_mode='process'.*'simulate'"
    ):
        config.validate()


def test_validate_reports_every_conflict_at_once():
    config = RunConfig(
        mode="serial",
        cache=CacheOptions(prefetch=True),
        monitor=MonitorOptions(interval=1.0),
        converge=0.1,
    )
    with pytest.raises(ConfigurationError) as excinfo:
        config.validate()
    message = str(excinfo.value)
    # prefetch raises two findings (no cache + wrong mode) plus monitor
    # and converge — all reported together, not first-wins.
    assert message.count("\n  - ") >= 4


def test_unknown_mode_and_slave_mode_fail_at_construction():
    with pytest.raises(ConfigurationError, match="unknown run mode"):
        RunConfig(mode="warp")
    with pytest.raises(ConfigurationError, match="unknown slave_mode"):
        RunConfig(slave_mode="fiber")
