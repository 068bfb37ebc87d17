"""repro — a reproduction of *A Framework for Data-Intensive Computing
with Cloud Bursting* (Bicer, Chiu, Agrawal; IEEE CLUSTER 2011).

The package provides:

* the **Generalized Reduction** programming API and its middleware
  (head / master / slave, pooling load balancing, locality-aware job
  assignment, work stealing) — :mod:`repro.core`, :mod:`repro.runtime`;
* every substrate the paper depends on, built from scratch: data
  organization (:mod:`repro.data`), storage services (:mod:`repro.storage`),
  the closed-form link model the simulator is checked against
  (:mod:`repro.network`) and the EC2 variability model
  (:mod:`repro.cluster`);
* a **discrete-event simulator** standing in for the paper's
  campus-cluster + EC2/S3 testbed (:mod:`repro.sim`);
* the three evaluation applications plus extras (:mod:`repro.apps`),
  baselines (:mod:`repro.baselines`), and the benchmark harness that
  regenerates every table and figure (:mod:`repro.bench`).

Quickstart — one facade for every engine::

    import repro

    dataset = repro.DatasetSpec(
        total_bytes=32768, num_files=4, chunk_bytes=2048, record_bytes=4
    )
    result = repro.run("wordcount", dataset, repro.RunConfig(mode="runtime"))
    print(result.value, result.telemetry.retries)

:func:`repro.run` drives the serial oracle, the simulator, or the real
runtime depending on ``RunConfig.mode``; the older per-engine
entrypoints (:func:`run_serial`, :func:`simulate`,
:class:`CloudBurstingRuntime`) remain as thin stable shims over the same
machinery. Every run option beyond the core fields lives in one of the
four families of :mod:`repro.options`
(``RunConfig(cache=CacheOptions(bytes=1 << 26))``, read back as
``config.cache.bytes``) or, for the global reduction, in
``RunConfig.sync`` (a :class:`SyncSpec`). See ``examples/quickstart.py`` and
``docs/RESILIENCE.md``.
"""

from .apps import AppBundle, AppProfile, available_apps, make_bundle
from .cache import CacheStats, ChunkCache, Prefetcher
from .clock import SYSTEM_CLOCK, FakeClock, SystemClock
from .bench import (
    env_config,
    figure3_configs,
    figure4_configs,
    run_figure3,
    run_figure4,
)
from .config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    ExperimentConfig,
    MiddlewareTuning,
    PlacementSpec,
)
from .core import GeneralizedReductionApp, ReductionObject, run_serial
from .core.sync import SyncSpec
from .errors import ReproError
from .facade import RunConfig, RunResult, run, run_direct
from .options import (
    CacheOptions,
    MonitorOptions,
    ResilienceOptions,
    ScaleOptions,
)
from .resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)
from .runtime import CloudBurstingRuntime, run_iterative
from .scale import Autoscaler, RevocationSpec, ScaleDecision
from .service import JobService, RunHandle, RunState, RunStatus, TenantSpec
from .sim import PAPER_CALIBRATION, SimCalibration, SimReport, simulate

__version__ = "1.0.0"

__all__ = [
    "AppBundle",
    "AppProfile",
    "available_apps",
    "make_bundle",
    "CacheStats",
    "ChunkCache",
    "Prefetcher",
    "FakeClock",
    "SystemClock",
    "SYSTEM_CLOCK",
    "env_config",
    "figure3_configs",
    "figure4_configs",
    "run_figure3",
    "run_figure4",
    "CLOUD_SITE",
    "LOCAL_SITE",
    "ComputeSpec",
    "DatasetSpec",
    "ExperimentConfig",
    "MiddlewareTuning",
    "PlacementSpec",
    "GeneralizedReductionApp",
    "ReductionObject",
    "SyncSpec",
    "run_serial",
    "run",
    "run_direct",
    "RunConfig",
    "RunResult",
    "CacheOptions",
    "MonitorOptions",
    "ResilienceOptions",
    "ScaleOptions",
    "Autoscaler",
    "ScaleDecision",
    "RevocationSpec",
    "JobService",
    "TenantSpec",
    "RunHandle",
    "RunState",
    "RunStatus",
    "CircuitBreaker",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "ReproError",
    "CloudBurstingRuntime",
    "run_iterative",
    "PAPER_CALIBRATION",
    "SimCalibration",
    "SimReport",
    "simulate",
    "__version__",
]
