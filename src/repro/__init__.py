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
runtime depending on ``RunConfig.mode``, on the caller's thread; a
:class:`JobService` runs many submissions through it.
:class:`CloudBurstingRuntime` is the executable engine under it, for
callers that hold their own stores and index. Every run option beyond
the core fields lives in one of the four families of
:mod:`repro.options` (``RunConfig(cache=CacheOptions(bytes=1 << 26))``,
read back as ``config.cache.bytes``) or, for the global reduction, in
``RunConfig.sync`` (a :class:`SyncSpec`). See ``examples/quickstart.py``
and ``docs/RESILIENCE.md``.
"""

from .apps.base import make_bundle
from .bench.configs import env_config
from .clock import FakeClock
from .config import CLOUD_SITE, LOCAL_SITE, ComputeSpec, DatasetSpec, PlacementSpec
from .core.api import GeneralizedReductionApp
from .core.sync import SyncSpec
from .facade import RunConfig, RunResult, run
from .options import CacheOptions, MonitorOptions, ResilienceOptions
from .resilience.faults import FaultSpec
from .runtime.driver import CloudBurstingRuntime
from .service.core import JobService, TenantSpec
from .service.handles import RunState

__version__ = "1.0.0"

__all__ = [
    "make_bundle",
    "env_config",
    "FakeClock",
    "CLOUD_SITE",
    "LOCAL_SITE",
    "ComputeSpec",
    "DatasetSpec",
    "PlacementSpec",
    "GeneralizedReductionApp",
    "SyncSpec",
    "run",
    "RunConfig",
    "RunResult",
    "CacheOptions",
    "MonitorOptions",
    "ResilienceOptions",
    "FaultSpec",
    "CloudBurstingRuntime",
    "JobService",
    "TenantSpec",
    "RunState",
    "__version__",
]
