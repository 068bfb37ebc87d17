"""The paper's experiment configurations.

Section IV-B's five environments (for each application) and Section IV-C's
scalability ladder. Core counts follow the paper's table exactly:

====================  ==========  ================  ==========
env                   data dist   knn & pagerank    kmeans
                      local/S3    (local, EC2)      (local, EC2)
====================  ==========  ================  ==========
env-local             100% / 0%   (32, 0)           (32, 0)
env-cloud             0% / 100%   (0, 32)           (0, 44)
env-50/50             50% / 50%   (16, 16)          (16, 22)
env-33/67             33% / 67%   (16, 16)          (16, 22)
env-17/83             17% / 83%   (16, 16)          (16, 22)
====================  ==========  ================  ==========

(kmeans gets 22 EC2 cores per 16 local because EC2 cores are slower for
compute-bound work — the paper empirically matched cluster throughputs.)

The scalability experiments place **all** data in S3 and sweep
(m, n) = (4,4), (8,8), (16,16), (32,32).

Datasets are the paper's shape — 120 GB, 32 files, 960 jobs — with the
record size taken from each application's cost profile. ``scale`` shrinks
chunk sizes for smoke tests without changing the job structure.

A configuration is what :func:`repro.run` takes beside the app: a
``(dataset, RunConfig)`` pair in simulate mode, named after its env::

    report = repro.run("knn", *env_config("knn", "env-33/67")).telemetry
"""

from __future__ import annotations

from ..apps.base import get_profile
from ..config import ComputeSpec, DatasetSpec, MiddlewareTuning, PlacementSpec
from ..facade import RunConfig
from ..units import GB, MB

__all__ = [
    "ENV_NAMES",
    "HYBRID_ENVS",
    "SCALABILITY_LADDER",
    "paper_dataset",
    "PaperConfig",
    "env_config",
    "figure3_configs",
    "figure4_configs",
]

ENV_NAMES = ("env-local", "env-cloud", "env-50/50", "env-33/67", "env-17/83")
HYBRID_ENVS = ("env-50/50", "env-33/67", "env-17/83")
SCALABILITY_LADDER = (4, 8, 16, 32)

#: One paper configuration: its dataset and a simulate-mode run config.
PaperConfig = tuple[DatasetSpec, RunConfig]

#: data fraction hosted locally, per environment
_LOCAL_FRACTION = {
    "env-local": 1.0,
    "env-cloud": 0.0,
    "env-50/50": 0.5,
    "env-33/67": 1.0 / 3.0,
    "env-17/83": 1.0 / 6.0,
}


def _cores(app: str, env: str) -> ComputeSpec:
    cloud_full = 44 if app == "kmeans" else 32
    cloud_half = 22 if app == "kmeans" else 16
    if env == "env-local":
        return ComputeSpec(local_cores=32, cloud_cores=0)
    if env == "env-cloud":
        return ComputeSpec(local_cores=0, cloud_cores=cloud_full)
    return ComputeSpec(local_cores=16, cloud_cores=cloud_half)


def paper_dataset(app: str, *, scale: float = 1.0) -> DatasetSpec:
    """The 120 GB / 32 files / 960 jobs dataset, sized for ``app``'s records.

    ``scale`` < 1 shrinks every chunk proportionally (same structure,
    faster simulation); 1.0 is the paper's exact shape.
    """
    record = get_profile(app).record_bytes
    spec = DatasetSpec(
        total_bytes=120 * GB,
        num_files=32,
        chunk_bytes=128 * MB,
        record_bytes=record,
    )
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec


def _paper_config(
    app: str,
    name: str,
    placement: PlacementSpec,
    compute: ComputeSpec,
    *,
    scale: float,
    tuning: MiddlewareTuning | None = None,
    seed: int,
) -> PaperConfig:
    return paper_dataset(app, scale=scale), RunConfig(
        mode="simulate",
        name=name,
        placement=placement,
        compute=compute,
        tuning=tuning or MiddlewareTuning(),
        seed=seed,
    )


def env_config(
    app: str,
    env: str,
    *,
    scale: float = 1.0,
    tuning: MiddlewareTuning | None = None,
    seed: int = 2011,
) -> PaperConfig:
    """One of the paper's env-* configurations for ``app``, as
    ``(dataset, RunConfig)``."""
    if env not in _LOCAL_FRACTION:
        raise KeyError(f"unknown environment {env!r}; expected one of {ENV_NAMES}")
    return _paper_config(
        app, env, PlacementSpec(local_fraction=_LOCAL_FRACTION[env]),
        _cores(app, env), scale=scale, tuning=tuning, seed=seed,
    )


def figure3_configs(
    app: str, *, scale: float = 1.0, seed: int = 2011
) -> dict[str, PaperConfig]:
    """All five environments of Figure 3 for one application."""
    return {env: env_config(app, env, scale=scale, seed=seed) for env in ENV_NAMES}


def figure4_configs(
    app: str,
    *,
    ladder: tuple[int, ...] = SCALABILITY_LADDER,
    scale: float = 1.0,
    seed: int = 2011,
) -> dict[str, PaperConfig]:
    """The scalability sweep of Figure 4: all data in S3, (m, m) cores."""
    return {
        f"({m},{m})": _paper_config(
            app, f"({m},{m})", PlacementSpec(local_fraction=0.0),
            ComputeSpec(local_cores=m, cloud_cores=m), scale=scale, seed=seed,
        )
        for m in ladder
    }
