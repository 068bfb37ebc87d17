"""Application descriptors and registry.

Every evaluation application contributes two things:

* an executable :class:`~repro.core.api.GeneralizedReductionApp` (used by
  the in-process runtime and the correctness tests), and
* an :class:`AppProfile` — the cost model the discrete-event simulator
  charges per data unit, calibrated from the paper's Section IV setup
  (element counts, per-app compute intensity, reduction-object size).

The profile numbers are derived from the paper's own reporting: knn
processes 32.1e9 elements with low compute, kmeans 10.7e9 with heavy
compute (k=1000 clustering), pagerank 9.26e8 edges with a ~300 MB
reduction object. ``cloud_slowdown`` encodes the paper's observation that
22 EC2 cores matched 16 local cores for compute-bound kmeans (22/16 =
1.375) while IO-bound apps saw no per-core gap worth provisioning for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.api import GeneralizedReductionApp
from ..data.dataset import BlockFn
from ..data.records import RecordSchema
from ..errors import ConfigurationError
from ..units import MB

__all__ = [
    "AppProfile",
    "AppBundle",
    "register_app",
    "get_app_factory",
    "make_bundle",
    "available_apps",
]


@dataclass(frozen=True)
class AppProfile:
    """Simulator cost model for one application.

    * ``unit_cost_local`` — seconds of compute one data unit costs on one
      local (campus Xeon) core;
    * ``cloud_slowdown`` — multiplier on that cost for an EC2 core;
    * ``robj_bytes`` — serialized reduction-object size, charged when a
      master ships its combined object to the head (and when slaves merge
      intra-cluster);
    * ``record_bytes`` — data-unit size, which ties the 120 GB dataset to
      the paper's element counts.
    """

    key: str
    unit_cost_local: float
    cloud_slowdown: float
    robj_bytes: int
    record_bytes: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.unit_cost_local < 0:
            raise ConfigurationError("unit_cost_local cannot be negative")
        if self.cloud_slowdown < 1.0:
            raise ConfigurationError(
                "cloud_slowdown is a slowdown factor and must be >= 1"
            )
        if self.robj_bytes < 0 or self.record_bytes <= 0:
            raise ConfigurationError("robj_bytes/record_bytes out of range")


@dataclass
class AppBundle:
    """Everything an experiment needs for one application.

    ``block_fn`` makes the dataset's blocks (see
    :data:`~repro.data.dataset.BlockFn`). ``build_dataset`` calls it from
    several threads at once, so it must be a pure function of its
    arguments; every registered generator seeds its own RNG per block.
    """

    profile: AppProfile
    app: GeneralizedReductionApp
    schema: RecordSchema
    block_fn: BlockFn

    def __post_init__(self) -> None:
        if self.schema.record_bytes != self.profile.record_bytes:
            raise ConfigurationError(
                f"schema record size {self.schema.record_bytes} != profile "
                f"record size {self.profile.record_bytes} for {self.profile.key!r}"
            )


#: ``factory(total_units, seed, **params) -> AppBundle``
BundleFactory = Callable[..., AppBundle]

_REGISTRY: dict[str, BundleFactory] = {}
_PROFILES: dict[str, AppProfile] = {}


def register_app(profile: AppProfile, factory: BundleFactory) -> None:
    """Register an application under its profile key."""
    if profile.key in _REGISTRY:
        raise ConfigurationError(f"application {profile.key!r} already registered")
    _REGISTRY[profile.key] = factory
    _PROFILES[profile.key] = profile


def get_app_factory(key: str) -> BundleFactory:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown application {key!r}; available: {sorted(_REGISTRY)}"
        ) from None


def get_profile(key: str) -> AppProfile:
    try:
        return _PROFILES[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown application {key!r}; available: {sorted(_PROFILES)}"
        ) from None


def make_bundle(key: str, total_units: int, *, seed: int = 2011, **params) -> AppBundle:
    """Instantiate an application bundle sized for ``total_units`` units."""
    return get_app_factory(key)(total_units, seed=seed, **params)


def available_apps() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# Reduction-object size shared by the paper-calibrated pagerank profile:
# Section IV-B quotes "~300 MB".
PAGERANK_ROBJ_BYTES = 300 * MB
