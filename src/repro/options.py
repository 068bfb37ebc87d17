"""The option families of :class:`repro.RunConfig` — the one place a
run's options are spelled.

Four individually-validated spec dataclasses group the knobs:

* :class:`CacheOptions` — the chunk cache + prefetch pipeline;
* :class:`MonitorOptions` — live run-health sampling;
* :class:`ResilienceOptions` — fault injection, retry policy and the
  join deadline;
* :class:`ScaleOptions` — the autoscaler and the spot-revocation model.

The global-reduction WAN levers (wire encoding, compression, aggregation
topology, streaming partial merges) are ``RunConfig.sync``, the
:class:`~repro.core.sync.SyncSpec` both substrates execute.

A run is configured, and read back, through them::

    config = RunConfig(
        cache=CacheOptions(bytes=1 << 26, prefetch=True),
        sync=SyncSpec(encoding="delta", compress="zlib", topology="tree"),
        monitor=MonitorOptions(interval=0.5, on_sample=print),
        resilience=ResilienceOptions(faults="transient=0.1,seed=7"),
    )
    config.cache.bytes, config.sync.topology

``dataclasses.replace(config, cache=CacheOptions(...))`` swaps a family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigurationError
from .resilience.faults import FaultSpec
from .resilience.retry import RetryPolicy
from .scale.controller import Autoscaler
from .scale.revocation import RevocationSpec

__all__ = [
    "CacheOptions",
    "MonitorOptions",
    "ResilienceOptions",
    "ScaleOptions",
]


@dataclass(frozen=True)
class CacheOptions:
    """Chunk-cache + prefetch configuration.

    ``bytes`` is the byte budget for the per-node
    :class:`~repro.cache.ChunkCache` (``0`` builds no cache machinery);
    ``prefetch`` overlaps each slave's next fetch with its current
    reduction (runtime mode only).
    """

    bytes: int = 0
    prefetch: bool = False

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ConfigurationError("cache.bytes cannot be negative")


@dataclass(frozen=True)
class MonitorOptions:
    """Live run-health sampling (:mod:`repro.obs.live`).

    ``interval`` seconds between :class:`~repro.obs.live.RunSample`
    snapshots (``0.0`` builds no monitoring machinery), ``capacity``
    bounds the retained sample ring, ``on_sample`` is called with every
    sample as it lands.
    """

    interval: float = 0.0
    capacity: int = 512
    on_sample: Callable[[Any], None] | None = None

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ConfigurationError("monitor.interval cannot be negative")
        if self.capacity <= 0:
            raise ConfigurationError("monitor.capacity must be positive")
        if self.on_sample is not None and self.interval <= 0:
            raise ConfigurationError(
                "monitor.on_sample needs monitor.interval > 0 to ever be called"
            )

    @property
    def enabled(self) -> bool:
        return self.interval > 0


@dataclass(frozen=True)
class ResilienceOptions:
    """Fault injection, retry policy, and the run join deadline.

    ``faults`` accepts a :class:`~repro.resilience.FaultSpec` or its
    text form (``"transient=0.1,seed=7"``) and is normalized to the
    parsed spec. ``retry`` defaults to ``RetryPolicy()`` whenever faults
    are active and none was given (see
    :attr:`repro.RunConfig.effective_retry`). ``join_timeout`` bounds
    every head/master/slave join in the threaded runtime.
    """

    faults: FaultSpec | str | None = None
    retry: RetryPolicy | None = None
    join_timeout: float = 600.0

    def __post_init__(self) -> None:
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultSpec.parse(self.faults))
        if self.join_timeout <= 0:
            raise ConfigurationError("resilience.join_timeout must be positive")


@dataclass(frozen=True)
class ScaleOptions:
    """Elastic cloud bursting (:mod:`repro.scale`).

    ``autoscale`` turns the controller on; ``deadline`` (seconds of run
    time) and ``budget`` (dollars) are the targets it steers toward, and
    the cloud fleet stays inside ``[min_slaves, max_slaves]``. ``interval``
    is how often the controller observes (it drives an internal
    :class:`~repro.obs.live.RunMonitor` when none is configured);
    ``damping`` suppresses direction reversals inside its window.
    ``revocation`` accepts a :class:`~repro.scale.RevocationSpec` or its
    text form (``"rate=0.05,seed=7,provision=30"``) and is normalized to
    the parsed spec; revocation works with or without ``autoscale``.
    ``dollars_per_slave_hour`` defaults to the paper-era EC2 large
    instance price per core (:data:`repro.bench.cost.AWS_2011`).
    """

    autoscale: bool = False
    deadline: float | None = None
    budget: float | None = None
    min_slaves: int = 1
    max_slaves: int = 8
    interval: float = 0.2
    damping: float = 1.0
    revocation: RevocationSpec | str | None = None
    dollars_per_slave_hour: float = 0.17

    def __post_init__(self) -> None:
        if isinstance(self.revocation, str):
            object.__setattr__(
                self, "revocation", RevocationSpec.parse(self.revocation)
            )
        if self.min_slaves < 1:
            raise ConfigurationError("min_slaves must be >= 1")
        if self.max_slaves < self.min_slaves:
            raise ConfigurationError("max_slaves must be >= min_slaves")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.budget is not None and self.budget <= 0:
            raise ConfigurationError("budget must be positive")
        if self.interval <= 0:
            raise ConfigurationError("scale interval must be positive")
        if self.damping < 0:
            raise ConfigurationError("damping cannot be negative")
        if self.dollars_per_slave_hour < 0:
            raise ConfigurationError("dollars_per_slave_hour cannot be negative")

    @property
    def enabled(self) -> bool:
        """True when the run needs any scaling machinery at all."""
        return self.autoscale or self.revocation_spec is not None

    @property
    def revocation_spec(self) -> RevocationSpec | None:
        """The parsed revocation spec, or ``None`` when inactive."""
        spec = self.revocation
        if isinstance(spec, RevocationSpec) and spec.active:
            return spec
        return None

    def make_autoscaler(self) -> Autoscaler:
        """The controller these targets configure (runtime and simulator)."""
        return Autoscaler(
            min_slaves=self.min_slaves,
            max_slaves=self.max_slaves,
            deadline=self.deadline,
            budget=self.budget,
            dollars_per_slave_hour=self.dollars_per_slave_hour,
            damping=self.damping,
        )

    def id_headroom(self, initial: int) -> int:
        """Slave ids a scale-up may claim beyond an ``initial`` crew.
        Revocations free fleet slots but never slave ids (a dead id stays
        dead to the master), so revocable fleets get ``max_slaves`` more."""
        if not self.autoscale:
            return 0
        headroom = max(0, self.max_slaves - initial)
        if self.revocation_spec is not None:
            headroom += self.max_slaves
        return headroom
