"""The paper's testbed: campus cluster + AWS, as a two-site configuration.

:class:`CloudBurstSimulation` takes an :class:`~repro.config.ExperimentConfig`
and a :class:`~repro.sim.calibration.SimCalibration`, translates them into
the :class:`~repro.sim.multisite.MultiSiteConfig` of the paper's setup
(:func:`two_site_config`) and runs the one engine in
:mod:`repro.sim.multisite` — there is no second run loop.

The head node is hosted at the campus cluster in every configuration, as
in the paper (env-cloud shows master<->head WAN delays in Section IV-B).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..apps.base import AppProfile, get_profile

if TYPE_CHECKING:
    from ..cache import ChunkCache
    from ..obs import EventLog, RunMonitor
    from ..options import ScaleOptions
    from ..resilience.faults import FaultSpec
from ..cluster.variability import VariabilityModel
from ..config import CLOUD_SITE, LOCAL_SITE, ExperimentConfig
from ..core.sync import SyncSpec
from .calibration import PAPER_CALIBRATION, SimCalibration
from .metrics import SimReport
from .multisite import (
    JITTER_SALT,
    CrossPath,
    MultiSiteConfig,
    MultiSiteSimulation,
    SiteSpec,
)

__all__ = ["CloudBurstSimulation", "simulate", "two_site_config"]


def two_site_config(
    config: ExperimentConfig, calibration: SimCalibration, profile: AppProfile
) -> MultiSiteConfig:
    """The paper's campus + AWS testbed as an N-site configuration."""
    cal = calibration

    def jitter(model: VariabilityModel, salt: int) -> VariabilityModel:
        # The two-site model salts each site's jitter seed with its own
        # constant; the engine salts every site with JITTER_SALT. XOR is
        # its own inverse, so applying both here leaves exactly
        # ``seed ^ (config.seed * salt)`` after the engine's pass.
        return replace(
            model,
            seed=model.seed ^ (config.seed * salt) ^ (config.seed * JITTER_SALT),
        )

    return MultiSiteConfig(
        name=config.name,
        app=config.app,
        dataset=config.dataset,
        sites=(
            SiteSpec(
                name=LOCAL_SITE,
                cores=config.compute.local_cores,
                data_files=config.local_files,
                storage=cal.disk_to_local,
                variability=jitter(cal.local_variability, 2654435761),
                intra_bandwidth=cal.intra_local_bandwidth,
            ),
            SiteSpec(
                name=CLOUD_SITE,
                cores=config.compute.cloud_cores,
                data_files=config.cloud_files,
                storage=cal.s3_to_cloud,
                object_store=True,
                compute_slowdown=profile.cloud_slowdown,
                variability=jitter(cal.cloud_variability, 40503),
                intra_bandwidth=cal.intra_cloud_bandwidth,
            ),
        ),
        # The cloud -> campus WAN path also carries the reduction-object
        # push to the head, at ``wan_robj_per_flow`` per stream.
        cross_paths=(
            CrossPath(src=LOCAL_SITE, dst=CLOUD_SITE, path=cal.disk_to_cloud),
            CrossPath(src=CLOUD_SITE, dst=LOCAL_SITE, path=cal.s3_to_local),
        ),
        head_site=LOCAL_SITE,
        tuning=config.tuning,
        control_latency=cal.wan_latency,
        lan_latency=cal.lan_latency,
        robj_flow_rate=cal.wan_robj_per_flow,
        seed=config.seed,
    )


class CloudBurstSimulation:
    """One experiment, simulated."""

    def __init__(
        self,
        config: ExperimentConfig,
        calibration: SimCalibration = PAPER_CALIBRATION,
        profile: AppProfile | None = None,
        trace: "EventLog | None" = None,
        static_assignment: bool = False,
        cache: "ChunkCache | None" = None,
        sync: SyncSpec | None = None,
        faults: "FaultSpec | None" = None,
        scale: "ScaleOptions | None" = None,
        monitor: "RunMonitor | None" = None,
    ) -> None:
        self.config = config
        self.calibration = calibration
        self.profile = profile or get_profile(config.app)
        # What each argument models is documented on the engine. The
        # cloud is the burstable site; with no cloud cores there is no
        # cluster to grow and a scale spec is a no-op.
        self._engine = engine = MultiSiteSimulation(
            two_site_config(config, calibration, self.profile),
            profile=self.profile,
            merge_seconds_per_byte=calibration.merge_seconds_per_byte,
            trace=trace,
            sync=sync,
            scale=scale if config.compute.cloud_cores > 0 else None,
            scale_site=CLOUD_SITE,
            cache=cache,
            faults=faults,
            static_assignment=static_assignment,
            monitor=monitor,
        )
        self.trace = trace
        self.static_assignment = static_assignment
        self.cache = cache

    def run(self) -> SimReport:
        return self._engine.run()


def simulate(
    config: ExperimentConfig,
    calibration: SimCalibration = PAPER_CALIBRATION,
    profile: AppProfile | None = None,
) -> SimReport:
    """Convenience one-shot: build and run a simulation.

    .. deprecated::
        Prefer :func:`repro.run` with ``RunConfig(mode="simulate")`` for
        new code; this shim stays (the facade drives the same
        :class:`CloudBurstSimulation`) and will not be removed.
    """
    return CloudBurstSimulation(config, calibration, profile).run()
