"""The paper's testbed: campus cluster + AWS, as a two-site configuration.

:func:`two_site_config` translates an
:class:`~repro.config.ExperimentConfig` and a
:class:`~repro.sim.calibration.SimCalibration` into the
:class:`~repro.sim.multisite.MultiSiteConfig` of the paper's setup, which
the one engine runs::

    MultiSiteSimulation(two_site_config(config)).run()

The head node is hosted at the campus cluster in every configuration, as
in the paper (env-cloud shows master<->head WAN delays in Section IV-B),
so the cloud is the site that bursts.
"""

from __future__ import annotations

from dataclasses import replace

from ..apps.base import AppProfile, get_profile
from ..cluster.variability import VariabilityModel
from ..config import CLOUD_SITE, LOCAL_SITE, ExperimentConfig
from .calibration import PAPER_CALIBRATION, SimCalibration
from .multisite import JITTER_SALT, CrossPath, MultiSiteConfig, SiteSpec

__all__ = ["two_site_config"]


def two_site_config(
    config: ExperimentConfig,
    calibration: SimCalibration = PAPER_CALIBRATION,
    profile: AppProfile | None = None,
) -> MultiSiteConfig:
    """The paper's campus + AWS testbed as an N-site configuration.

    ``profile`` (default: the registered one for ``config.app``) sets the
    cloud site's compute slowdown; a simulation of a custom profile passes
    the same profile to :class:`~repro.sim.multisite.MultiSiteSimulation`.
    """
    cal = calibration
    profile = profile or get_profile(config.app)

    def jitter(model: VariabilityModel, salt: int) -> VariabilityModel:
        # The two-site model salts each site's jitter seed with its own
        # constant; the engine salts every site with JITTER_SALT. XOR is
        # its own inverse, so applying both here leaves exactly
        # ``seed ^ (config.seed * salt)`` after the engine's pass.
        return replace(
            model,
            seed=model.seed ^ (config.seed * salt) ^ (config.seed * JITTER_SALT),
        )

    cores = dict(config.compute.sites)
    return MultiSiteConfig(
        name=config.name,
        app=config.app,
        dataset=config.dataset,
        sites=(
            SiteSpec(
                name=LOCAL_SITE,
                cores=cores[LOCAL_SITE],
                data_files=config.local_files,
                storage=cal.disk_to_local,
                variability=jitter(cal.local_variability, 2654435761),
                intra_bandwidth=cal.intra_local_bandwidth,
            ),
            SiteSpec(
                name=CLOUD_SITE,
                cores=cores[CLOUD_SITE],
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
