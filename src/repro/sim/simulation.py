"""The paper's testbed: campus cluster + AWS, as a two-site configuration.

:func:`two_site_config` translates an application, a dataset and a
:class:`~repro.facade.RunConfig` (its placement, compute split, tuning
and seed) under a :class:`~repro.sim.calibration.SimCalibration` into
the :class:`~repro.sim.multisite.MultiSiteConfig` of the paper's setup,
which the one engine runs::

    MultiSiteSimulation(two_site_config(app, dataset, config)).run()

``repro.run(app, dataset, config)`` in simulate mode is that call; build
the simulation by hand only for what ``RunConfig`` has no field for (a
calibration, a custom profile, ``static_assignment``).

The head node is hosted at the campus cluster in every configuration, as
in the paper (env-cloud shows master<->head WAN delays in Section IV-B),
so the cloud is the site that bursts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..apps.base import AppProfile, get_profile
from ..cluster.variability import VariabilityModel
from ..config import DatasetSpec
from .calibration import PAPER_CALIBRATION, SimCalibration
from .multisite import JITTER_SALT, CrossPath, MultiSiteConfig, SiteSpec

if TYPE_CHECKING:  # the facade builds its simulations here
    from ..facade import RunConfig

__all__ = ["two_site_config"]


def two_site_config(
    app: str,
    dataset: DatasetSpec,
    config: RunConfig,
    calibration: SimCalibration = PAPER_CALIBRATION,
    profile: AppProfile | None = None,
) -> MultiSiteConfig:
    """The paper's campus + AWS testbed as an N-site configuration.

    ``config.compute`` and ``config.placement`` give the two sites, the
    head's (campus) first; ``profile`` (default: the registered one for
    ``app``) sets the cloud site's compute slowdown. A simulation of a
    custom profile passes the same profile to
    :class:`~repro.sim.multisite.MultiSiteSimulation`.
    """
    cal = calibration
    profile = profile or get_profile(app)
    seed = config.seed

    def jitter(model: VariabilityModel, salt: int) -> VariabilityModel:
        # The two-site model salts each site's jitter seed with its own
        # constant; the engine salts every site with JITTER_SALT. XOR is
        # its own inverse, so applying both here leaves exactly
        # ``seed ^ (config.seed * salt)`` after the engine's pass.
        return replace(
            model, seed=model.seed ^ (seed * salt) ^ (seed * JITTER_SALT)
        )

    (local, local_cores), (cloud, cloud_cores) = config.compute.sites
    files = dict(config.placement.sites(dataset.num_files))
    return MultiSiteConfig(
        name=config.name,
        app=app,
        dataset=dataset,
        sites=(
            SiteSpec(
                name=local,
                cores=local_cores,
                data_files=files[local],
                storage=cal.disk_to_local,
                variability=jitter(cal.local_variability, 2654435761),
                intra_bandwidth=cal.intra_local_bandwidth,
            ),
            SiteSpec(
                name=cloud,
                cores=cloud_cores,
                data_files=files[cloud],
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
            CrossPath(src=local, dst=cloud, path=cal.disk_to_cloud),
            CrossPath(src=cloud, dst=local, path=cal.s3_to_local),
        ),
        head_site=local,
        tuning=config.tuning,
        control_latency=cal.wan_latency,
        lan_latency=cal.lan_latency,
        robj_flow_rate=cal.wan_robj_per_flow,
        seed=seed,
    )
