"""Pay-as-you-go cost accounting for cloud-bursting runs.

The paper motivates cloud bursting economically — avoid over-provisioning
base resources, pay the cloud only for peaks — but reports no dollar
figures. This module closes that loop: given an experiment's
:class:`~repro.obs.record.RunTelemetry`, it prices the run under a
2011-era AWS tariff (the era of the paper's evaluation):

* EC2 ``m1.large``: $0.34/hour for a 2-core instance, billed per
  instance-hour (partial hours round up, as EC2 did until 2017);
* S3 egress to the internet (stolen chunks fetched by the campus cluster,
  and the reduction object pushed from EC2 to the campus head): $0.150/GB;
* S3 -> EC2 transfer: free (the in-AWS path — the asymmetry Palankar et
  al. highlighted and the paper exploits);
* S3 GET requests: $0.01 per 10,000.

The campus cluster is priced at an amortized rate per core-hour so that
"centralized local" is not artificially free — the default $0.03/core-hour
approximates hardware+power amortization of a 2011 commodity cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..apps.base import get_profile
from ..config import CLOUD_SITE, LOCAL_SITE, DatasetSpec
from ..errors import ConfigurationError
from ..facade import RunConfig
from ..obs.record import RunTelemetry
from ..units import GB

__all__ = ["PricingModel", "CostBreakdown", "price_run", "AWS_2011"]


@dataclass(frozen=True)
class PricingModel:
    """Tariff knobs, all in dollars."""

    ec2_instance_hour: float = 0.34  # m1.large on-demand, 2011
    ec2_cores_per_instance: int = 2
    s3_egress_per_gb: float = 0.150
    s3_get_per_10k: float = 0.01
    local_core_hour: float = 0.03  # amortized campus cost

    def __post_init__(self) -> None:
        for field_name in (
            "ec2_instance_hour",
            "s3_egress_per_gb",
            "s3_get_per_10k",
            "local_core_hour",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} cannot be negative")
        if self.ec2_cores_per_instance <= 0:
            raise ConfigurationError("ec2_cores_per_instance must be positive")


#: The tariff in force around the paper's evaluation (mid-2011, us-east-1).
AWS_2011 = PricingModel()


@dataclass(frozen=True)
class CostBreakdown:
    """Dollars per run, by line item."""

    ec2_compute: float
    s3_egress: float
    s3_requests: float
    local_compute: float

    @property
    def cloud_total(self) -> float:
        """The marginal bill from the cloud provider."""
        return self.ec2_compute + self.s3_egress + self.s3_requests

    @property
    def total(self) -> float:
        return self.cloud_total + self.local_compute

    def render(self) -> str:
        return (
            f"EC2 ${self.ec2_compute:.2f} + egress ${self.s3_egress:.2f} + "
            f"requests ${self.s3_requests:.2f} + local ${self.local_compute:.2f} "
            f"= ${self.total:.2f}"
        )


def _egress_bytes(app: str, dataset: DatasetSpec, report: RunTelemetry) -> int:
    """Bytes leaving AWS: chunks the campus cluster stole from S3 plus the
    EC2 cluster's reduction object (when the run spans both sites)."""
    out = 0
    for cluster in report.clusters.values():
        if cluster.site == LOCAL_SITE:
            out += cluster.jobs_stolen * dataset.chunk_bytes
    if len(report.clusters) > 1:
        out += get_profile(app).robj_bytes
    return out


def _s3_requests(config: RunConfig, report: RunTelemetry) -> int:
    """GET count: every S3-hosted chunk is fetched with one ranged GET per
    retrieval connection."""
    connections = config.tuning.retrieval_threads
    gets = 0
    for cluster in report.clusters.values():
        if cluster.site == CLOUD_SITE:
            # Non-stolen cloud jobs come from S3; stolen ones from campus.
            gets += (cluster.jobs_processed - cluster.jobs_stolen) * connections
        else:
            gets += cluster.jobs_stolen * connections
    return gets


def price_run(
    app: str,
    dataset: DatasetSpec,
    config: RunConfig,
    report: RunTelemetry,
    pricing: PricingModel = AWS_2011,
) -> CostBreakdown:
    """Price one simulated run of ``app`` over ``dataset`` with ``config``
    under ``pricing``."""
    hours = report.makespan / 3600.0
    cloud_cores = config.compute.cloud_cores
    instances = math.ceil(cloud_cores / pricing.ec2_cores_per_instance)
    billed_hours = math.ceil(hours) if cloud_cores else 0
    ec2 = instances * billed_hours * pricing.ec2_instance_hour

    egress_gb = _egress_bytes(app, dataset, report) / GB
    egress = egress_gb * pricing.s3_egress_per_gb

    requests = _s3_requests(config, report) / 10_000 * pricing.s3_get_per_10k

    local = config.compute.local_cores * hours * pricing.local_core_hour
    return CostBreakdown(
        ec2_compute=ec2,
        s3_egress=egress,
        s3_requests=requests,
        local_compute=local,
    )
