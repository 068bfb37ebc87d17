"""Paper-calibrated simulator parameters.

The resource numbers below are derived from the paper's Section IV setup
and its reported timings rather than measured on the original testbed
(which no longer exists). Where the paper gives a number we use it; where
it gives a curve we back the parameter out of the curve:

* campus storage node: 120 GB retrieved by 32 slaves in ~215 s in
  env-local (Fig. 3a) -> ~18 MB/s per slave ingest, ~600 MB/s trunk;
* S3 -> EC2: env-cloud knn retrieval is *shorter* than env-local
  (Section IV-B) -> ~5 MB/s per connection x 4 retrieval threads
  (why multi-threaded retrieval pays), ~700 MB/s trunk;
* WAN S3 -> campus: knn env-17/83 slowdown growth (Table II) ->
  ~120 MB/s aggregate, ~3 MB/s per connection;
* reduction-object WAN push: pagerank's ~300 MB object takes ~37-42 s
  (Table II) -> ~8 MB/s effective single-flow rate, which the per-flow
  cap reproduces;
* EC2 variability sigma from the paper's note on virtualization jitter.

With these values the simulator lands an average hybrid slowdown of ~9%
(paper: 15.55%) and an average speedup per core-doubling of ~83%
(paper: 81%), with every qualitative ordering preserved (see
EXPERIMENTS.md for the full paper-vs-measured table).

All values live in one frozen dataclass so ablations can ``replace`` a
single knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.variability import EC2_VARIABILITY, LOCAL_VARIABILITY, VariabilityModel
from ..errors import CalibrationError
from ..units import GB, MB
from .storagemodel import StorePath

__all__ = ["SimCalibration", "PAPER_CALIBRATION"]


@dataclass(frozen=True)
class SimCalibration:
    """Every resource parameter the simulator needs."""

    # Storage access paths (bytes/second, seconds).
    disk_to_local: StorePath
    s3_to_cloud: StorePath
    s3_to_local: StorePath  # WAN: cloud storage -> campus slaves
    disk_to_cloud: StorePath  # WAN: campus storage -> EC2 slaves

    # Control-plane one-way latencies.
    lan_latency: float = 0.0002
    wan_latency: float = 0.055

    # Reduction-object movement.
    intra_local_bandwidth: float = 1.5 * GB  # Infiniband fabric
    intra_cloud_bandwidth: float = 400 * MB  # EC2 internal network
    wan_robj_per_flow: float = 8 * MB  # single-stream WAN push rate

    # Compute-time jitter per site.
    local_variability: VariabilityModel = LOCAL_VARIABILITY
    cloud_variability: VariabilityModel = EC2_VARIABILITY

    def __post_init__(self) -> None:
        for name in ("lan_latency", "wan_latency"):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} cannot be negative")
        for name in (
            "intra_local_bandwidth",
            "intra_cloud_bandwidth",
            "wan_robj_per_flow",
        ):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")

    def with_changes(self, **changes) -> "SimCalibration":
        """Ablation helper: replace selected knobs."""
        return replace(self, **changes)


PAPER_CALIBRATION = SimCalibration(
    # The slave-side ingest rate (NFS client / chunk pipeline), not the
    # storage array, is the binding constraint at the paper's scale: that
    # is what makes hybrid retrieval time roughly invariant to halving the
    # cores (each slave still ingests its share at the same rate), which
    # Figure 3 exhibits. The trunk matters only near 32 concurrent readers.
    disk_to_local=StorePath(
        name="disk->local",
        bandwidth=600 * MB,
        per_connection_cap=18 * MB,
        request_latency=0.0005,
        file_service_cap=None,  # one disk array: aggregate bw is the cap
        seek_time=0.008,
        random_penalty=1.6,
    ),
    s3_to_cloud=StorePath(
        name="s3->ec2",
        bandwidth=700 * MB,
        per_connection_cap=5 * MB,
        request_latency=0.045,
        file_service_cap=None,  # S3 range-GETs scale per key inside AWS
        seek_time=0.0,
        random_penalty=1.0,
    ),
    s3_to_local=StorePath(
        name="s3->campus(wan)",
        bandwidth=120 * MB,
        per_connection_cap=3 * MB,
        request_latency=0.065,
        file_service_cap=64 * MB,
        seek_time=0.0,
        random_penalty=1.0,
    ),
    disk_to_cloud=StorePath(
        name="disk->ec2(wan)",
        bandwidth=110 * MB,
        per_connection_cap=3 * MB,
        request_latency=0.065,
        file_service_cap=64 * MB,
        seek_time=0.008,
        random_penalty=1.3,
    ),
)
