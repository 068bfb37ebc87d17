"""Network links between the sites.

Two sites exist in the paper's deployment — the campus cluster and AWS —
with three link classes that matter to the middleware:

* intra-cluster (Infiniband / EC2 internal): fast, effectively never the
  bottleneck for control messages;
* storage-to-compute at one site (storage node -> local slaves, S3 -> EC2);
* the WAN between sites (S3 -> local slaves and the reduction-object
  exchange), which is where cloud bursting's overheads live.

A :class:`Link` is described by latency, aggregate bandwidth, and an
optional per-flow bandwidth cap (an S3 connection cannot exceed a few tens
of MB/s no matter how idle the trunk is, which is exactly why the paper's
slaves open multiple retrieval threads).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["Link"]


@dataclass(frozen=True)
class Link:
    """A directed network path between two endpoints."""

    src: str
    dst: str
    bandwidth: float  # aggregate bytes/second
    latency: float = 0.0  # one-way seconds
    per_flow_cap: float | None = None  # bytes/second per connection

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(f"link {self.src}->{self.dst}: bandwidth must be positive")
        if self.latency < 0:
            raise ConfigurationError(f"link {self.src}->{self.dst}: negative latency")
        if self.per_flow_cap is not None and self.per_flow_cap <= 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: per_flow_cap must be positive"
            )

    def flow_rate(self, concurrent_flows: int) -> float:
        """Fair-share rate of one flow among ``concurrent_flows``."""
        if concurrent_flows <= 0:
            raise ConfigurationError("flow count must be positive")
        share = self.bandwidth / concurrent_flows
        if self.per_flow_cap is not None:
            share = min(share, self.per_flow_cap)
        return share
