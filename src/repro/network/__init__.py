"""Network substrate: link description and transfer cost models."""

from .topology import Link
from .transfer import (
    parallel_transfer_time,
    sync_aggregation_time,
    transfer_time,
)

__all__ = [
    "Link",
    "parallel_transfer_time",
    "sync_aggregation_time",
    "transfer_time",
]
