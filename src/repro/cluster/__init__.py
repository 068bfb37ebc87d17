"""Compute substrate: the EC2 performance-variability model."""

from .variability import EC2_VARIABILITY, LOCAL_VARIABILITY, VariabilityModel

__all__ = [
    "EC2_VARIABILITY",
    "LOCAL_VARIABILITY",
    "VariabilityModel",
]
