"""Data-organization substrate: record schemas, synthetic generators, and
the files -> chunks -> units machinery of Section III-B."""

from .dataset import build_dataset
from .generators import mixture_values

__all__ = ["build_dataset", "mixture_values"]
