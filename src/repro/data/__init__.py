"""Data-organization substrate: record schemas, synthetic generators, and
the files -> chunks -> units machinery of Section III-B."""

from .dataset import BlockFn, DatasetReader, build_dataset
from .generators import (
    gaussian_points,
    labeled_gaussian_points,
    mixture_values,
    powerlaw_edges,
    zipf_tokens,
)
from .records import (
    EDGE_SCHEMA,
    TOKEN_SCHEMA,
    VALUE_SCHEMA,
    RecordSchema,
    idpoint_schema,
    point_schema,
)

__all__ = [
    "BlockFn",
    "DatasetReader",
    "build_dataset",
    "gaussian_points",
    "labeled_gaussian_points",
    "mixture_values",
    "powerlaw_edges",
    "zipf_tokens",
    "EDGE_SCHEMA",
    "TOKEN_SCHEMA",
    "VALUE_SCHEMA",
    "RecordSchema",
    "idpoint_schema",
    "point_schema",
]
