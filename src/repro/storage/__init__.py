"""Storage substrate: the campus storage node (filesystem-backed) and the
S3-like object store, behind one byte-range interface."""

from .objectstore import ObjectStore

__all__ = ["ObjectStore"]
