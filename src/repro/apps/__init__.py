"""Evaluation applications.

Importing this package registers all bundled applications:
the paper's three (knn, kmeans, pagerank) plus wordcount and histogram.
"""

# Importing each app module registers it under its key.
from . import histogram, kmeans, knn, moments, pagerank, wordcount  # noqa: F401
from .base import AppBundle, available_apps, get_app_factory, make_bundle

__all__ = ["AppBundle", "available_apps", "get_app_factory", "make_bundle"]

PAPER_APPS = ("knn", "kmeans", "pagerank")
