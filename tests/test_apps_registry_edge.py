"""Edge-case tests for the application registry and bundles."""

from __future__ import annotations

import pytest

from repro.apps.base import (
    AppBundle,
    AppProfile,
    get_app_factory,
    get_profile,
    make_bundle,
    register_app,
)
from repro.apps.histogram import HistogramApp
from repro.data.records import VALUE_SCHEMA, point_schema
from repro.errors import ConfigurationError


def test_bundle_schema_profile_mismatch_rejected():
    profile = AppProfile(key="t", unit_cost_local=1e-8, cloud_slowdown=1.0,
                         robj_bytes=8, record_bytes=4)  # schema is 8 B
    with pytest.raises(ConfigurationError, match="record size"):
        AppBundle(
            profile=profile,
            app=HistogramApp(bins=4),
            schema=VALUE_SCHEMA,
            block_fn=lambda s, c, i: None,
        )


def test_register_duplicate_key_rejected():
    profile = get_profile("knn")
    with pytest.raises(ConfigurationError, match="already registered"):
        register_app(profile, get_app_factory("knn"))


def test_make_bundle_passes_params_through():
    bundle = make_bundle("histogram", 256, bins=7)
    assert bundle.app.bins == 7
    bundle2 = make_bundle("kmeans", 256, dims=5, k=3)
    assert bundle2.app.centroids.shape == (3, 5)


def test_bundle_block_fn_deterministic_per_seed():
    a = make_bundle("knn", 128, seed=3)
    b = make_bundle("knn", 128, seed=3)
    c = make_bundle("knn", 128, seed=4)
    import numpy as np

    np.testing.assert_array_equal(a.block_fn(0, 64, 0), b.block_fn(0, 64, 0))
    assert not np.array_equal(
        a.block_fn(0, 64, 0)["coords"], c.block_fn(0, 64, 0)["coords"]
    )
