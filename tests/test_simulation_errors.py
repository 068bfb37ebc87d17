"""Error-path tests: misconfigured simulations fail loudly, not silently."""

from __future__ import annotations

import pytest

from repro import RunConfig
from repro.config import (
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.errors import SimulationError

from conftest import two_site


def tiny_config(app="knn", **overrides):
    """``(app, dataset, config)``: all data in the cloud, compute local."""
    params = dict(
        name="err",
        placement=PlacementSpec(local_fraction=0.0),
        compute=ComputeSpec(local_cores=2, cloud_cores=0),
        tuning=MiddlewareTuning(),
    )
    params.update(overrides)
    dataset = DatasetSpec(total_bytes=4 * 2 * 1024, num_files=4,
                          chunk_bytes=512, record_bytes=4)
    return app, dataset, RunConfig(**params)


def test_stranded_data_without_stealing_is_detected():
    """All data in the cloud, compute only local, stealing disabled: the
    jobs can never be assigned — the simulation must raise, not return a
    report that silently skipped data."""
    config = tiny_config(tuning=MiddlewareTuning(allow_stealing=False))
    with pytest.raises(SimulationError, match="unassigned"):
        two_site(*config).run()


def test_stealing_rescues_the_same_configuration():
    config = tiny_config()  # stealing on by default
    report = two_site(*config).run()
    assert report.total_jobs == 16
    assert report.cluster("local-cluster").jobs_stolen == 16


def test_unknown_app_fails_at_construction():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown application"):
        two_site(*tiny_config(app="does-not-exist"))
