"""Tests for the declarative multisite JSON loader and its CLI command."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.cli import main
from repro.config import DatasetSpec
from repro.core.api import run_serial
from repro.core.sync import SyncSpec
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import ConfigurationError
from repro.obs.events import EventLog
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import MultiSiteSimulation, load_multisite_config
from repro.storage.objectstore import ObjectStore
from repro.units import MB

DOC = {
    "name": "json-three-sites",
    "app": "knn",
    "head_site": "campus",
    "seed": 5,
    "dataset": {
        "total_bytes": 6 * 4 * MB,
        "num_files": 6,
        "chunk_bytes": 1 * MB,
        "record_bytes": 4,
    },
    "sites": [
        {"name": "campus", "cores": 4, "data_files": 2,
         "storage": {"bandwidth": 200 * MB, "per_connection_cap": 20 * MB,
                     "request_latency": 0.001}},
        {"name": "aws", "cores": 4, "data_files": 2, "compute_slowdown": 1.2,
         "storage": {"bandwidth": 200 * MB, "per_connection_cap": 20 * MB,
                     "request_latency": 0.01}},
        {"name": "azure", "cores": 0, "data_files": 2,
         "storage": {"bandwidth": 200 * MB}},
    ],
    "cross_paths": [
        {"src": a, "dst": b,
         "path": {"bandwidth": 40 * MB, "per_connection_cap": 3 * MB,
                  "request_latency": 0.05}}
        for a in ("campus", "aws", "azure")
        for b in ("campus", "aws", "azure")
        if a != b
    ],
}


def test_loader_builds_runnable_config():
    config = load_multisite_config(json.dumps(DOC))
    assert config.name == "json-three-sites"
    assert len(config.sites) == 3
    assert config.head == "campus"
    assert config.seed == 5
    report = MultiSiteSimulation(config).run()
    assert report.total_jobs == 24


def test_loader_rejects_garbage():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_multisite_config("{nope")
    with pytest.raises(ConfigurationError, match="malformed"):
        load_multisite_config('{"app": "knn"}')
    typo = json.loads(json.dumps(DOC))
    typo["head_stie"] = "aws"
    with pytest.raises(ConfigurationError, match="head_stie"):
        load_multisite_config(json.dumps(typo))
    typo = json.loads(json.dumps(DOC))
    typo["sites"][1]["compute_slowdwon"] = 1.3
    with pytest.raises(ConfigurationError, match="compute_slowdwon"):
        load_multisite_config(json.dumps(typo))
    typo = json.loads(json.dumps(DOC))
    typo["cross_paths"][0]["pth"] = typo["cross_paths"][0].pop("path")
    with pytest.raises(ConfigurationError, match="pth"):
        load_multisite_config(json.dumps(typo))


@pytest.mark.parametrize(
    "where, key, value",
    [
        (lambda doc: doc["sites"][0], "cores", "four"),
        (lambda doc: doc["sites"][1], "compute_slowdown", "slow"),
        (lambda doc: doc, "control_latency", "fast"),
        (lambda doc: doc, "seed", "lucky"),
    ],
)
def test_loader_rejects_non_numeric_fields(where, key, value):
    doc = json.loads(json.dumps(DOC))
    where(doc)[key] = value
    with pytest.raises(ConfigurationError, match="malformed"):
        load_multisite_config(json.dumps(doc))


def test_loader_rejects_unknown_path_keys():
    doc = json.loads(json.dumps(DOC))
    doc["sites"][0]["storage"]["bandwidt"] = 1  # typo
    with pytest.raises(ConfigurationError, match="unknown keys"):
        load_multisite_config(json.dumps(doc))


@pytest.mark.parametrize("slave_mode", ["thread", "process"])
@pytest.mark.parametrize("topology", ["star", "tree"])
def test_three_site_config_runs_in_the_runtime(topology, slave_mode):
    """The loaded configuration's site list drives the executable runtime:
    three sites named neither ``local`` nor ``cloud``, the head at the
    second declared site, one cluster per site with cores, and only the
    uploads that leave the head's site go through the codec."""
    doc = json.loads(json.dumps(DOC))
    doc["head_site"] = "aws"
    for site, cores in zip(doc["sites"], (1, 2, 1)):
        site["cores"] = cores
    bundle = make_bundle("kmeans", 1536, seed=3)
    rb = bundle.schema.record_bytes
    doc["dataset"] = dict(
        total_bytes=1536 * rb, num_files=6, chunk_bytes=64 * rb, record_bytes=rb
    )
    config = load_multisite_config(json.dumps(doc))
    assert [site for site, _ in config.compute] == ["aws", "campus", "azure"]
    stores = {site: ObjectStore() for site, _ in config.placement}
    index = build_dataset(
        DatasetSpec(**doc["dataset"]), config.placement, bundle.schema,
        bundle.block_fn, stores,
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    log = EventLog()
    with CloudBurstingRuntime(
        bundle.app, index, stores, config.compute, trace=log,
        sync=SyncSpec(topology=topology, encoding="delta"), slave_mode=slave_mode,
    ) as runtime:
        result = runtime.run()
    np.testing.assert_allclose(result.value, oracle, rtol=1e-12, atol=1e-15)
    clusters = result.telemetry.clusters
    assert {c.site for c in clusters.values()} == {"campus", "aws", "azure"}
    encoded = {e.cluster for e in log.of_kind("sync_upload")}
    assert encoded == set(clusters) - {"aws-cluster"}


def test_cli_multisite(tmp_path, capsys):
    path = tmp_path / "ms.json"
    path.write_text(json.dumps(DOC))
    code = main(["multisite", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "json-three-sites" in out
    assert "campus" in out and "aws" in out
    # azure has no cores: only two clusters appear.
    assert "azure" not in out.split("makespan")[1]


def test_cli_multisite_json_output(tmp_path, capsys):
    path = tmp_path / "ms.json"
    path.write_text(json.dumps(DOC))
    code = main(["multisite", str(path), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "json-three-sites"
    assert doc["makespan"] > 0


def test_cli_multisite_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code = main(["multisite", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
