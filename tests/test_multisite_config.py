"""Tests for the declarative multisite JSON loader and its CLI command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.sim.multisite import MultiSiteSimulation, load_multisite_config
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
