"""Tests for the generate/run CLI pair (disk-backed datasets)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_generate_then_run(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main([
        "generate", "histogram", "--out", str(out), "--units", "2048",
        "--files", "4", "--chunks-per-file", "2", "--local-fraction", "0.5",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "wrote 8 chunks" in text
    assert (out / "index.json").is_file()
    assert (out / "dataset.json").is_file()
    # Half the files in each site directory.
    assert len(list((out / "local").rglob("*.bin"))) == 2
    assert len(list((out / "cloud").rglob("*.bin"))) == 2

    code = main(["run", str(out), "--local-cores", "2", "--cloud-cores", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "app: histogram" in text
    assert "ndarray" in text
    assert "local-cluster" in text and "cloud-cluster" in text


def test_run_results_deterministic_for_a_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "wordcount", "--out", str(out), "--units", "1024",
          "--files", "2", "--chunks-per-file", "2"])
    capsys.readouterr()
    main(["run", str(out)])
    first = capsys.readouterr().out
    main(["run", str(out)])
    second = capsys.readouterr().out
    # Result lines identical (wall time differs).
    assert first.splitlines()[1] == second.splitlines()[1]


def test_generate_rejects_indivisible_units(tmp_path, capsys):
    code = main([
        "generate", "knn", "--out", str(tmp_path / "x"), "--units", "1000",
        "--files", "3", "--chunks-per-file", "7",
    ])
    assert code == 1
    assert "divisible" in capsys.readouterr().err


def test_run_rejects_non_dataset_dir(tmp_path, capsys):
    code = main(["run", str(tmp_path)])
    assert code == 1
    assert "generated dataset" in capsys.readouterr().err


def test_generated_meta_contents(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["--seed", "7", "generate", "knn", "--out", str(out),
          "--units", "512", "--files", "2", "--chunks-per-file", "2"])
    meta = json.loads((out / "dataset.json").read_text())
    assert meta["app"] == "knn"
    assert meta["units"] == 512
    assert meta["seed"] == 7


def test_run_with_sync_flags_prints_accounting(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "wordcount", "--out", str(out), "--units", "1024",
          "--files", "2", "--chunks-per-file", "2"])
    capsys.readouterr()
    code = main([
        "run", str(out),
        "--sync-topology", "tree", "--sync-encoding", "delta",
        "--sync-compress", "zlib", "--sync-stream", "--sync-watermark", "2",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "sync: tree/delta/zlib" in text
    assert "wire bytes" in text and "off dense" in text

    # The same run without sync flags matches result-for-result.
    main(["run", str(out)])
    plain = capsys.readouterr().out
    assert plain.splitlines()[1] == text.splitlines()[1]


def test_run_rejects_unknown_sync_values(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "wordcount", "--out", str(out), "--units", "256",
          "--files", "1", "--chunks-per-file", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["run", str(out), "--sync-topology", "mesh"])
