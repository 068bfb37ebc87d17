"""CLI misuse ends in one `error:` line on stderr and exit 1 — no
traceback, nothing on stdout first — and `submit` does not depend on
the hash seed."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("command", ["report", "multisite"])
def test_missing_input_file_is_a_one_line_error(capsys, tmp_path, command):
    missing = tmp_path / "missing.json"
    code = main([command, str(missing)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(missing) in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["watch", "knn", "--deadline", "3"], "add --autoscale"),
        (["watch", "knn", "--units", "100"], "--units must be divisible"),
        (["trace", "knn", "--runtime", "--units", "100"], "--units must be divisible"),
        # `watch` samples for its feed: MonitorOptions rejects a sampler
        # that would never run, or run backwards.
        (["watch", "kmeans", "--interval", "0"], "monitor"),
        (["watch", "kmeans", "--interval", "-1"], "monitor"),
    ],
)
def test_rejected_flags_print_nothing_first(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_submit_tenant_order_ignores_the_hash_seed():
    """Tenants register, and `dispatched per tenant:` lists them, in
    first-appearance order (submissions, then --weight-only names)."""

    def submit(hash_seed: str) -> str:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "zeta:wordcount",
             "alpha:wordcount", "mid:wordcount", "--units", "256",
             "--weight", "extra=3"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return re.sub(r"\d+\.\d{3}s wall", "#s wall", proc.stdout)

    first, second = submit("1"), submit("2")
    assert first == second
    assert (
        "dispatched per tenant: {'zeta': 1, 'alpha': 1, 'mid': 1, 'extra': 0}"
        in first
    )
    # Three runs of one app over one dataset: the service builds it once.
    assert "datasets built: 1 for 3 runs" in first


def test_submit_sizes_the_dataset_from_the_bundle_schema(capsys):
    """knn's bundle widens the registry profile's record (4 -> 24 bytes);
    the dataset `submit` builds must follow the bundle, as `watch` does."""
    code = main(["submit", "knn", "--units", "256"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert re.search(r"run-00001 +default +knn +done +ok", captured.out)
