"""The benchmark at ``--smoke`` scale emits exactly what BENCHMARK.json declares.

Not part of tier-1 (``pyproject.toml`` ``testpaths`` stays ``tests``); run as
``python -m pytest benchmarks/e2e/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text("utf-8"))
SPAN_FIELDS = {"id", "name", "start", "end", "thread", "parent", "run", "value"}


def test_smoke_emits_the_declared_workloads_and_metrics(tmp_path):
    out, spans = tmp_path / "smoke.json", tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--json", str(out), "--trace-out", str(spans)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    workloads = [w["name"] for w in DECLARED["workloads"]]
    doc = json.loads(out.read_text("utf-8"))
    assert doc["smoke"] is True and doc["seed"] == 2011
    assert [r["workload"] for r in doc["results"]] == workloads
    by_name = {r["workload"]: r for r in doc["results"]}
    for result in doc["results"]:
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert len(result["machine"]) == 2
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in DECLARED[section]}
            assert set(result[section]) == declared
            for entry in result[section].values():
                assert set(entry) == {"value", "n"}

    # Printed: one line per workload x metric, with its unit and n.
    lines = done.stdout.splitlines()
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        shown = [ln.split() for ln in lines if ln.split()[:1] == [metric["name"]]]
        assert len(shown) == len(workloads), metric["name"]
        for words in shown:
            assert words[2] == metric["unit"]
            assert words[3].startswith("n=") or words[3:] == ["not", "exercised"]

    # The contract's result object is the last line.
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    units = {
        m["name"]: m["unit"]
        for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    }
    assert len(last["metrics"]) == len(workloads) * len(units)
    for name, entry in last["metrics"].items():
        workload, _, metric = name.partition(".")
        assert workload in workloads and entry["unit"] == units[metric]

    # Counts that hold at any scale: the WAN is paid once per rep, and the
    # same-site read path copies nothing.
    wan = by_name["kmeans_wan_iter"]["per_layer"]
    assert wan["cache.misses"]["value"] == 32
    assert wan["cache.hits"]["value"] == 96
    assert wan["cache.hit_ratio"]["value"] == 0.75
    for name in ("kmeans_cpu_thread", "kmeans_cpu_process"):
        assert by_name[name]["per_layer"]["data.bytes_copied_mb"]["value"] == 0

    for workload in workloads:
        with open(tmp_path / f"spans.{workload}.jsonl", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert set(first) == SPAN_FIELDS
