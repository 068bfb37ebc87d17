"""Reading results: the per-run table, ``compare`` and the ``--selfcheck`` table.

All three work on the documents ``run.py --json`` writes and on the
metric declarations of ``BENCHMARK.json`` (unit, direction, bound).
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable

__all__ = [
    "print_result",
    "load_results",
    "compare_rows",
    "print_rows",
    "print_machine",
]


def print_result(doc: dict, decl: dict) -> None:
    """Every metric of one workload run by name, with unit and sample count.

    End-to-end timings are in calibrated seconds; the raw wall-clock value
    of the same statistic follows in brackets."""
    note = "  [smoke: not comparable]" if doc["smoke"] else ""
    calib = doc["calibration"]
    print(
        f"== {doc['workload']}  seed={doc['seed']} seconds={doc['seconds']:g}"
        f"  operations {doc['attempted'] - doc['failed']}/{doc['attempted']} ok"
        f"  wall {doc['wall_s']:.1f} s  calibration kernel "
        f"{1e3 * calib['median_s']:.1f} ms (reference "
        f"{1e3 * calib['reference_s']:.0f} ms, n={calib['n']}){note}"
    )
    for section in ("end_to_end", "per_layer"):
        found = doc.get(section)
        if not found:
            continue
        print(f"  {section}")
        raw = doc.get(f"{section}_raw", {})
        for metric in decl[section]:
            name = metric["name"]
            entry = found[name]
            n = f"n={entry['n']}" if entry["n"] else "not exercised"
            wall = f"  [raw {raw[name]['value']:.6g}]" if name in raw else ""
            print(
                f"    {name:<30} {entry['value']:>14.6g} {metric['unit']:<6} "
                f"{n}{wall}"
            )


def load_results(paths: Iterable[str]) -> list[dict]:
    """The per-workload documents of every file, in order."""
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.extend(json.load(handle)["results"])
    return docs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _verdict(a: list[float], b: list[float], lower_is_better: bool, bound: float):
    """``(change, verdict)``: ``change`` is B's median against A's as a share
    of A's, positive when worse.

    ``better`` follows the choosing-metrics guide: every B run beats every
    A run, or — the runs of the two sets pairing up in order — B wins at
    least nine pairs in ten and the medians differ by more than A's own
    quartile range.
    """
    (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (bm - am) / am
    if max(b) < min(a) if lower_is_better else min(b) > max(a):
        return change, "better"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if len(a) == len(b) and wins >= 0.9 * len(a) and -change > (a3 - a1) / am:
        return change, "better"
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    return change, "same"


def compare_rows(a_docs: list[dict], b_docs: list[dict], decl: dict) -> list[dict]:
    """One row per workload x end-to-end metric for two sets of results."""

    def values(docs: list[dict], workload: str, metric: str) -> list[float]:
        return [
            d["end_to_end"][metric]["value"]
            for d in docs
            if d["workload"] == workload and metric in d["end_to_end"]
        ]

    rows = []
    for workload in [w["name"] for w in decl["workloads"]]:
        for metric in decl["end_to_end"]:
            a = values(a_docs, workload, metric["name"])
            b = values(b_docs, workload, metric["name"])
            if not a or not b:
                continue
            change, verdict = _verdict(
                a, b, metric["better"] == "lower", metric["bound"]
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": _quartiles(a),
                "b": _quartiles(b),
                "n": (len(a), len(b)),
                "ratio": statistics.median(b) / statistics.median(a),
                "change": change,
                "bound": metric["bound"],
                "verdict": verdict,
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(
        f"{'workload':<19}{'metric':<16}{'unit':<6}"
        f"{'A q1 / median / q3':>34}{'B q1 / median / q3':>34}"
        f"{'B/A':>8}{'bound':>7}  verdict"
    )
    for row in rows:
        a = " / ".join(f"{x:.5g}" for x in row["a"])
        b = " / ".join(f"{x:.5g}" for x in row["b"])
        print(
            f"{row['workload']:<19}{row['metric']:<16}{row['unit']:<6}"
            f"{a:>34}{b:>34}{row['ratio']:>8.3f}{row['bound']:>7.2f}"
            f"  {row['verdict']}"
        )
    if rows:
        print("B/A is the ratio of medians with A's median as its base; "
              f"n = {rows[0]['n'][0]} and {rows[0]['n'][1]} runs.")


def print_machine(label: str, docs: list[dict]) -> None:
    """The calibration readings taken around each workload of a set."""
    readings = [r for d in docs for r in d.get("machine", [])]
    if not readings:
        return
    for key, unit in (("calib_mb_s", "MB/s"), ("calib_par_speedup", "x")):
        q1, q2, q3 = _quartiles([r[key] for r in readings])
        print(f"machine {label} {key:<18} {q1:.4g} / {q2:.4g} / {q3:.4g} {unit}")
