#!/usr/bin/env python3
"""Wall-clock benchmark of the executable runtime: five workloads, each in
its own fresh subprocess, every value checked against the serial oracle.

    python3 benchmarks/e2e/run.py                      # all five, traced
    python3 benchmarks/e2e/run.py --workload kmeans_wan_iter --trace 0
    python3 benchmarks/e2e/run.py --smoke              # 1/16 scale, seconds
    python3 benchmarks/e2e/run.py --json out.json --trace-out spans.jsonl
    python3 benchmarks/e2e/run.py --selfcheck 5        # stability acceptance
    python3 benchmarks/e2e/run.py compare a1.json a2.json -- b1.json b2.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, both
without ``--trace``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The contract allows a run 180 s; leave the parent time to report.
CHILD_TIMEOUT = 170.0
CALIBRATION_BYTES = 64 * 1024 * 1024


class MachineProbe:
    """Machine readings taken in this (the parent) process, around each
    workload's subprocess, so their buffers never count in its peak RSS.
    They are reported, never applied (the scaling of timings is
    ``workloads.Calibration``'s job, inside the subprocess).

    ``calib_mb_s`` is the best of five 64 MiB copies on one thread.
    ``calib_par_speedup`` is how much more two threads compute at once
    than one in the same time — about 2 on two free cores, about 1 in the
    episodes where this sandbox gives two busy threads one core. It uses
    a compute kernel over 4 MiB arrays, not the copy: the copy is bound
    by memory bandwidth and reads 1.0-1.2 on free cores too, and numpy
    calls on arrays much smaller than this never overlap across threads.
    """

    PAR_ELEMENTS = 512 * 1024

    def __init__(self, copy_bytes: int, crunch_rounds: int) -> None:
        self.src = np.ones(copy_bytes // 8)
        self.dst = np.empty_like(self.src)
        self.x = np.linspace(1.0, 2.0, self.PAR_ELEMENTS)
        self.outs = [np.empty_like(self.x) for _ in range(2)]
        self.crunch_rounds = crunch_rounds
        np.copyto(self.dst, self.src)  # first touch, untimed
        for out in self.outs:
            self._crunch(out)

    def _crunch(self, out: np.ndarray) -> None:
        for _ in range(self.crunch_rounds):
            np.sqrt(self.x, out=out)
            np.multiply(out, self.x, out=out)

    @staticmethod
    def _best(work, threads: int) -> float:
        """Best of five: ``threads`` threads each doing ``work(i)`` at once."""
        best = float("inf")
        for _ in range(5):
            crew = [
                threading.Thread(target=work, args=(i,)) for i in range(threads)
            ]
            started = time.perf_counter()
            for thread in crew:
                thread.start()
            for thread in crew:
                thread.join()
            best = min(best, time.perf_counter() - started)
        return best

    def read(self) -> dict[str, float]:
        def crunch(i: int) -> None:
            self._crunch(self.outs[i])

        copy = self._best(lambda i: np.copyto(self.dst, self.src), 1)
        return {
            "calib_mb_s": self.src.nbytes / 1e6 / copy,
            "calib_par_speedup": (
                2 * self._best(crunch, 1) / self._best(crunch, 2)
            ),
        }


def declarations() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(name: str, args: argparse.Namespace, trace_out: str | None) -> dict:
    """One workload in a fresh interpreter; returns the document it prints."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0" if args.trace == 0 else "1",
    ]
    if args.smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def child_main(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Scale, run_workload

    doc = run_workload(
        args.child, args.seed, Scale(args.seconds, args.smoke),
        trace=args.trace != 0, trace_out=args.trace_out,
    )
    print(json.dumps(doc))


def run_set(
    names: list[str],
    args: argparse.Namespace,
    decl: dict,
    probe: MachineProbe | None,
) -> list[dict]:
    """Run the named workloads once each; print and return their documents.

    ``probe`` is ``None`` when only end-to-end metrics are asked for: the
    machine readings are per-layer metrics, and taking them costs seconds.
    """
    docs = []
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            stem, ext = os.path.splitext(trace_out)
            trace_out = f"{stem}.{name}{ext}"
        before = probe.read() if probe else None
        doc = run_child(name, args, trace_out)
        doc["machine"] = [before, probe.read()] if probe else []
        if probe:
            for key in before:
                doc["per_layer"][f"machine.{key}"] = {
                    "value": (before[key] + doc["machine"][1][key]) / 2, "n": 2,
                }
        for section in ("end_to_end", "per_layer"):
            if doc[section] is not None:
                declared = {m["name"] for m in decl[section]}
                if set(doc[section]) != declared:
                    raise SystemExit(
                        f"{name} {section}: emitted and declared metrics differ: "
                        f"{sorted(set(doc[section]) ^ declared)}"
                    )
        report.print_result(doc, decl)
        docs.append(doc)
    return docs


def contract_line(docs: list[dict], decl: dict, trace: int | None) -> str:
    """The builder contract's result object for the workloads just run."""
    sections = {0: ["end_to_end"], 1: ["per_layer"]}.get(
        trace, ["end_to_end", "per_layer"]
    )
    metrics = {}
    for doc in docs:
        prefix = f"{doc['workload']}." if len(docs) > 1 else ""
        for section in sections:
            for metric in decl[section]:
                metrics[prefix + metric["name"]] = {
                    "value": doc[section][metric["name"]]["value"],
                    "unit": metric["unit"],
                }
    return json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    })


def selfcheck(
    names: list[str],
    args: argparse.Namespace,
    decl: dict,
    probe: MachineProbe | None,
) -> int:
    """Two interleaved sets of runs of this same code must agree within
    every metric's bound."""
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(2 * args.selfcheck):
        label = "AB"[i % 2]
        print(f"-- selfcheck run {i // 2 + 1}/{args.selfcheck} of set {label}")
        sets[label].extend(run_set(names, args, decl, probe))
    rows = report.compare_rows(sets["A"], sets["B"], decl)
    report.print_rows(rows)
    for label, docs in sets.items():
        report.print_machine(label, docs)
    apart = [r for r in rows if abs(r["change"]) > r["bound"]]
    for row in apart:
        print(
            f"APART {row['workload']} {row['metric']}: medians differ by "
            f"{abs(row['change']):.1%}, bound {row['bound']:.0%}"
        )
    failed = sum(d["failed"] for docs in sets.values() for d in docs)
    return 1 if apart or failed else 0


def compare_main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: run.py compare A.json... -- B.json...")
    split = argv.index("--")
    a_docs = report.load_results(argv[:split])
    b_docs = report.load_results(argv[split + 1 :])
    report.print_rows(report.compare_rows(a_docs, b_docs, declarations()))
    report.print_machine("A", a_docs)
    report.print_machine("B", b_docs)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    decl = declarations()
    known = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=decl["run_seconds"],
                        help="size of the timed region; counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="1/16 of every size and count; not comparable")
    parser.add_argument("--json", metavar="OUT", help="write the results here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced pass's spans here as JSONL")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5, metavar="N",
                        help="run two interleaved sets of N and compare them")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    names = args.workload or known
    probe = None
    if args.trace != 0:
        probe = MachineProbe(
            CALIBRATION_BYTES // (16 if args.smoke else 1),
            crunch_rounds=2 if args.smoke else 20,
        )
    if args.selfcheck:
        return selfcheck(names, args, decl, probe)
    docs = run_set(names, args, decl, probe)
    if args.json:
        Path(args.json).write_text(json.dumps({
            "benchmark": "benchmarks/e2e",
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "results": docs,
        }, indent=1), encoding="utf-8")
    print(contract_line(docs, decl, args.trace))
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
