"""The compute path's sweep: ``units_per_group`` x slave substrate, with
and without the runtime's core budget.

The workload is ``benchmarks/e2e``'s ``kmeans_cpu_*`` shape — 4 Mi
16-byte points, 32 chunks of 131072 points, every read same-site, two
slaves — so a row here is a pass there. For each group size and each
substrate the table gives the median pass with the BLAS cap the runtime
applies (:mod:`repro.runtime.corebudget`) and with the cap *patched out
by this script* (the library has no switch for it), the peak resident
set of the driver process during the capped runs, and whether every pass
equalled the serial oracle at the same group size. Each cell runs in a
process of its own, so that its peak RSS is its own.

The uncapped columns are on record because they are a trap: above ~8192
points ``pts @ centroids.T`` crosses OpenBLAS's multithreading threshold
and two slaves then fight over one process-wide pool, so the larger
groups the paper's cache rule asks for make the run *slower* unless each
slave's pool is capped to its share of the cores.

A second table splits ``KMeansApp.local_reduction`` itself into its
steps — the gemm, the distances, the assignment (and the row-wise
``argmin`` it replaced at this k, on a C-order copy), the bincounts — and
times the whole call over all groups into one reduction object, as the
kernel picks its branch and with every group sent to ``argmin``; in ms
per 4096 points, min over the passes, at each group size, with the BLAS
pool capped as the runtime caps it for two slaves. It runs in a process
of its own too.

``--smoke`` (CI): a quarter of the input, one pass per cell, no
timings worth reading; it asserts oracle equality in every cell and that
the cap was in force inside ``local_reduction`` on both substrates.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

from repro.apps import kmeans, make_bundle
from repro.apps.kmeans import KMeansApp
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.runtime import corebudget, driver, procpool
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

UNITS = 4_194_304
CHUNKS = 32
SLAVES = 2
GROUP_SIZES = (4096, 8192, 16384, 32768, 65536, UNITS // CHUNKS)
SUBSTRATES = ("thread", "process")
KERNEL_UNITS = 1 << 20
STEPS = (
    "gemm", "distances", "assignment", "argmin", "bincount",
    "whole call", "argmin call",
)
JOIN_TIMEOUT = 30.0


class CapProbeKMeans(KMeansApp):
    """kmeans that refuses to reduce under any BLAS pool size but the
    expected one — how ``--smoke`` sees the cap from inside a slave,
    thread or process alike."""

    expected_threads: int | None = None

    def local_reduction(self, robj, units) -> None:
        seen = corebudget.blas_threads()
        if self.expected_threads not in (None, seen):
            message = (
                f"local_reduction saw a BLAS pool of {seen}, "
                f"expected {self.expected_threads}"
            )
            # The run reports a dead crew as a timeout; say why it died.
            print(message, file=sys.stderr)
            raise AssertionError(message)
        super().local_reduction(robj, units)


def _reset_peak_rss() -> None:
    """Forget the build's high-water mark, so the cell reports the runs'."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass  # not Linux, or not permitted: the column then includes set-up


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return float("nan")  # not Linux


def run_cell(
    group: int, substrate: str, capped: bool, *, units: int, passes: int
) -> dict:
    """One table cell, in this process: median pass seconds, peak RSS and
    whether every pass matched the serial oracle."""
    if not capped:
        # The uncapped column: take the guard out from under the runtime.
        driver.slave_cores = lambda slaves: nullcontext()
        procpool.cap_blas_threads = lambda slaves: None
    bundle = make_bundle("kmeans", units, seed=2011)
    app = CapProbeKMeans(bundle.app.centroids)
    found = corebudget.blas_threads()
    if capped and found is not None:
        app.expected_threads = max(1, corebudget.available_cores() // SLAVES)
    record = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=units * record, num_files=4,
        chunk_bytes=units * record // CHUNKS, record_bytes=record,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(1.0), bundle.schema, bundle.block_fn, stores
    )
    # The oracle runs on this thread, outside any guard.
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks(),
        units_per_group=group,
    )
    _reset_peak_rss()
    seconds, equal = [], True
    with CloudBurstingRuntime(
        app, index, stores, ComputeSpec(SLAVES, 0),
        tuning=MiddlewareTuning(allow_stealing=False, units_per_group=group),
        slave_mode=substrate,
        # A crew that refuses every job (the probe, when the cap is off)
        # leaves the head waiting: fail in seconds, not ten minutes.
        join_timeout=JOIN_TIMEOUT,
    ) as runtime:
        for _ in range(passes):
            started = time.perf_counter()
            value = runtime.run().value
            seconds.append(time.perf_counter() - started)
            # float32 centroids from float64 sums: a few ulps of float32.
            equal &= bool(np.allclose(
                value, oracle,
                rtol=4 * float(np.finfo(np.float32).eps), atol=1e-15,
            ))
    return {
        "pass_s": statistics.median(seconds),
        "peak_rss_mb": _peak_rss_mb(),
        "oracle_equal": equal,
        "cap_checked": app.expected_threads is not None,
        "blas_restored": corebudget.blas_threads() == found,
    }


def run_cell_isolated(
    group: int, substrate: str, capped: bool, *, units: int, passes: int
) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--cell", str(group), substrate,
         str(int(capped)), "--units", str(units), "--passes", str(passes)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def kernel_steps(*, units: int, passes: int) -> list[dict]:
    """One row per group size: ms per 4096 points of each step of
    ``KMeansApp.local_reduction``, min over ``passes``, BLAS capped."""
    bundle = make_bundle("kmeans", units, seed=2011)
    app = bundle.app
    points = bundle.block_fn(0, units, 0)
    m2c = -2.0 * app.centroids
    c_norm = np.einsum("ij,ij->i", app.centroids, app.centroids)
    spent: dict[str, float] = {}

    def timed(step, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        spent[step] += time.perf_counter() - start
        return out

    def bincounts(pts, assign):
        for j in range(app.dims):
            np.bincount(assign, weights=pts[:, j], minlength=app.k)
        np.bincount(assign, minlength=app.k)

    def whole_calls(pieces):
        # As a slave runs them: one reduction object, groups back to back.
        robj = app.create_reduction_object()
        for pts in pieces:
            app.local_reduction(robj, pts)

    rows = []
    with corebudget.slave_cores(SLAVES):
        for group in GROUP_SIZES:
            group = min(group, units)
            if any(row["group"] == group for row in rows):
                continue
            pieces = [points[i:i + group] for i in range(0, units, group)]
            best = dict.fromkeys(STEPS, float("inf"))
            for _ in range(passes):
                spent.update(dict.fromkeys(STEPS, 0.0))
                for pts in pieces:
                    # The kernel's branch for this group, as it picks it.
                    if kmeans.use_running_minimum(len(pts), app.k):
                        order, assignment = "F", kmeans.first_minimum
                    else:
                        order, assignment = "C", partial(np.argmin, axis=1)
                    dist = np.empty((len(pts), app.k), np.float32, order=order)
                    timed("gemm", np.matmul, pts, m2c.T, out=dist)
                    timed("distances", np.add, dist, c_norm, out=dist)
                    assign = timed("assignment", assignment, dist)
                    row_major = np.ascontiguousarray(dist)
                    oracle = timed("argmin", np.argmin, row_major, axis=1)
                    assert np.array_equal(assign, oracle), group
                    timed("bincount", bincounts, pts, assign)
                timed("whole call", whole_calls, pieces)
                # The same call with every group sent to argmin: the kernel
                # before the running minimum, patched in from outside.
                saved = kmeans.ARGMIN_ABOVE_K
                kmeans.ARGMIN_ABOVE_K = 0
                try:
                    timed("argmin call", whole_calls, pieces)
                finally:
                    kmeans.ARGMIN_ABOVE_K = saved
                best = {step: min(best[step], spent[step]) for step in STEPS}
            scale = 1e3 * 4096 / units
            rows.append({"group": group, **{s: best[s] * scale for s in STEPS}})
    return rows


def kernel_steps_isolated(*, units: int, passes: int) -> list[dict]:
    out = subprocess.run(
        [sys.executable, __file__, "--kernel", "--units", str(units),
         "--passes", str(passes)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def render_kernel(rows: list[dict]) -> str:
    head = f"{'units/group':>11}  " + " ".join(f"{s:>10}" for s in STEPS)
    lines = [
        "KMeansApp.local_reduction, ms per 4096 points (argmin: the step "
        "the running minimum replaced; argmin call: the call with it)",
        head, "-" * len(head),
    ]
    for row in rows:
        lines.append(
            f"{row['group']:>11}  " + " ".join(f"{row[s]:>10.4f}" for s in STEPS)
        )
    return "\n".join(lines)


def sweep(*, units: int, passes: int, smoke: bool) -> list[dict]:
    rows = []
    for group in GROUP_SIZES:
        group = min(group, units // CHUNKS)
        if any(row["group"] == group for row in rows):
            continue
        row = {"group": group}
        for substrate in SUBSTRATES:
            for capped in (True, False):
                cell = run_cell_isolated(
                    group, substrate, capped, units=units, passes=passes
                )
                row[substrate, capped] = cell
                assert cell["oracle_equal"], (group, substrate, capped)
                assert cell["blas_restored"], (group, substrate, capped)
        rows.append(row)
    if smoke:
        if all(row[s, True]["cap_checked"] for row in rows for s in SUBSTRATES):
            print("cap in force inside local_reduction on both substrates: yes")
        else:
            print("no BLAS pool found in this process: the cap has nothing to do")
    return rows


def render(rows: list[dict]) -> str:
    head = (
        f"{'units/group':>11}  {'thread s':>9} {'uncapped':>9}  "
        f"{'process s':>9} {'uncapped':>9}  {'rss thr':>8} {'rss proc':>8}  "
        f"{'vs 4096 thr/proc':>17}  oracle"
    )
    lines = [head, "-" * len(head)]
    base = rows[0]
    for row in rows:
        cells = [row[s, c] for s in SUBSTRATES for c in (True, False)]
        ratio = "/".join(
            f"{row[s, True]['pass_s'] / base[s, True]['pass_s']:.2f}"
            for s in SUBSTRATES
        )
        lines.append(
            f"{row['group']:>11}  "
            f"{cells[0]['pass_s']:>9.3f} {cells[1]['pass_s']:>9.3f}  "
            f"{cells[2]['pass_s']:>9.3f} {cells[3]['pass_s']:>9.3f}  "
            f"{cells[0]['peak_rss_mb']:>8.0f} {cells[2]['peak_rss_mb']:>8.0f}  "
            f"{ratio:>17}  "
            + ("yes" if all(c["oracle_equal"] for c in cells) else "NO")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: assertions only, timings meaningless")
    parser.add_argument("--units", type=int, default=UNITS)
    parser.add_argument("--passes", type=int, default=9)
    parser.add_argument("--cell", nargs=3, metavar=("GROUP", "SUBSTRATE", "CAPPED"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--kernel", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    units, passes = (UNITS // 4, 1) if args.smoke else (args.units, args.passes)
    if args.kernel:
        print(json.dumps(kernel_steps(units=args.units, passes=args.passes)))
        return 0
    if args.cell:
        group, substrate, capped = args.cell
        print(json.dumps(run_cell(
            int(group), substrate, bool(int(capped)),
            units=args.units, passes=args.passes,
        )))
        return 0
    print(f"kmeans, {units} points in {CHUNKS} chunks, {SLAVES} slaves, "
          f"{corebudget.available_cores()} cores, BLAS pool "
          f"{corebudget.blas_threads()}, median of {passes} passes")
    print(render(sweep(units=units, passes=passes, smoke=args.smoke)))
    print()
    print(render_kernel(kernel_steps_isolated(
        units=min(units, KERNEL_UNITS), passes=passes
    )))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
