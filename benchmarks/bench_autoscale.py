"""Benchmarks of the elastic-bursting layer: adherence and disabled cost.

Three acceptance bounds, all pinned by the CI ``autoscale`` job
(``python bench_autoscale.py --smoke --json ...``):

* **Deadline adherence** — on a deterministic simulated workload whose
  one-slave makespan *misses* the deadline, the autoscaler must buy
  enough capacity to land within **10 %** of it (``makespan <=
  1.1 * deadline``).
* **Budget ceiling** — with a binding dollar cap (the uncapped run
  spends well past it), total accrued spend never exceeds the budget
  and the fleet stays smaller than the uncapped fleet.
* **Disabled-path overhead** — passing ``ScaleOptions()`` with
  autoscaling off must cost **< 2 %** of a real run. The driver nulls a
  disabled spec in its constructor, so the whole disabled path *is* the
  constructor check; the bench times exactly that delta against a full
  runtime run (paired full-run walls are recorded informationally —
  at this scale they are dominated by thread-scheduler noise).

The simulator scenarios are discrete-event and seeded, so deadline and
budget numbers are exact across machines; ``--smoke`` only shrinks the
wall-clock overhead workload.
"""

from __future__ import annotations

import argparse
import json
import timeit

from conftest import print_block

from repro.apps import make_bundle
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
)
from repro.data.dataset import build_dataset
from repro.facade import RunConfig
from repro.options import ScaleOptions
from repro.runtime.driver import CloudBurstingRuntime
from repro.storage.objectstore import ObjectStore

#: The simulated workload: cloud-heavy placement so the cloud-fleet size
#: actually moves the makespan (calibrated: 1 slave -> ~3.7 s,
#: 8 slaves -> ~2.1 s).
SIM_DATASET = DatasetSpec(
    total_bytes=131072 * 8, num_files=8, chunk_bytes=512 * 8, record_bytes=8
)
SIM_PLACEMENT = PlacementSpec(0.25)

#: Sits between the one-slave (~3.7 s) and full-fleet (~2.1 s) makespans:
#: a fixed fleet misses it, the controller can hit it.
DEADLINE = 3.2

#: At $1/slave-second the uncapped run spends ~$9.8; $7 binds the fleet
#: while leaving headroom over the floor fleet's unavoidable burn.
BUDGET = 7.0
DOLLARS_PER_SLAVE_HOUR = 3600.0


def sim_run(scale: ScaleOptions):
    import repro

    config = RunConfig(
        mode="simulate", seed=2011, placement=SIM_PLACEMENT, scale=scale
    )
    return repro.run("histogram", SIM_DATASET, config).telemetry


def collect_deadline() -> dict:
    """Deadline adherence on the simulator — deterministic, gated."""
    pinned_one = sim_run(ScaleOptions(autoscale=True, min_slaves=1, max_slaves=1))
    steered = sim_run(
        ScaleOptions(autoscale=True, deadline=DEADLINE, max_slaves=8)
    )
    assert pinned_one.makespan > DEADLINE, (
        "calibration broke: a single cloud slave should miss the deadline"
    )
    assert steered.slaves_added > 0, "controller never bought capacity"
    ratio = steered.makespan / DEADLINE
    assert ratio <= 1.10, (
        f"missed the deadline by {(ratio - 1) * 100:.1f}% "
        f"(makespan {steered.makespan:.3f}s vs deadline {DEADLINE}s); "
        f"bound is 10%"
    )
    return {
        "deadline_s": DEADLINE,
        "pinned_one_makespan_s": round(pinned_one.makespan, 3),
        "steered_makespan_s": round(steered.makespan, 3),
        "slaves_added": steered.slaves_added,
        "adherence_ratio": round(ratio, 4),
    }


def collect_budget() -> dict:
    """Budget ceiling on the simulator — deterministic, gated."""
    uncapped = sim_run(
        ScaleOptions(
            autoscale=True, max_slaves=8,
            dollars_per_slave_hour=DOLLARS_PER_SLAVE_HOUR,
        )
    )
    capped = sim_run(
        ScaleOptions(
            autoscale=True, budget=BUDGET, max_slaves=8,
            dollars_per_slave_hour=DOLLARS_PER_SLAVE_HOUR,
        )
    )
    assert uncapped.dollars_spent > BUDGET, (
        "calibration broke: the uncapped run must overspend the budget"
    )
    assert capped.dollars_spent <= BUDGET, (
        f"budget exceeded: ${capped.dollars_spent:.4f} > ${BUDGET:.4f}"
    )
    assert capped.slaves_added < uncapped.slaves_added, (
        "the cap never bound the fleet"
    )
    return {
        "budget_usd": BUDGET,
        "uncapped_spend_usd": round(uncapped.dollars_spent, 4),
        "capped_spend_usd": round(capped.dollars_spent, 4),
        "uncapped_slaves_added": uncapped.slaves_added,
        "capped_slaves_added": capped.slaves_added,
    }


def collect_overhead(*, units: int) -> dict:
    """Disabled-path cost — the constructor delta is gated at < 2 % of a
    real run; paired full-run walls are informational."""
    bundle = make_bundle("histogram", units, seed=2011)
    dataset = DatasetSpec(
        total_bytes=units * 8,
        num_files=4,
        chunk_bytes=(units // 64) * 8,
        record_bytes=8,
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        dataset, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    compute = ComputeSpec(local_cores=2, cloud_cores=2)
    disabled = ScaleOptions()  # autoscale off, no revocation

    def build(scale):
        return CloudBurstingRuntime(
            bundle.app, index, stores, compute, scale=scale, join_timeout=60.0
        )

    reps, n = 7, 200
    t_ctor_bare = min(
        timeit.timeit(lambda: build(None), number=n) / n for _ in range(reps)
    )
    t_ctor_disabled = min(
        timeit.timeit(lambda: build(disabled), number=n) / n
        for _ in range(reps)
    )

    build(None).run()  # warm every cache before the timed walls
    bare_walls, disabled_walls = [], []
    for i in range(reps):
        pair = [(bare_walls, None), (disabled_walls, disabled)]
        if i % 2:
            pair.reverse()
        for sink, scale in pair:
            sink.append(timeit.timeit(lambda: build(scale).run(), number=1))
    t_run = min(bare_walls)

    ceremony = max(t_ctor_disabled - t_ctor_bare, 0.0)
    overhead = ceremony / t_run
    assert overhead < 0.02, (
        f"disabled scale path costs {overhead * 100:.3f}% of a real run "
        f"({ceremony * 1e6:.2f}us over {t_run * 1e3:.2f}ms); bound is 2%"
    )
    return {
        "ctor_bare_us": round(t_ctor_bare * 1e6, 3),
        "ctor_disabled_us": round(t_ctor_disabled * 1e6, 3),
        "run_ms": round(t_run * 1e3, 3),
        "overhead_pct": round(overhead * 100, 4),
        "paired_bare_min_ms": round(min(bare_walls) * 1e3, 3),
        "paired_disabled_min_ms": round(min(disabled_walls) * 1e3, 3),
    }


def collect(*, smoke: bool) -> dict:
    overhead_units = 65536 if smoke else 262144
    return {
        "config": {"smoke": smoke, "overhead_units": overhead_units},
        "deadline": collect_deadline(),
        "budget": collect_budget(),
        "overhead": collect_overhead(units=overhead_units),
    }


# -- pytest entry points (same gates, bench-suite sized) ---------------------


def test_deadline_adherence_within_ten_percent():
    print_block(json.dumps(collect_deadline(), indent=2))


def test_budget_cap_never_exceeded():
    print_block(json.dumps(collect_budget(), indent=2))


def test_disabled_path_overhead_under_two_percent():
    print_block(json.dumps(collect_overhead(units=65536), indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized wall-clock workload (sim scenarios are fixed)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the report to PATH as JSON"
    )
    args = parser.parse_args(argv)

    report = collect(smoke=args.smoke)
    for section, values in report.items():
        if section == "config":
            continue
        print(f"{section}:")
        for key, value in values.items():
            print(f"  {key:<24} {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    print("ok: deadline within 10%, budget never exceeded, "
          "disabled path < 2%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
