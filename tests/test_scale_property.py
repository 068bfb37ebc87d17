"""Property battery for the autoscaling controller — zero real seconds.

The controller is pure (time is ``sample.time``), so hypothesis can
drive whole elastic runs through a closed-loop plant model in plain
arithmetic, and the one test that exercises the real
:class:`~repro.obs.live.RunMonitor` sampling loop does it on a
:class:`~repro.clock.FakeClock`. The invariants pinned here are the
subsystem's contract (docs/SCALING.md):

* the fleet never leaves ``[min_slaves, max_slaves]`` — and when spot
  revocation knocks it below the floor, the very next observation
  repairs it, damping or not;
* the controller never reverses direction within the damping window
  (bound repairs exempt), so the fleet ratchets instead of thrashing;
* once spend crosses the budget high-water mark the controller never
  buys again — and with feasible headroom the budget is a hard cap;
* revocation schedules are a pure function of (seed, slave, ordinal), so
  swept chaos runs stay bit-identical across execution substrates.
"""

from __future__ import annotations

import queue
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import FakeClock
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    PlacementSpec,
)
from repro.apps import make_bundle
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.obs import EventLog, RunMonitor
from repro.obs.live import _derive
from repro.options import ScaleOptions
from repro.runtime.driver import CloudBurstingRuntime
from repro.scale import Autoscaler
from repro.scale.controller import HIGH_WATER, SAFETY
from repro.storage.objectstore import ObjectStore


# -- the closed-loop plant ---------------------------------------------------


def run_loop(
    ctl: Autoscaler,
    *,
    jobs_total: int,
    unit_rate: float,
    interval: float,
    fleet0: int,
    local: int,
    max_steps: int,
    revocations: frozenset[int] = frozenset(),
):
    """Drive the controller against a throughput-proportional plant.

    Each step advances virtual time by ``interval``; completed jobs grow
    at ``(local + fleet) * unit_rate`` per second, so scale-ups actually
    speed the run up (and the monitor-style run-average ETA stays a
    conservative overestimate while the fleet grows). Steps listed in
    ``revocations`` lose one cloud slave *before* the controller looks —
    the spot provider does not wait for a sample boundary. Returns the
    trajectory ``[(time, fleet_seen, decision, fleet_after, spent)]``.
    """
    fleet = fleet0
    done = 0.0
    trajectory = []
    t = 0.0
    for step in range(max_steps):
        t = (step + 1) * interval
        done = min(jobs_total, done + (local + fleet) * unit_rate * interval)
        if step in revocations and fleet > 0:
            fleet -= 1
        remaining = jobs_total - int(done)
        raw = {
            "jobs_total": jobs_total,
            "jobs_done": int(done),
            "pool_depth": max(0, remaining - (local + fleet)),
            "in_flight": min(local + fleet, remaining),
            "workers": local + fleet,
            "workers_busy": min(local + fleet, remaining),
        }
        decision = ctl.observe(_derive(raw, t), fleet)
        seen = fleet
        if decision.action == "add":
            fleet += decision.count
        elif decision.action == "remove":
            fleet -= decision.count
        trajectory.append((t, seen, decision, fleet, ctl.dollars_spent))
        if int(done) >= jobs_total:
            break
    ctl.finalize(t, fleet)
    return trajectory


configs = st.fixed_dictionaries(
    {
        "min_slaves": st.integers(1, 3),
        "extra": st.integers(0, 5),  # max = min + extra
        "damping": st.floats(0.0, 5.0, allow_nan=False),
        "deadline": st.one_of(st.none(), st.floats(1.0, 50.0)),
        "jobs_total": st.integers(20, 400),
        "unit_rate": st.floats(0.5, 20.0),
        "interval": st.floats(0.05, 1.0),
        "fleet0": st.integers(0, 9),
        "local": st.integers(1, 4),
        "revocations": st.frozensets(st.integers(0, 99), max_size=6),
    }
)


def build(cfg, **controller_overrides):
    kwargs = dict(
        min_slaves=cfg["min_slaves"],
        max_slaves=cfg["min_slaves"] + cfg["extra"],
        damping=cfg["damping"],
        deadline=cfg["deadline"],
    )
    kwargs.update(controller_overrides)
    ctl = Autoscaler(**kwargs)
    fleet0 = min(max(cfg["fleet0"], ctl.min_slaves), ctl.max_slaves)
    return ctl, fleet0


def is_bound_repair(decision) -> bool:
    return "floor" in decision.reason or "cap" in decision.reason


@settings(deadline=None, max_examples=150)
@given(cfg=configs)
def test_fleet_never_leaves_bounds(cfg):
    """After every applied decision the fleet is inside [min, max] — even
    when spot revocations keep yanking slaves out from under it."""
    ctl, fleet0 = build(cfg)
    trajectory = run_loop(
        ctl,
        jobs_total=cfg["jobs_total"],
        unit_rate=cfg["unit_rate"],
        interval=cfg["interval"],
        fleet0=fleet0,
        local=cfg["local"],
        max_steps=100,
        revocations=cfg["revocations"],
    )
    assert trajectory
    for t, seen, decision, after, _ in trajectory:
        assert ctl.min_slaves <= after <= ctl.max_slaves, (
            f"fleet {after} outside bounds after {decision} at t={t}"
        )
        # The repair is immediate: a below-floor fleet never survives
        # the observation that saw it.
        if seen < ctl.min_slaves:
            assert decision.action == "add" and is_bound_repair(decision)


@settings(deadline=None, max_examples=150)
@given(cfg=configs)
def test_no_direction_reversal_inside_damping_window(cfg):
    """The fleet ratchets: add→remove (or remove→add) never happens
    within ``damping`` seconds, unless the move is a bound repair."""
    ctl, fleet0 = build(cfg)
    run_loop(
        ctl,
        jobs_total=cfg["jobs_total"],
        unit_rate=cfg["unit_rate"],
        interval=cfg["interval"],
        fleet0=fleet0,
        local=cfg["local"],
        max_steps=100,
        revocations=cfg["revocations"],
    )
    last_time = last_action = None
    for t, decision in ctl.decisions:
        if decision.action == "none":
            continue
        if (
            last_action is not None
            and decision.action != last_action
            and t - last_time < ctl.damping
        ):
            assert is_bound_repair(decision), (
                f"reversal {last_action}->{decision.action} after "
                f"{t - last_time:.3f}s inside damping={ctl.damping}"
            )
        last_time, last_action = t, decision.action



@settings(deadline=None, max_examples=150)
@given(cfg=configs, budget_frac=st.floats(0.05, 1.0))
def test_high_water_latch_never_buys_again(cfg, budget_frac):
    """Once spend crosses HIGH_WATER x budget, every later decision is a
    shed or a hold — the controller never scales up again (bound repairs
    after a revocation exempt). Holds for *any* budget, feasible or not."""
    # Price spend so the budget is actually reachable inside the run.
    horizon = 100 * cfg["interval"]
    max_fleet = cfg["min_slaves"] + cfg["extra"]
    full_spend = max_fleet * horizon / 3600.0  # at $1/slave-hour
    budget = max(full_spend * budget_frac, 1e-9)
    ctl, fleet0 = build(cfg, budget=budget, dollars_per_slave_hour=1.0)
    trajectory = run_loop(
        ctl,
        jobs_total=cfg["jobs_total"],
        unit_rate=cfg["unit_rate"],
        interval=cfg["interval"],
        fleet0=fleet0,
        local=cfg["local"],
        max_steps=100,
        revocations=cfg["revocations"],
    )
    latched = False
    for t, seen, decision, after, spent in trajectory:
        if latched and decision.action == "add":
            assert is_bound_repair(decision), (
                f"bought capacity at t={t} with spend {spent:.6f} past "
                f"high water ({HIGH_WATER * budget:.6f} of {budget:.6f})"
            )
        if spent >= HIGH_WATER * budget:
            latched = True


@settings(deadline=None, max_examples=150)
@given(cfg=configs, headroom=st.floats(1.0, 4.0))
def test_budget_is_a_hard_cap_with_feasible_headroom(cfg, headroom):
    """With enough headroom to pay for the floor fleet for the whole run
    (plus one damping window at the cap — the shed can be damped), total
    spend never exceeds the budget."""
    rate = 1.0 / 3600.0  # $1/slave-hour in dollars per slave-second
    horizon = 100 * cfg["interval"]
    max_fleet = cfg["min_slaves"] + cfg["extra"]
    feasible = 10.0 * rate * (
        cfg["min_slaves"] * horizon
        + max_fleet * (cfg["damping"] + 2 * cfg["interval"])
    )
    budget = feasible * headroom
    ctl, fleet0 = build(
        cfg, budget=budget, dollars_per_slave_hour=1.0, deadline=None
    )
    run_loop(
        ctl,
        jobs_total=cfg["jobs_total"],
        unit_rate=cfg["unit_rate"],
        interval=cfg["interval"],
        fleet0=fleet0,
        local=cfg["local"],
        max_steps=100,
        revocations=cfg["revocations"],
    )
    assert ctl.dollars_spent <= budget, (
        f"spent ${ctl.dollars_spent:.6f} of ${budget:.6f}"
    )


@settings(deadline=None, max_examples=100)
@given(cfg=configs)
def test_scale_up_projections_respect_the_safety_pad(cfg):
    """At the moment of every non-repair scale-up, accrued spend is below
    budget/SAFETY — the controller only buys what its padded projection
    says it can pay for."""
    horizon = 100 * cfg["interval"]
    max_fleet = cfg["min_slaves"] + cfg["extra"]
    budget = max(max_fleet * horizon / 3600.0 * 0.5, 1e-9)
    ctl, fleet0 = build(cfg, budget=budget, dollars_per_slave_hour=1.0)
    trajectory = run_loop(
        ctl,
        jobs_total=cfg["jobs_total"],
        unit_rate=cfg["unit_rate"],
        interval=cfg["interval"],
        fleet0=fleet0,
        local=cfg["local"],
        max_steps=100,
        revocations=cfg["revocations"],
    )
    for t, seen, decision, after, spent in trajectory:
        if decision.action == "add" and not is_bound_repair(decision):
            assert spent * SAFETY <= budget + 1e-12


# -- the sampling loop on virtual time ---------------------------------------


def test_monitor_driven_controller_runs_on_fake_clock():
    """The full sampling pipeline — RunMonitor thread, probe, subscriber,
    controller — runs on a FakeClock: decisions land at exact virtual
    timestamps and the backlogged plant provokes a scale-up, with zero
    real seconds slept."""
    import time as _time

    state = {
        "jobs_total": 1000,
        "jobs_done": 0,
        "pool_depth": 900,
        "in_flight": 4,
        "workers": 4,
        "workers_busy": 4,
    }
    ctl = Autoscaler(min_slaves=1, max_slaves=4, budget=100.0, damping=0.0)
    fleet = [1]

    def on_sample(s):
        decision = ctl.observe(s, fleet[0])
        if decision.action == "add":
            fleet[0] += decision.count
        elif decision.action == "remove":
            fleet[0] -= decision.count

    started = _time.monotonic()
    with FakeClock() as clock:
        monitor = RunMonitor(1.0, clock=clock)
        monitor.bind(lambda: dict(state))
        monitor.subscribe(on_sample)
        monitor.start()
        never_filled = queue.SimpleQueue()
        for tick in range(1, 6):
            state["jobs_done"] = tick * 10  # slow: backlog persists
            # One advance per tick, made only once the sampler is parked at
            # a deadline ahead of now: the owner's wait on an empty queue
            # moves the clock only while every worker is parked, and stops
            # at its timeout, which is that deadline.
            with pytest.raises(queue.Empty):
                clock.wait(never_filled, monitor.interval)
            deadline = _time.monotonic() + 10.0
            while monitor.samples_taken < tick:
                _time.sleep(0.005)
                assert _time.monotonic() < deadline, "sampler never woke"
            assert monitor.samples_taken == tick
        monitor.stop()

    times = [t for t, _ in ctl.decisions]
    assert times == sorted(times)
    # Samples land on exact virtual seconds (the closing stop() sample
    # repeats the last tick's gauges at the same virtual instant: stop()
    # does not move the clock).
    assert set(range(1, 6)) <= {round(t) for t in times}
    assert fleet[0] > 1, "a backlogged run on budget must scale up"
    assert ctl.dollars_spent > 0.0
    # The entire pipeline — five virtual seconds of sampling — must not
    # have cost anywhere near that in wall time.
    assert _time.monotonic() - started < 5.0


# -- bit-identical chaos across substrates -----------------------------------

DATASET = DatasetSpec(
    total_bytes=32768 * 8, num_files=4, chunk_bytes=256 * 8, record_bytes=8
)


def _materialize():
    bundle = make_bundle("histogram", DATASET.total_units, seed=2011)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        DATASET, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("slave_mode", ["thread", "process"])
def test_revocation_sweep_bit_identical_across_substrates(rate, slave_mode):
    """Sweeping the revocation rate over both slave substrates never
    changes a byte of the result, and the accounting is deterministic."""
    bundle, index, stores = _materialize()
    oracle = run_serial(
        bundle.app, DatasetReader(index, stores).read_all_chunks()
    )

    def one_run():
        b, ix, s = _materialize()
        trace = EventLog()
        revoked = threading.Event()
        stuck: list[int] = []

        def hold_local_until_a_revocation(slave_id: int, job) -> None:
            # Slaves 0-1 are local. Held at their first job they cannot
            # drain the pool before a cloud slave reaches its seeded
            # ordinal; the surviving cloud slave releases them.
            if slave_id < 2:
                if not revoked.wait(30.0):
                    stuck.append(slave_id)
            elif trace.of_kind("revocation"):
                revoked.set()

        runtime = CloudBurstingRuntime(
            b.app, ix, s,
            ComputeSpec(local_cores=2, cloud_cores=2),
            scale=ScaleOptions(revocation=f"rate={rate},seed=11"),
            slave_mode=slave_mode, seed=2011, join_timeout=60.0,
            fault_hook=hold_local_until_a_revocation if rate > 0 else None,
            trace=trace,
        )
        result = runtime.run()
        assert not stuck, f"no revocation released local slaves {stuck}"
        return result

    first = one_run()
    np.testing.assert_array_equal(first.value, oracle)
    if rate == 0.0:
        assert first.telemetry.slaves_revoked == 0
        return
    second = one_run()
    np.testing.assert_array_equal(second.value, oracle)
    # With the local slaves held, the cloud slaves work through the 128
    # jobs until one reaches its seeded ordinal; the keep-one floor then
    # pins the count at exactly one.
    assert first.telemetry.slaves_revoked == 1
    assert second.telemetry.slaves_revoked == 1
