"""Unit and end-to-end tests for the elastic-bursting subsystem.

Covers the vocabulary (:class:`~repro.scale.ScaleDecision`,
:class:`~repro.options.ScaleOptions`, :class:`~repro.scale.RevocationSpec`),
the pure :class:`~repro.scale.Autoscaler` decision table, the master
core's spot die and its keep-one floor, and the real runtime's dynamic
attach/detach/revocation path — chaos in, bit-identical results out,
every slave accounted for. The hypothesis invariant battery lives
in ``test_scale_property.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import RunConfig, run
from repro.apps import make_bundle
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.core.job import JobGroup
from repro.core.layout import lay_out
from repro.core.master import Emit, MasterCore, Post
from repro.core.messages import JobReply, SlaveDetach, SlaveJobRequest
from repro.core.sync import SyncSpec
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import ConfigurationError, WorkerFailure
from repro.obs.events import EventLog
from repro.obs.live import RunMonitor
from repro.options import ScaleOptions
from repro.runtime.driver import CloudBurstingRuntime
from repro.scale import Autoscaler, RevocationSpec, ScaleDecision
from repro.storage.objectstore import ObjectStore

DATASET = DatasetSpec(
    total_bytes=32768 * 8, num_files=4, chunk_bytes=256 * 8, record_bytes=8
)


def materialize(app_key="histogram", dataset=DATASET, **params):
    bundle = make_bundle(app_key, dataset.total_units, seed=2011, **params)
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        dataset, PlacementSpec(0.5), bundle.schema, bundle.block_fn, stores
    )
    return bundle, index, stores


def sample(**overrides):
    """A minimal RunSample-shaped namespace for driving the controller."""
    from repro.obs.live import _derive

    raw = {
        "jobs_total": 100,
        "jobs_done": 10,
        "pool_depth": 50,
        "in_flight": 4,
        "workers": 4,
        "workers_busy": 4,
    }
    time = overrides.pop("time", 10.0)
    raw.update(overrides)
    return _derive(raw, time)


# -- vocabulary --------------------------------------------------------------


def test_scale_decision_validation():
    assert ScaleDecision("none").count == 0
    assert ScaleDecision("add", 2).count == 2
    with pytest.raises(ConfigurationError, match="unknown scale action"):
        ScaleDecision("explode", 1)
    with pytest.raises(ConfigurationError, match="cannot carry a count"):
        ScaleDecision("none", 3)
    with pytest.raises(ConfigurationError, match="positive count"):
        ScaleDecision("remove", 0)


def test_scale_options_validation_and_enabled():
    assert not ScaleOptions().enabled
    assert ScaleOptions(autoscale=True).enabled
    assert ScaleOptions(revocation="rate=0.1").enabled
    # An inert revocation spec does not enable the machinery.
    assert not ScaleOptions(revocation="rate=0").enabled
    # The string form is normalized to the parsed spec.
    opts = ScaleOptions(revocation="rate=0.05,seed=7,provision=30")
    assert opts.revocation == RevocationSpec(
        rate=0.05, seed=7, provision_seconds=30.0
    )
    for bad in (
        dict(min_slaves=0),
        dict(min_slaves=4, max_slaves=2),
        dict(deadline=0),
        dict(budget=-1),
        dict(interval=0),
        dict(damping=-0.5),
        dict(dollars_per_slave_hour=-1),
    ):
        with pytest.raises(ConfigurationError):
            ScaleOptions(**bad)


def test_revocation_spec_parse_grammar():
    spec = RevocationSpec.parse("rate=0.2, seed=13, provision=2.5")
    assert spec == RevocationSpec(rate=0.2, seed=13, provision_seconds=2.5)
    assert RevocationSpec.parse("").rate == 0.0
    assert RevocationSpec.parse(spec.describe()) == spec
    with pytest.raises(ConfigurationError, match="expected key=value"):
        RevocationSpec.parse("rate")
    with pytest.raises(ConfigurationError, match="bad rate"):
        RevocationSpec.parse("rate=lots")
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        RevocationSpec.parse("seed=x")
    with pytest.raises(ConfigurationError, match="unknown revocation clause"):
        RevocationSpec.parse("chaos=1")
    with pytest.raises(ConfigurationError, match="must be in"):
        RevocationSpec(rate=1.5)


def test_revocation_draw_is_pure_and_seeded():
    spec = RevocationSpec(rate=0.3, seed=42)
    schedule = [(s, j) for s in range(4) for j in range(50) if spec.draw(s, j)]
    assert schedule  # 30% over 200 draws revokes someone
    assert schedule == [
        (s, j) for s in range(4) for j in range(50) if spec.draw(s, j)
    ]
    # A different seed gives a different schedule; rate 0 gives none.
    other = RevocationSpec(rate=0.3, seed=43)
    assert schedule != [
        (s, j) for s in range(4) for j in range(50) if other.draw(s, j)
    ]
    assert not any(
        RevocationSpec(rate=0.0).draw(s, j) for s in range(4) for j in range(50)
    )


# -- the controller decision table -------------------------------------------


def test_bound_repairs_bypass_damping():
    ctl = Autoscaler(min_slaves=2, max_slaves=4, damping=100.0)
    # Force a recent opposite action so damping would normally suppress.
    ctl.observe(sample(time=1.0, pool_depth=5, workers_busy=4), 3)
    d = ctl.observe(sample(time=1.1), 1)  # revocation pushed below floor
    assert (d.action, d.count) == ("add", 1)
    d = ctl.observe(sample(time=1.2), 6)
    assert (d.action, d.count) == ("remove", 2)


def test_controller_idles_without_signal():
    ctl = Autoscaler()
    assert ctl.observe(sample(jobs_done=100), 2).reason == "run complete"
    assert "no completion-rate signal" in ctl.observe(
        sample(time=0.0, jobs_done=0), 2
    ).reason


def test_deadline_pressure_adds_and_comfort_removes():
    ctl = Autoscaler(min_slaves=1, max_slaves=4, deadline=20.0, damping=0.0)
    # 10 done in 10s -> eta 90s, 10s left: add.
    d = ctl.observe(sample(time=10.0, jobs_done=10), 2)
    assert (d.action, d.count) == ("add", 1)
    # 90 done in 10s -> eta ~1.1s, 10s left: comfortably ahead, release.
    ctl2 = Autoscaler(min_slaves=1, max_slaves=4, deadline=20.0, damping=0.0)
    d = ctl2.observe(sample(time=10.0, jobs_done=90), 2)
    assert (d.action, d.count) == ("remove", 1)
    # On track (eta between 0.5x and 1x of remaining): steady.
    ctl3 = Autoscaler(min_slaves=1, max_slaves=4, deadline=20.0, damping=0.0)
    d = ctl3.observe(sample(time=10.0, jobs_done=60), 2)
    assert d.action == "none"


def test_deadline_add_respects_backlog_cap_and_budget():
    # No backlog beyond the fleet: adding buys nothing.
    ctl = Autoscaler(deadline=20.0, damping=0.0)
    d = ctl.observe(sample(time=10.0, jobs_done=10, pool_depth=0, in_flight=2), 2)
    assert d.action == "none" and "cannot add" in d.reason
    # At the cap: no add.
    ctl = Autoscaler(max_slaves=2, deadline=20.0, damping=0.0)
    assert ctl.observe(sample(time=10.0, jobs_done=10), 2).action == "none"
    # Unaffordable projection: no add.
    ctl = Autoscaler(deadline=20.0, budget=1e-9, damping=0.0)
    d = ctl.observe(sample(time=10.0, jobs_done=10), 1)
    assert d.action == "none"


def test_budget_high_water_sheds_to_floor():
    ctl = Autoscaler(min_slaves=1, max_slaves=8, budget=1.0, damping=0.0)
    ctl.dollars_spent = 0.95  # past the 0.9 high-water mark
    d = ctl.observe(sample(time=10.0, jobs_done=10), 5)
    assert (d.action, d.count) == ("remove", 4)
    assert "pegging to floor" in d.reason


def test_budget_only_mode_buys_throughput_within_projection():
    ctl = Autoscaler(budget=100.0, damping=0.0)
    d = ctl.observe(sample(time=10.0, jobs_done=10, pool_depth=9), 2)
    assert (d.action, d.count) == ("add", 1)
    # Empty backlog: steady.
    ctl2 = Autoscaler(budget=100.0, damping=0.0)
    d = ctl2.observe(sample(time=10.0, jobs_done=10, pool_depth=0), 2)
    assert d.action == "none"


def test_pure_load_mode_tracks_backlog_and_idleness():
    ctl = Autoscaler(damping=0.0)
    d = ctl.observe(
        sample(time=10.0, jobs_done=10, pool_depth=9, workers_busy=4), 2
    )
    assert (d.action, d.count) == ("add", 1)
    d = ctl.observe(
        sample(time=20.0, jobs_done=20, pool_depth=0, workers_busy=1), 3
    )
    assert (d.action, d.count) == ("remove", 1)


def test_damping_suppresses_reversal_but_not_repeat():
    ctl = Autoscaler(deadline=20.0, damping=5.0)
    d = ctl.observe(sample(time=10.0, jobs_done=10), 2)
    assert d.action == "add"
    # 1s later the run is suddenly ahead: the remove is damped...
    d = ctl.observe(sample(time=11.0, jobs_done=99), 3)
    assert d.action == "none" and "damped" in d.reason
    # ...but a same-direction repeat inside the window is allowed.
    d = ctl.observe(sample(time=12.0, jobs_done=12), 3)
    assert d.action == "add"
    # After the window the reversal goes through.
    d = ctl.observe(sample(time=18.0, jobs_done=99), 3)
    assert d.action == "remove"


def test_cost_accrual_integrates_fleet_seconds():
    ctl = Autoscaler(dollars_per_slave_hour=3600.0)  # $1 per slave-second
    ctl.observe(sample(time=0.0, jobs_done=0), 2)
    ctl.observe(sample(time=10.0), 2)  # 2 slaves x 10s = $20
    ctl.observe(sample(time=15.0), 4)  # 4 slaves x 5s = $20
    assert ctl.dollars_spent == pytest.approx(40.0)
    assert ctl.finalize(20.0, 1) == pytest.approx(45.0)
    # Time never runs backward through the ledger.
    ctl.finalize(15.0, 100)
    assert ctl.dollars_spent == pytest.approx(45.0)
    assert ctl.projected_spend(2, 10.0) == pytest.approx(45.0 + 20.0)


def test_controller_config_validation():
    for bad in (
        dict(min_slaves=0),
        dict(min_slaves=3, max_slaves=1),
        dict(deadline=-1),
        dict(budget=0),
        dict(damping=-1),
        dict(dollars_per_slave_hour=-0.1),
    ):
        with pytest.raises(ConfigurationError):
            Autoscaler(**bad)


# -- the master core's spot die ---------------------------------------------


def _revocable_core(rate: float) -> MasterCore:
    """A two-slave cloud core holding one group of eight jobs."""
    _, index, _ = materialize()
    core = MasterCore(
        "cloud-cluster", 2, MiddlewareTuning(job_group_size=8),
        head="head", inbox="cloud-cluster",
        revocation=RevocationSpec(rate=rate, seed=1),
    )
    jobs = tuple(index.jobs()[:8])
    core.step(JobReply(JobGroup(group_id=0, cluster="cloud-cluster", jobs=jobs)))
    return core


def _ask(core: MasterCore, slave_id: int):
    """One request: the job it is handed (``None``: told to leave), and
    the kinds of the events the core traced."""
    actions = core.step(SlaveJobRequest(slave_id, reply_to=slave_id))
    (reply,) = [a.message for a in actions if isinstance(a, Post)]
    return reply.job, [a.kind for a in actions if isinstance(a, Emit)]


def test_core_revokes_once_per_victim_and_keeps_a_floor():
    core = _revocable_core(rate=1.0)
    job, kinds = _ask(core, 0)
    assert job is None and kinds == ["revocation"]
    # The victim is gone; its later requests are answered without a roll.
    assert _ask(core, 0) == (None, [])
    # rate=1.0 would revoke slave 1 too, but it is the last active slave.
    job, kinds = _ask(core, 1)
    assert job is not None and kinds == []
    assert core.slaves_revoked == 1 and core.active == 1


def test_core_floor_counts_retirements():
    """A retired slave leaves the floor's count: the survivor of a
    scale-down is never revoked, whatever the die says."""
    core = _revocable_core(rate=1.0)
    core.step(SlaveDetach(count=1))
    assert _ask(core, 0) == (None, ["scale_down"])
    job, kinds = _ask(core, 1)
    assert job is not None and kinds == []
    assert core.slaves_revoked == 0


# -- end-to-end: the real runtime --------------------------------------------


def _scaled_runtime(scale, *, trace=None, seed=2011, fault_hook=None):
    bundle, index, stores = materialize()
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores,
        ComputeSpec(local_cores=2, cloud_cores=2),
        scale=scale, trace=trace, seed=seed, join_timeout=60.0,
        fault_hook=fault_hook,
    )
    return bundle, index, stores, runtime


def _hold_local_until_a_revocation(trace: EventLog):
    """A fault hook that holds local slaves 0-1 at their first job until
    a cloud slave has been revoked, so they cannot drain the pool before
    a cloud slave reaches its seeded ordinal (on a loaded machine they
    otherwise can); the surviving cloud slave releases them."""
    revoked = threading.Event()

    def hook(slave_id, job):
        if slave_id < 2:
            assert revoked.wait(30.0)
        elif trace.of_kind("revocation"):
            revoked.set()

    return hook


def test_autoscale_run_is_bit_identical_and_attaches_slaves():
    scale = ScaleOptions(
        autoscale=True, budget=50.0, max_slaves=4, interval=0.01
    )
    trace = EventLog()
    bundle, index, stores, runtime = _scaled_runtime(scale, trace=trace)
    monitor = runtime.monitor = RunMonitor(scale.interval)  # the caller's own
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)
    # The pass's controller left with the pass: a monitor that outlives it
    # does not keep feeding (or keeping alive) a finished fleet.
    assert monitor._subscribers == []
    t = result.telemetry
    assert t.slaves_added == len(trace.of_kind("provision"))
    assert t.dollars_spent >= 0.0
    assert len(trace.of_kind("scale_up")) >= t.slaves_added


class _Watch(EventLog):
    """An event log that flags the first event of one kind."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind
        self.seen = threading.Event()

    def record(self, time, kind, **fields):
        super().record(time, kind, **fields)
        if kind == self.kind:
            self.seen.set()


def test_scale_down_retires_slaves_down_to_the_masters_floor():
    """A fleet over ``max_slaves`` is told to shed to the cap; the cloud
    master retires requesting slaves but never its last active one.

    Cloud slaves 2, 3, 4 (no stealing, so only they drain the cloud
    pool). Slave 2 takes the one sample of the run and then crashes, so
    the master sees ``SlaveDetach(2)`` and then the failure; slaves 3
    and 4 finish their first job only after the master has counted the
    failure. One of them is retired; the floor keeps the other, which
    drains the pool."""
    cloud = {2, 3, 4}
    scale = ScaleOptions(autoscale=True, max_slaves=1, interval=3600.0)
    bundle, index, stores = materialize()
    trace = _Watch("slave_failed")
    monitor = RunMonitor(scale.interval)  # samples only when told to

    def hook(slave_id, job):
        if slave_id == 2:
            monitor.sample_now()
            raise WorkerFailure("slave 2 dies after the fleet was sampled")
        if slave_id in cloud:
            assert trace.seen.wait(timeout=10.0)

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=3),
        tuning=MiddlewareTuning(allow_stealing=False),
        scale=scale, trace=trace, monitor=monitor, fault_hook=hook,
        join_timeout=30.0,
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)
    assert result.telemetry.slaves_failed == 1
    retired = trace.of_kind("scale_down")
    assert [(e.cluster, e.detail) for e in retired] == [
        ("cloud-cluster", "slave retired")
    ]
    assert retired[0].worker in cloud - {2}
    (survivor,) = cloud - {2, retired[0].worker}
    # The floor kept the survivor, and it drained the rest of the pool.
    assert any(
        e.time > retired[0].time for e in trace.of_kind("fetch_start")
        if e.worker == survivor
    )


def test_a_scale_down_survivor_is_never_revoked():
    """The keep-one floor counts retirements. Cloud slaves 2 and 3 (no
    stealing); the die (rate 0.5, seed 7) misses both first hand-outs and
    hits both second ones. Once both hold a first job, slave 2 takes the
    one sample of the run, so the master retires it at its next request;
    slave 3 is held until then, and every roll it makes afterwards is on
    the master's last active slave, so none may revoke it."""
    scale = ScaleOptions(
        autoscale=True, max_slaves=1, interval=3600.0,
        revocation="rate=0.5,seed=7",
    )
    bundle, index, stores = materialize()
    trace = _Watch("scale_down")
    monitor = RunMonitor(scale.interval)  # samples only when told to
    holding = threading.Event()  # slave 3 holds its first job

    def hook(slave_id, job):
        if slave_id == 2:
            assert holding.wait(timeout=10.0)
            monitor.sample_now()
        elif slave_id == 3:
            holding.set()
            assert trace.seen.wait(timeout=10.0)

    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=2, cloud_cores=2),
        tuning=MiddlewareTuning(allow_stealing=False),
        scale=scale, trace=trace, monitor=monitor, fault_hook=hook,
        join_timeout=30.0,
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)
    assert [e.worker for e in trace.of_kind("scale_down")] == [2]
    assert result.telemetry.slaves_revoked == 0


class ScriptedController:
    """Stands in for the autoscaler: answers each observation with the
    next decision of a script, then holds, and records the fleet it was
    shown each time."""

    def __init__(self, script):
        self.script = list(script)
        self.fleets: list[int] = []
        self.dollars_spent = 0.0

    def observe(self, sample, fleet):
        self.fleets.append(fleet)
        return self.script.pop(0) if self.script else ScaleDecision("none")

    def finalize(self, now, fleet):
        return self.dollars_spent


#: Add two, remove one, then ask for three more when one spare is left.
SCRIPT = (
    ScaleDecision("add", 2),
    ScaleDecision("remove", 1),
    ScaleDecision("add", 2),
    ScaleDecision("add", 1),
)


@pytest.mark.parametrize("engine", ["thread", "process", "simulate"])
def test_fleet_manager_attaches_the_same_ids_on_every_substrate(
    engine, monkeypatch
):
    """One scripted decision sequence through the shared fleet manager:
    every substrate buys the same spare ids in the same order, and skips
    the same adds once the spares run out. Two cloud slaves under a
    five-slave cap leave three spares, ids 4-6, after slaves 0-3."""
    controller = ScriptedController(SCRIPT)
    monkeypatch.setattr(ScaleOptions, "make_autoscaler", lambda self: controller)
    scale = ScaleOptions(autoscale=True, max_slaves=5, interval=0.01)
    assert scale.id_headroom(2) == 3
    trace = EventLog()
    compute = ComputeSpec(local_cores=2, cloud_cores=2)
    if engine == "simulate":
        # A private monitor samples every 0.01 s of virtual time.
        result = run(
            "histogram", DATASET,
            RunConfig(
                mode="simulate", trace=trace, compute=compute,
                placement=PlacementSpec(0.5), scale=scale,
            ),
        )
        added = result.telemetry.slaves_added
    else:
        bundle, index, stores = materialize()
        monitor = RunMonitor(3600.0)  # samples only when told to

        def hook(slave_id, job):
            # The whole script at local slave 0's first job: the pool is
            # far from dry, so every bought slave attaches.
            if slave_id == 0 and not controller.fleets:
                for _ in SCRIPT:
                    monitor.sample_now()

        with CloudBurstingRuntime(
            bundle.app, index, stores, compute, scale=scale, trace=trace,
            monitor=monitor, fault_hook=hook, slave_mode=engine,
            join_timeout=60.0,
        ) as runtime:
            result = runtime.run()
        np.testing.assert_array_equal(
            result.value,
            run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks()),
        )
        added = result.telemetry.slaves_added
    # Five slaves asked for, three spares: the last two adds are skipped.
    assert [e.worker for e in trace.of_kind("scale_up")] == [4, 5, 6]
    assert [e.worker for e in trace.of_kind("provision")] == [4, 5, 6]
    assert added == 3
    assert len(trace.of_kind("scale_down")) == 1
    # The fleet each decision saw: the crew of two, then after +2, -1
    # and +1 (of the two asked for); the last add buys none.
    assert controller.fleets[: len(SCRIPT)] == [2, 4, 3, 4]


def test_revocation_run_is_bit_identical_and_accounted():
    scale = ScaleOptions(revocation="rate=0.15,seed=5")
    trace = EventLog()
    bundle, index, stores, runtime = _scaled_runtime(
        scale, trace=trace, fault_hook=_hold_local_until_a_revocation(trace)
    )
    oracle = run_serial(bundle.app, DatasetReader(index, stores).read_all_chunks())
    result = runtime.run()
    np.testing.assert_array_equal(result.value, oracle)
    t = result.telemetry
    assert t.slaves_revoked == len(trace.of_kind("revocation"))
    # Revocations are spot events, not generic failures, in the ledger.
    assert t.slaves_failed == 0
    # Exactly one of the two cloud slaves hits its seeded ordinal; the
    # keep-one floor then protects the survivor.
    assert t.slaves_revoked == 1
    assert t.jobs_reexecuted > 0


def test_revocation_telemetry_is_deterministic():
    def one_run():
        scale = ScaleOptions(revocation="rate=0.3,seed=9")
        trace = EventLog()
        _, _, _, runtime = _scaled_runtime(
            scale, trace=trace,
            fault_hook=_hold_local_until_a_revocation(trace),
        )
        result = runtime.run()
        return (
            result.telemetry.slaves_revoked,
            np.asarray(result.value).tobytes(),
        )

    first = one_run()
    assert first == one_run()
    # Which slave falls first is a scheduling race, but the count is not:
    # one revocation, then the keep-one floor holds.
    assert first[0] == 1


def test_facade_scale_validation_rules():
    scale = ScaleOptions(autoscale=True)
    with pytest.raises(ConfigurationError, match="serial mode has no slaves"):
        RunConfig(mode="serial", scale=scale).validate()
    with pytest.raises(ConfigurationError, match="cloud_cores"):
        RunConfig(
            mode="runtime", scale=scale,
            compute=ComputeSpec(local_cores=2, cloud_cores=0),
        ).validate()
    with pytest.raises(ConfigurationError, match="autoscaler targets"):
        RunConfig(
            mode="runtime", scale=ScaleOptions(deadline=10.0)
        ).validate()


#: 1 MiB in 8 files: long enough a simulated run for the autoscaler to buy.
BIG = DatasetSpec(
    total_bytes=131072 * 8, num_files=8, chunk_bytes=512 * 8, record_bytes=8
)


def simulate_autoscaled(revocation=None):
    scale = ScaleOptions(autoscale=True, budget=50.0, max_slaves=6,
                         interval=0.2, revocation=revocation)
    return run("histogram", BIG, RunConfig(mode="simulate", scale=scale, seed=2011))


def test_facade_simulate_autoscale_reports_fleet_changes():
    result = simulate_autoscaled()
    again = simulate_autoscaled()
    assert result.telemetry.slaves_added > 0
    assert result.telemetry.slaves_added == again.telemetry.slaves_added
    assert result.telemetry.dollars_spent == again.telemetry.dollars_spent


def test_simulated_provision_lag_holds_without_a_revocation_rate():
    """A bought slave joins ``provision_seconds`` after the decision
    whether or not spot instances are also revoked: a lag longer than the
    run keeps every bought slave out, with a spot die or without one."""
    lag_only = simulate_autoscaled("provision=50").telemetry
    with_die = simulate_autoscaled("rate=0.0001,provision=50").telemetry
    assert simulate_autoscaled().telemetry.slaves_added > 0
    assert lag_only.slaves_added == with_die.slaves_added == 0
    assert lag_only.slaves_revoked == with_die.slaves_revoked == 0
    assert lag_only.makespan == with_die.makespan


# -- which cluster bursts ------------------------------------------------------


def test_burst_site_is_the_first_active_site_off_the_head():
    def burst_site(sites, head_site):
        layout = lay_out(
            [(site, 1) for site in sites] + [("idle", 0)], head_site,
            SyncSpec(), ScaleOptions(revocation="rate=0.1"),
        )
        return layout.burst.site if layout.burst is not None else None

    assert burst_site(["aws", "campus", "azure"], "campus") == "aws"
    assert burst_site(["campus", "aws", "azure"], "campus") == "aws"
    # An inactive head is simply not in the list: still the first other.
    assert burst_site(["aws", "azure"], "campus") == "aws"
    assert burst_site(["campus"], "campus") is None
    # With no active site at all there is no pass to lay out.
    with pytest.raises(ConfigurationError):
        burst_site([], "campus")


#: Chosen so that every slave id 0-3 survives its first hand-out and is
#: revoked at its second: the first slave of a multi-slave cluster to ask
#: twice is revoked, and the keep-one floor spares the rest.
SHARED_DIE = "rate=0.6,seed=42"


@pytest.mark.parametrize(
    "local, cloud, revoked",
    [(2, 0, 0), (0, 2, 1), (1, 1, 0), (2, 2, 1)],
)
@pytest.mark.parametrize("mode", ["runtime", "simulate"])
def test_both_engines_burst_the_same_cluster(mode, local, cloud, revoked):
    """The spot die rolls only at the burst site's master, in both
    engines: the cloud's, and nowhere when only the head's site has
    cores, however many slaves it has there."""
    die = RevocationSpec.parse(SHARED_DIE)
    assert all(not die.draw(s, 0) and die.draw(s, 1) for s in range(4))
    trace = EventLog()
    result = run(
        "histogram", DATASET,
        RunConfig(
            mode=mode, trace=trace, placement=PlacementSpec(0.5),
            compute=ComputeSpec(local_cores=local, cloud_cores=cloud),
            scale=ScaleOptions(revocation=SHARED_DIE),
        ),
    )
    revocations = trace.of_kind("revocation")
    reexecuted = trace.of_kind("job_reexecuted")
    assert {e.cluster for e in revocations + reexecuted} <= {f"{CLOUD_SITE}-cluster"}
    assert result.telemetry.slaves_revoked == len(revocations)
    if mode == "simulate" or (local, cloud) != (2, 2):
        # In a (2, 2) runtime run the local slaves may take every job
        # left before a cloud slave asks twice; every other count is
        # fixed by the die.
        assert len(revocations) == revoked
    if revocations:
        assert reexecuted  # the victim's first job runs again
