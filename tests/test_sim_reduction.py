"""The simulator's global reduction is the runtime's protocol.

Each simulated slave hands its master a real, tiny
:class:`~repro.core.reduction.ScalarReduction` of the units it folded;
the masters and the head are the runtime's own cores
(:class:`~repro.core.master.MasterCore`, :class:`~repro.core.head.HeadCore`),
so the object the simulated head merges must count every unit of the
dataset exactly once and cover every cluster — under star, tree and
chain plans, barrier and streaming, and with slaves attached and revoked
mid-run.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.base import get_profile
from repro.bench.configs import env_config
from repro.config import CLOUD_SITE
from repro.core.reduction import ScalarReduction
from repro.core.sync import SyncSpec
from repro.errors import SimulationError
from repro.obs import EventLog
from repro.options import ScaleOptions
from repro.sim import simnodes
from repro.sim.calibration import PAPER_CALIBRATION
from repro.sim.multisite import MultiSiteSimulation
from repro.sim.simulation import two_site_config

from conftest import bench_module

#: Swept by CI's fault job, as in ``test_resilience_e2e.py``.
REVOKE_RATE = float(os.environ.get("REPRO_REVOKE_RATE", "0.05"))

PLANS = {
    "star": dict(topology="star"),
    "tree": dict(topology="tree", fanout=2),
    "chain": dict(topology="tree", fanout=1),
}


def assert_whole(sim: MultiSiteSimulation, report) -> None:
    core = sim.head.core
    units = sum(job.num_units for job in sim.config.build_index().jobs())
    assert core.finished
    assert core.merged.value() == units
    assert sorted(core.receipts.origins) == sorted(report.clusters)
    assert sim.head.busy_until == report.makespan


@pytest.mark.parametrize("stream", [False, True], ids=["barrier", "stream"])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_the_head_merges_every_unit_once(plan, stream):
    config = bench_module("bench_multisite").two_provider_config()
    sim = MultiSiteSimulation(config, sync=SyncSpec(**PLANS[plan], stream=stream))
    report = sim.run()
    assert len(report.clusters) == 3
    assert_whole(sim, report)


def test_attached_and_revoked_slaves_still_fold_every_unit():
    """The cloud master's core revokes as the runtime's does: a revoked
    slave's object is dropped and its jobs run again, so the clusters
    process every job once plus each re-executed one."""
    scale = ScaleOptions(
        autoscale=True, budget=0.05, max_slaves=12, interval=0.5,
        revocation=f"rate={REVOKE_RATE},seed=7,provision=1",
    )
    dataset, config = env_config("kmeans", "env-33/67", scale=0.05)
    trace = EventLog()
    sim = MultiSiteSimulation(
        two_site_config(
            "kmeans", dataset, config, PAPER_CALIBRATION, get_profile("kmeans")
        ),
        scale=scale, trace=trace,
    )
    report = sim.run()
    assert_whole(sim, report)
    reexecuted = trace.of_kind("job_reexecuted")
    assert {e.cluster for e in reexecuted} <= {f"{CLOUD_SITE}-cluster"}
    jobs = len(sim.config.build_index().jobs())
    processed = sum(c.jobs_processed for c in report.clusters.values())
    assert processed == jobs + len(reexecuted)
    if REVOKE_RATE > 0:  # the controller replaces revoked slaves
        assert report.slaves_added > 0
        assert report.slaves_revoked > 0 and reexecuted
    else:
        assert report.slaves_revoked == 0 and not reexecuted


def test_a_lost_unit_is_a_simulation_error(monkeypatch):
    class Lossy(ScalarReduction):
        def add(self, x: float) -> None:
            super().add(x - 1)

    monkeypatch.setattr(simnodes, "ScalarReduction", Lossy)
    config = bench_module("bench_multisite").two_provider_config()
    with pytest.raises(SimulationError, match="units"):
        MultiSiteSimulation(config).run()
