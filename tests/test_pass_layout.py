"""One pass layout and one pass record for both engines.

:func:`~repro.core.layout.lay_out` places a pass's clusters, sync plan,
burst cluster and slave ids for the runtime driver and the simulator
alike, and :func:`~repro.obs.record.pass_record` reads the clusters and
the master cores' counters back out of either engine's nodes.
"""

from __future__ import annotations

import pytest

from repro import RunConfig, run
from repro.config import ComputeSpec, DatasetSpec, PlacementSpec
from repro.core.layout import lay_out
from repro.core.sync import SyncSpec
from repro.errors import ConfigurationError
from repro.obs.events import EventLog
from repro.options import ScaleOptions
from repro.sim.multisite import MultiSiteSimulation

from conftest import bench_module

SITES = [("provider-a", 8), ("campus", 16), ("idle", 0), ("provider-b", 4)]


def test_the_head_site_leads_and_empty_sites_drop_out():
    layout = lay_out(SITES, "campus", SyncSpec())
    assert layout.names == (
        "campus-cluster", "provider-a-cluster", "provider-b-cluster"
    )
    assert [(s.site, s.cores) for s in layout.slots] == [
        ("campus", 16), ("provider-a", 8), ("provider-b", 4)
    ]
    # Slave ids run through the slots in plan order.
    assert [s.slave_ids for s in layout.slots] == [
        range(0, 16), range(16, 24), range(24, 28)
    ]
    # Star: every cluster uploads to the head; only the head site's
    # upload stays off the WAN.
    assert layout.roots == layout.names
    assert [s.parent for s in layout.slots] == [None, None, None]
    assert [s.cross_site for s in layout.slots] == [False, True, True]
    # Nothing bursts without a scale spec.
    assert layout.burst is None and layout.spares == range(28, 28)
    assert all(s.revocation is None for s in layout.slots)


def test_a_tree_hangs_off_the_head_site_cluster():
    layout = lay_out(SITES, "campus", SyncSpec(topology="tree", fanout=1))
    assert layout.roots == ("campus-cluster",)
    assert [(s.parent, s.children) for s in layout.slots] == [
        (None, ("provider-a-cluster",)),
        ("campus-cluster", ("provider-b-cluster",)),
        ("provider-a-cluster", ()),
    ]
    # Every hop but the root's on the head site is encoded.
    assert [s.cross_site for s in layout.slots] == [False, True, True]
    # A lone root off the head's site ships across the WAN.
    (lone,) = lay_out([("cloud", 2)], "campus", SyncSpec()).slots
    assert lone.parent is None and lone.cross_site


def test_the_burst_cluster_rolls_the_die_and_spares_follow_every_slave():
    scale = ScaleOptions(
        autoscale=True, max_slaves=12, revocation="rate=0.1,seed=3"
    )
    layout = lay_out(SITES, "campus", SyncSpec(), scale)
    assert layout.burst is layout.slots[1]
    assert layout.burst.site == "provider-a"
    assert [s.revocation for s in layout.slots] == [
        None, scale.revocation_spec, None
    ]
    # After all 28 static slaves, not after the burst crew's 16..23.
    assert layout.spares == range(28, 28 + scale.id_headroom(8))
    # Revocation alone buys nothing: no spare ids.
    revoke_only = lay_out(
        SITES, "campus", SyncSpec(), ScaleOptions(revocation="rate=0.1")
    )
    assert revoke_only.burst.site == "provider-a"
    assert revoke_only.spares == range(28, 28)


def test_no_active_site_is_no_pass():
    with pytest.raises(ConfigurationError):
        lay_out([("campus", 0)], "campus", SyncSpec())


def test_bought_slaves_take_ids_after_every_static_slave():
    """Simulated autoscaling on three sites, the burst site in the middle
    of the plan: the first bought slave is id 32, the static total."""
    config = bench_module("bench_multisite").two_provider_config()
    assert sum(site.cores for site in config.sites) == 32
    trace = EventLog()
    report = MultiSiteSimulation(
        config, trace=trace,
        scale=ScaleOptions(
            autoscale=True, budget=5.0, max_slaves=12, interval=1.0
        ),
    ).run()
    ups = trace.of_kind("scale_up")
    assert ups and report.slaves_added > 0
    assert ups[0].worker == 32
    assert {e.cluster for e in ups} == {"provider-a-cluster"}


DATASET = DatasetSpec(
    total_bytes=32768 * 8, num_files=4, chunk_bytes=256 * 8, record_bytes=8
)

#: Revoking on the only (cloud) cluster: slave 0 or 1 is revoked at its
#: second hand-out, so its first job runs again.
REVOKE = dict(
    compute=ComputeSpec(local_cores=0, cloud_cores=2),
    scale=ScaleOptions(revocation="rate=0.6,seed=42"),
)
STREAM = dict(
    compute=ComputeSpec(local_cores=2, cloud_cores=2),
    sync=SyncSpec(stream=True, watermark=2),
)


@pytest.mark.parametrize(
    "options, field, kind",
    [
        (REVOKE, "jobs_reexecuted", "job_reexecuted"),
        (STREAM, "sync_partial_merges", "sync_merge"),
    ],
    ids=["revocation", "streaming"],
)
@pytest.mark.parametrize("mode", ["runtime", "simulate"])
def test_the_record_counts_what_the_cores_did(mode, options, field, kind):
    trace = EventLog()
    result = run(
        "histogram", DATASET,
        RunConfig(mode=mode, trace=trace, placement=PlacementSpec(0.5), **options),
    )
    events = len(trace.of_kind(kind))
    assert events > 0
    assert getattr(result.telemetry, field) == events
