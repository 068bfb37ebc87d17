"""Closed-form transfer-time estimates.

The discrete-event simulator models links dynamically (flows come and go —
:mod:`repro.sim.linkmodel`); this module provides the *static* estimates
used for back-of-envelope checks, the analytical bench baselines, and tests
that pin the dynamic model against the closed form in steady state.
"""

from __future__ import annotations

from collections import Counter

from ..core.layout import lay_out
from ..core.sync import SyncSpec
from ..errors import ConfigurationError
from .topology import Link

__all__ = [
    "transfer_time",
    "parallel_transfer_time",
    "sync_aggregation_time",
]


def transfer_time(link: Link, nbytes: int, *, concurrent_flows: int = 1) -> float:
    """Time for one flow of ``nbytes`` when ``concurrent_flows`` share the link."""
    if nbytes < 0:
        raise ConfigurationError("cannot transfer a negative byte count")
    rate = link.flow_rate(concurrent_flows)
    return link.latency + nbytes / rate


def parallel_transfer_time(link: Link, nbytes: int, connections: int) -> float:
    """Time to move ``nbytes`` split evenly over ``connections`` flows.

    This is the multi-threaded-retrieval estimate: with a per-flow cap the
    aggregate rate is ``min(bandwidth, connections * cap)``, so adding
    connections helps until the trunk saturates.
    """
    if nbytes < 0:
        raise ConfigurationError("cannot transfer a negative byte count")
    if connections <= 0:
        raise ConfigurationError("connection count must be positive")
    aggregate = link.bandwidth
    if link.per_flow_cap is not None:
        aggregate = min(aggregate, connections * link.per_flow_cap)
    return link.latency + nbytes / aggregate


def sync_aggregation_time(
    link: Link,
    nbytes: int,
    clusters: int,
    *,
    merge_seconds: float = 0.0,
    topology: str = "star",
    fanout: int = 2,
) -> float:
    """Closed-form end-of-pass sync estimate for ``clusters`` masters
    shipping ``nbytes`` reduction objects over one shared ``link``.

    The aggregation plan (:func:`repro.core.layout.lay_out`) is
    walked level by level, deepest first: every cluster at a level ships
    concurrently (sharing the link fairly), then each receiving parent
    merges its arrivals serially at ``merge_seconds`` apiece. Under
    ``star`` this degenerates to one n-way shared transfer plus n head
    merges; under a ``fanout=1`` tree to n sequential single-flow hops;
    a wider ``tree`` sits in between, trading a ~log(n) hop chain for
    never putting more than a level's worth of flows on the trunk at once.

    This deliberately ignores compute overlap and site asymmetry — it is
    the steady-state bound the dynamic simulator is pinned against, and
    the narration baseline for ``benchmarks/bench_sync.py``.
    """
    if nbytes < 0:
        raise ConfigurationError("cannot transfer a negative byte count")
    if clusters <= 0:
        raise ConfigurationError("cluster count must be positive")
    if merge_seconds < 0:
        raise ConfigurationError("merge time must be non-negative")
    layout = lay_out(
        [(f"c{i}", 1) for i in range(clusters)], "c0",
        SyncSpec(topology=topology, fanout=fanout),
    )
    levels: dict[int, list] = {}
    depth: dict[str | None, int] = {None: 0}
    for slot in layout.slots:  # a parent before its children
        depth[slot.name] = depth[slot.parent] + 1
        levels.setdefault(depth[slot.name], []).append(slot)
    total = 0.0
    for d in sorted(levels, reverse=True):
        senders = levels[d]
        total += transfer_time(link, nbytes, concurrent_flows=len(senders))
        # Parents merge their arrivals serially; parallel across parents
        # (``None`` = the head node itself).
        fan_in = Counter(slot.parent for slot in senders)
        total += max(fan_in.values()) * merge_seconds
    return total
