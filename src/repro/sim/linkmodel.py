"""Fluid-flow fair-share link model.

Transfers on a shared link are modeled as fluid flows under **max-min fair
sharing** with two constraint classes:

* a per-flow cap (one S3 connection tops out at tens of MB/s no matter how
  idle the trunk is), and
* a per-group cap (all connections reading the *same file* share that
  file's service limit — the contention the head's minimum-readers stealing
  heuristic is designed to avoid).

Whenever the flow set changes, every active flow's progress is advanced at
its old rate, rates are recomputed by water-filling, and the next
completion is rescheduled. Between changes rates are constant, so progress
integration is exact — the model is not a discretized approximation.

Within one group every member has the same cap, so folding a group cap of
``G`` shared by ``k`` members into a per-flow limit of ``G / k`` is the
exact max-min allocation, and the remaining problem is classic single-
constraint water-filling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..errors import SimulationError
from .engine import Environment, Event

__all__ = ["FlowStats", "FairShareLink"]

#: Byte-resolution epsilon: flows within a nano-byte of done are done.
_EPS = 1e-9

#: Minimum wake horizon in simulated seconds. Guarantees the wake fires at
#: a time strictly greater than ``now`` (float ULP of any realistic sim
#: clock is far below this), so completion wake-ups always advance time —
#: without this, a flow whose remaining bytes underflow the clock's
#: resolution would stall the simulation in a zero-delay wake loop.
_MIN_STEP = 1e-9


@dataclass
class _Flow:
    flow_id: int
    remaining: float
    done: Event
    group: Hashable | None
    rate: float = 0.0
    started_at: float = 0.0


@dataclass
class FlowStats:
    """Aggregate accounting for tests and reports."""

    flows_started: int = 0
    flows_completed: int = 0
    bytes_served: float = 0.0
    busy_time: float = 0.0
    _busy_since: float | None = field(default=None, repr=False)


class FairShareLink:
    """A shared link serving concurrent fluid flows."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        *,
        latency: float = 0.0,
        per_flow_cap: float | None = None,
        group_cap: float | None = None,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        if latency < 0:
            raise SimulationError(f"{name}: negative latency")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise SimulationError(f"{name}: per_flow_cap must be positive")
        if group_cap is not None and group_cap <= 0:
            raise SimulationError(f"{name}: group_cap must be positive")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.per_flow_cap = per_flow_cap
        self.group_cap = group_cap
        self.name = name
        self._flows: dict[int, _Flow] = {}
        self._next_id = 0
        self._last_update = 0.0
        self._wake_token = 0
        self.stats = FlowStats()

    # -- public API ----------------------------------------------------------

    def transfer(self, nbytes: float, *, group: Hashable | None = None) -> Event:
        """Start a flow of ``nbytes``; the returned event fires on completion.

        The link's one-way latency is charged once, up front. Zero-byte
        transfers complete after just the latency.
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size")
        done = self.env.event()
        flow = _Flow(
            flow_id=self._next_id,
            remaining=float(nbytes),
            done=done,
            group=group,
        )
        self._next_id += 1
        if self.latency > 0:
            delay = self.env.timeout(self.latency)
            delay.callbacks.append(lambda _evt: self._admit(flow))
        else:
            self._admit(flow)
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # -- internals ------------------------------------------------------------

    def _admit(self, flow: _Flow) -> None:
        self._advance()
        if flow.remaining <= _EPS:
            self.stats.flows_started += 1
            self.stats.flows_completed += 1
            flow.done.succeed()
            self._recompute()
            return
        flow.started_at = self.env.now
        self._flows[flow.flow_id] = flow
        self.stats.flows_started += 1
        if self.stats._busy_since is None:
            self.stats._busy_since = self.env.now
        self._recompute()

    def _advance(self) -> None:
        """Integrate progress at current rates up to now; complete flows."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt < -_EPS:
            raise SimulationError(f"{self.name}: time ran backwards")
        if dt <= 0 or not self._flows:
            return
        finished: list[_Flow] = []
        for flow in self._flows.values():
            moved = flow.rate * dt
            flow.remaining -= moved
            self.stats.bytes_served += moved
            if flow.remaining <= _EPS:
                finished.append(flow)
        self.stats.busy_time += dt
        for flow in finished:
            # Absorb float dust so conservation checks balance exactly.
            self.stats.bytes_served += flow.remaining
            flow.remaining = 0.0
            del self._flows[flow.flow_id]
            self.stats.flows_completed += 1
            flow.done.succeed()
        if not self._flows:
            self.stats._busy_since = None

    def _limits(self) -> dict[int, float]:
        """Per-flow rate limits: min(per-flow cap, group cap share)."""
        group_sizes: dict[Hashable, int] = {}
        if self.group_cap is not None:
            for flow in self._flows.values():
                if flow.group is not None:
                    group_sizes[flow.group] = group_sizes.get(flow.group, 0) + 1
        limits: dict[int, float] = {}
        for flow in self._flows.values():
            limit = self.per_flow_cap if self.per_flow_cap is not None else self.bandwidth
            if self.group_cap is not None and flow.group is not None:
                limit = min(limit, self.group_cap / group_sizes[flow.group])
            limits[flow.flow_id] = limit
        return limits

    def _recompute(self) -> None:
        """Water-fill rates and schedule the next completion wake-up."""
        if not self._flows:
            self._wake_token += 1
            return
        limits = self._limits()
        # Max-min fair water-filling with per-flow limits.
        unassigned = sorted(self._flows, key=lambda fid: (limits[fid], fid))
        capacity = self.bandwidth
        rates: dict[int, float] = {}
        n = len(unassigned)
        for idx, fid in enumerate(unassigned):
            fair = capacity / (n - idx)
            rate = min(limits[fid], fair)
            rates[fid] = rate
            capacity -= rate
        for fid, flow in self._flows.items():
            flow.rate = rates[fid]
        # Next completion at min remaining/rate among positive-rate flows.
        horizon = min(
            flow.remaining / flow.rate
            for flow in self._flows.values()
            if flow.rate > 0
        )
        self._wake_token += 1
        token = self._wake_token
        wake = self.env.timeout(max(horizon, _MIN_STEP))
        wake.callbacks.append(lambda _evt: self._on_wake(token))

    def _on_wake(self, token: int) -> None:
        if token != self._wake_token:
            return  # superseded by a newer recompute
        self._advance()
        self._recompute()
