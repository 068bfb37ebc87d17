"""Elastic bursting inside the discrete-event simulators.

:class:`ClusterBurst` is the simulated counterpart of the runtime's
:class:`~repro.scale.burst.RuntimeBurst`: it owns one cluster's dynamic cloud fleet,
drives the *same* pure :class:`~repro.scale.Autoscaler` the threaded
runtime uses (fed the pass's :class:`~repro.obs.live.RunMonitor`
samples, as ``RuntimeBurst`` is), and models what the executable
runtime cannot: **provision latency** (a scale-up decision takes
``provision_seconds`` of simulated time before the new slave joins).

Mechanics:

* dynamic slaves are pre-built and parked behind their *gate* events; a
  scale-up decision attaches one to its master after the provision delay
  (a :class:`~repro.core.messages.SlaveAttach`, as in the runtime: the
  master core counts it, traces ``provision`` and starts it, which opens
  the gate), so the drain watch's ``all_of`` can be assembled up front;
* a scale-down steps a :class:`~repro.core.messages.SlaveDetach`, as in
  the runtime: the master core retires its next requesters. Spot
  revocation is the core's too (it rolls :meth:`RevocationSpec.draw` at
  each hand-out), so neither engine has a copy of either rule here;
* :meth:`ClusterBurst.on_sample` is a subscriber of the simulator's
  sampler, as :meth:`~repro.scale.burst.RuntimeBurst.on_sample` is of the
  runtime's: it applies the controller's decision, and ignores samples
  once the fleet is closed or its master's run is over (:attr:`done`);
* once every slave that joined has left (the pool is dry), the drain
  watch closes the fleet (releasing every unprovisioned gate via one
  shared *closed* event so its ``all_of`` completes — a fleet that never
  burst costs nothing) and shuts the cost ledger at the drain
  timestamp, not at the sampler's next tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..core.messages import SlaveAttach, SlaveDetach
from .controller import Autoscaler
from .revocation import RevocationSpec

if TYPE_CHECKING:  # avoid options <-> scale import cycle
    from ..options import ScaleOptions

__all__ = ["ClusterBurst"]


class ClusterBurst:
    """Dynamic fleet management for one simulated cloud cluster."""

    def __init__(
        self,
        master,
        scale: ScaleOptions,
        *,
        crew: list,
        make_slave: Callable[[int], object],
        next_worker_id: int,
    ) -> None:
        self.env = env = master.env
        self.master = master
        self.trace = master.trace
        self.revocation: RevocationSpec | None = scale.revocation_spec
        self.controller: Autoscaler | None = (
            scale.make_autoscaler() if scale.autoscale else None
        )
        #: Dynamic slaves that actually joined the run (for reporting).
        self.started: list = []
        # The crew, plus every scale-up ordered, less every retirement
        # asked for; ``fleet`` also takes off the core's revocations.
        self._fleet = len(crew)
        self._closed = env.event()
        # Pre-build the dynamic fleet: one slave per id a scale-up may
        # ever claim (dead ids are never reused, matching the runtime).
        headroom = scale.id_headroom(len(crew))
        self._spare = [  # provisioned FIFO
            make_slave(next_worker_id + i) for i in range(headroom)
        ]
        self.next_worker_id = next_worker_id + headroom

    @property
    def fleet(self) -> int:
        """The slaves the controller pays for."""
        return self._fleet - self.master.core.slaves_revoked

    @property
    def done(self) -> bool:
        """The fleet no longer changes: it is closed, or its master's run
        is over."""
        return self._closed.triggered or self.master.core.run_over

    @property
    def dollars_spent(self) -> float:
        return self.controller.dollars_spent if self.controller else 0.0

    def launch(self, procs: list) -> None:
        """Start one gated wrapper per pre-built dynamic slave and the
        drain watch over ``procs``, the static crew's processes."""
        env = self.env
        fleet = {
            slave: env.process(self._gated(slave), name=f"burst:{slave.slave_id}")
            for slave in self._spare
        }
        env.process(self._drain(procs, fleet), name=f"drain:{self.master.name}")

    def on_sample(self, sample) -> None:
        """Feed one sample to the controller and carry out its decision."""
        if self.done:
            return
        env = self.env
        decision = self.controller.observe(sample, self.fleet)
        if decision.action == "add":
            for _ in range(decision.count):
                if not self._spare:
                    break  # dynamic pool exhausted
                slave = self._spare.pop(0)
                self._fleet += 1
                if self.trace is not None:
                    self.trace.record(
                        env.now, "scale_up", cluster=self.master.name,
                        worker=slave.slave_id,
                        detail=f"+1: {decision.reason}",
                    )
                env.process(
                    self._provision(slave),
                    name=f"provision:{slave.slave_id}",
                )
        elif decision.action == "remove":
            count = min(decision.count, max(0, self.fleet - 1))
            if count > 0:
                # The core retires its next requesters (never its last
                # active slave) and traces each scale_down.
                self._fleet -= count
                self.master.step(SlaveDetach(count))

    # -- processes -------------------------------------------------------------

    def _gated(self, slave):
        yield self.env.any_of([slave.gate, self._closed])
        if not slave.gate.triggered:  # closed before it was provisioned
            return
        yield from slave.run()

    def _drain(self, procs, fleet):
        # The pool is dry once every slave that joined has left. The
        # static crew can leave first (retired or revoked), but the core
        # never lets its last active slave go before then. Then release
        # the never-provisioned gates and shut the ledger.
        yield self.env.all_of(procs)
        while not self.master.core.run_over:
            yield self.env.all_of([fleet[slave] for slave in self.started])
        self._closed.succeed()
        yield self.env.all_of(list(fleet.values()))
        if self.controller is not None:
            self.controller.finalize(self.env.now, self.fleet)

    def _provision(self, slave):
        delay = (
            self.revocation.provision_seconds
            if self.revocation is not None
            else 0.0
        )
        yield self.env.timeout(delay)
        if self.done:
            # The run (or the fleet) ended while the instance was booting:
            # money already accrued for the order, but the slave never
            # joins.
            return
        self.started.append(slave)
        self.master.step(SlaveAttach((slave,)))
