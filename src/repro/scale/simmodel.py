"""Elastic bursting inside the discrete-event simulators.

:class:`ClusterBurst` is the simulated counterpart of the runtime's
:class:`~repro.scale.burst.RuntimeBurst`: it owns one cluster's dynamic cloud fleet,
drives the *same* pure :class:`~repro.scale.Autoscaler` the threaded
runtime uses (fed :class:`~repro.obs.live.RunSample` snapshots derived
by the same ``obs.live`` arithmetic), and models the two pieces of
cloud reality the executable runtime cannot: **provision latency** (a
scale-up decision takes ``provision_seconds`` of simulated time before
the new slave joins) and **spot revocation at virtual timestamps**.

Mechanics:

* dynamic slaves are pre-built and parked behind their *gate* events; a
  scale-up decision attaches one to its master after the provision delay
  (a :class:`~repro.core.messages.SlaveAttach`, as in the runtime: the
  master core counts it, traces ``provision`` and starts it, which opens
  the gate), so the drain watch's ``all_of`` can be assembled up front;
* revocation and retirement ride the :data:`~repro.sim.simnodes.LeaseFn`
  hook: at every job boundary the slave asks whether its instance still
  exists. The revocation schedule is :meth:`RevocationSpec.draw` — a
  pure function of ``(seed, worker_id, job ordinal)``, so the runtime
  and both simulators revoke the same ordinal of the same slave;
* a *provisioner* process samples the run every ``interval`` simulated
  seconds, exactly like the runtime's :class:`~repro.obs.live.RunMonitor`
  subscription, and applies controller decisions;
* once the static crew drains, the drain watch closes the fleet
  (releasing every unprovisioned gate via one shared *closed* event so
  its ``all_of`` completes — a fleet that never burst costs nothing) and
  shuts the cost ledger at the drain timestamp, not at the
  provisioner's next polling tick.

The floor invariant matches :class:`~repro.scale.SpotRevoker`: at least
one cloud slave always survives, so pooled jobs can never strand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..core.messages import SlaveAttach
from ..obs.live import _derive
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
        probe: Callable[[], dict],
    ) -> None:
        self.env = env = master.env
        self.master = master
        self.scale = scale
        self.probe = probe
        self.trace = master.trace
        self.revocation: RevocationSpec | None = scale.revocation_spec
        self.controller: Autoscaler | None = (
            scale.make_autoscaler() if scale.autoscale else None
        )
        self.slaves_revoked = 0
        #: Dynamic slaves that actually joined the run (for reporting).
        self.started: list = []
        # The static crew is revocable and retirable too.
        self._crew = list(crew)
        for slave in crew:
            slave.lease = self.lease
        self._fleet = len(crew)
        self._retiring: set[int] = set()
        self._gone: set[int] = set()
        self._closed = env.event()
        # Pre-build the dynamic fleet: one slave per id a scale-up may
        # ever claim (dead ids are never reused, matching the runtime).
        headroom = scale.id_headroom(len(crew))
        self._spare: list = []  # provisioned FIFO
        for i in range(headroom):
            slave = make_slave(next_worker_id + i)
            slave.lease = self.lease
            self._spare.append(slave)
        self.next_worker_id = next_worker_id + headroom

    @property
    def dollars_spent(self) -> float:
        return self.controller.dollars_spent if self.controller else 0.0

    def launch(self, procs: list) -> None:
        """Start one gated wrapper per pre-built dynamic slave, the
        provisioner (free-running: its sampling cadence never stretches
        the makespan) and the drain watch over ``procs``, the static
        crew's processes."""
        env = self.env
        fleet = [
            env.process(self._gated(slave), name=f"burst:{slave.slave_id}")
            for slave in self._spare
        ]
        if self.controller is not None:
            env.process(self._provisioner(), name=f"provisioner:{self.master.name}")
        env.process(self._drain(procs, fleet), name=f"drain:{self.master.name}")

    # -- the lease: retirement and revocation at job boundaries ---------------

    def lease(self, worker_id: int, jobs_seen: int) -> bool:
        if worker_id in self._gone:
            return False
        if worker_id in self._retiring:
            self._retiring.discard(worker_id)
            self._gone.add(worker_id)
            if self.trace is not None:
                self.trace.record(
                    self.env.now, "scale_down", cluster=self.master.name,
                    worker=worker_id, detail="slave retired",
                )
            return False
        if (
            self.revocation is not None
            and self.revocation.draw(worker_id, jobs_seen)
            and self._fleet > 1  # floor: the last slave always survives
        ):
            self._fleet -= 1
            self._gone.add(worker_id)
            self.slaves_revoked += 1
            if self.trace is not None:
                self.trace.record(
                    self.env.now, "revocation", cluster=self.master.name,
                    worker=worker_id,
                    detail=f"spot instance revoked after {jobs_seen} jobs",
                )
            return False
        return True

    # -- processes -------------------------------------------------------------

    def _gated(self, slave):
        yield self.env.any_of([slave.gate, self._closed])
        if not slave.gate.triggered:  # closed before it was provisioned
            return
        yield from slave.run()

    def _drain(self, procs, fleet):
        # The static crew drained, so the pool is dry: release the
        # never-provisioned gates, let provisioned slaves exit at this
        # same timestamp, and shut the ledger.
        yield self.env.all_of(procs)
        self._closed.succeed()
        yield self.env.all_of(fleet)
        if self.controller is not None:
            self.controller.finalize(self.env.now, self._fleet)

    def _provision(self, slave):
        delay = (
            self.revocation.provision_seconds
            if self.revocation is not None
            else 0.0
        )
        yield self.env.timeout(delay)
        if self.master.core.run_over or self._closed.triggered:
            # The run (or the fleet) ended while the instance was booting:
            # money already accrued for the order, but the slave never
            # joins.
            return
        self.started.append(slave)
        self.master.step(SlaveAttach((slave,)))

    def _active_ids(self) -> list[int]:
        return [
            s.slave_id
            for s in self._crew + self.started
            if s.slave_id not in self._gone and s.slave_id not in self._retiring
        ]

    def _provisioner(self):
        env = self.env
        controller = self.controller
        while True:
            yield env.timeout(self.scale.interval)
            if self._closed.triggered or self.master.core.run_over:
                break
            sample = _derive(self.probe(), env.now)
            decision = controller.observe(sample, self._fleet)
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
                count = min(decision.count, max(0, self._fleet - 1))
                victims = sorted(self._active_ids(), reverse=True)[:count]
                for worker_id in victims:
                    self._retiring.add(worker_id)
                    self._fleet -= 1
