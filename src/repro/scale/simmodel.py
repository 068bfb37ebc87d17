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

* dynamic slaves are pre-built and parked behind *gate* events; a
  scale-up decision releases a gate after the provision delay, so the
  cluster's ``all_of`` barrier can be assembled up front;
* revocation and retirement ride the :data:`~repro.sim.simnodes.LeaseFn`
  hook: at every job boundary the slave asks whether its instance still
  exists. The revocation schedule is :meth:`RevocationSpec.draw` — a
  pure function of ``(seed, worker_id, job ordinal)``, so the runtime
  and both simulators revoke the same ordinal of the same slave;
* a *provisioner* process samples the run every ``interval`` simulated
  seconds, exactly like the runtime's :class:`~repro.obs.live.RunMonitor`
  subscription, and applies controller decisions;
* once the static crew drains, the cluster process calls :meth:`close`
  (releasing every unprovisioned gate via one shared *closed* event so
  the barrier completes — a fleet that never burst costs nothing) and
  then :meth:`finalize` to shut the cost ledger at the drain timestamp,
  not at the provisioner's next polling tick.

The floor invariant matches :class:`~repro.scale.SpotRevoker`: at least
one cloud slave always survives, so pooled jobs can never strand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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
        env,
        master,
        scale: ScaleOptions,
        *,
        initial: int,
        make_slave: Callable[[int], object],
        next_worker_id: int,
        probe: Callable[[], dict],
        trace=None,
    ) -> None:
        self.env = env
        self.master = master
        self.scale = scale
        self.probe = probe
        self.trace = trace
        self.revocation: RevocationSpec | None = scale.revocation_spec
        self.controller: Autoscaler | None = (
            scale.make_autoscaler() if scale.autoscale else None
        )
        self.slaves_added = 0
        self.slaves_revoked = 0
        #: Dynamic slaves that actually joined the run (for reporting).
        self.started: list = []
        self._members: list = []  # every slave ever active, static + dynamic
        self._fleet = initial
        self._retiring: set[int] = set()
        self._gone: set[int] = set()
        self._cancelled: set[int] = set()
        self._closed = env.event()
        # Pre-build the dynamic fleet: one slave per id a scale-up may
        # ever claim (dead ids are never reused, matching the runtime).
        headroom = scale.id_headroom(initial)
        self._spare: list[tuple] = []  # (slave, gate), provisioned FIFO
        for i in range(headroom):
            slave = make_slave(next_worker_id + i)
            slave.lease = self.lease
            self._spare.append((slave, env.event()))
        self.next_worker_id = next_worker_id + headroom

    @property
    def dollars_spent(self) -> float:
        return self.controller.dollars_spent if self.controller else 0.0

    # -- wiring ---------------------------------------------------------------

    def admit(self, slave) -> None:
        """Register a static cloud slave as revocable/retirable."""
        slave.lease = self.lease
        self._members.append(slave)

    def launch(self) -> list:
        """Processes for the cluster's ``all_of`` barrier.

        Returns one gated wrapper per pre-built dynamic slave and starts
        the provisioner (a free-running process, deliberately *outside*
        the barrier so sampling cadence never stretches the makespan).
        """
        procs = [
            self.env.process(
                self._gated(slave, gate), name=f"burst:{slave.worker_id}"
            )
            for slave, gate in self._spare
        ]
        if self.controller is not None:
            self.env.process(
                self._provisioner(), name=f"provisioner:{self.master.name}"
            )
        return procs

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

    def _gated(self, slave, gate):
        yield self.env.any_of([gate, self._closed])
        if not gate.triggered or slave.worker_id in self._cancelled:
            return
        yield from slave.run()

    def _provision(self, slave, gate):
        delay = (
            self.revocation.provision_seconds
            if self.revocation is not None
            else 0.0
        )
        yield self.env.timeout(delay)
        if self.master.core.run_over:
            # The run ended while the instance was booting: money already
            # accrued for the order, but the slave never joins.
            self._cancelled.add(slave.worker_id)
            return
        self.slaves_added += 1
        self._members.append(slave)
        self.started.append(slave)
        if self.trace is not None:
            self.trace.record(
                self.env.now, "provision", cluster=self.master.name,
                worker=slave.worker_id, detail="slave attached",
            )
        gate.succeed()

    def _active_ids(self) -> list[int]:
        return [
            s.worker_id
            for s in self._members
            if s.worker_id not in self._gone and s.worker_id not in self._retiring
        ]

    def close(self) -> None:
        """Release every never-provisioned gate; no capacity after this."""
        if not self._closed.triggered:
            self._closed.succeed()

    def finalize(self, now: float) -> None:
        """Shut the cost ledger at the cluster's drain time."""
        if self.controller is not None:
            self.controller.finalize(now, self._fleet)

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
                    slave, gate = self._spare.pop(0)
                    self._fleet += 1
                    if self.trace is not None:
                        self.trace.record(
                            env.now, "scale_up", cluster=self.master.name,
                            worker=slave.worker_id,
                            detail=f"+1: {decision.reason}",
                        )
                    env.process(
                        self._provision(slave, gate),
                        name=f"provision:{slave.worker_id}",
                    )
            elif decision.action == "remove":
                count = min(decision.count, max(0, self._fleet - 1))
                victims = sorted(self._active_ids(), reverse=True)[:count]
                for worker_id in victims:
                    self._retiring.add(worker_id)
                    self._fleet -= 1
