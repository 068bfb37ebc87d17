"""Elastic bursting: one fleet manager for both engines.

:class:`FleetManager` carries out the pure :class:`~repro.scale.Autoscaler`
on the burst cluster of a pass, in the threaded runtime and in the
simulator alike. It feeds the controller every
:class:`~repro.obs.live.RunMonitor` sample with the fleet it pays for,
hands out pre-built spare slaves on a scale-up (one ``scale_up`` trace
event each) and asks the master for retirements on a scale-down. What
differs between engines is only how a bought slave joins: the runtime
attaches it at once, the simulator after ``provision_seconds`` of
virtual time. Which slaves retire, and which the spot market revokes, is
the master core's call in both engines; the fleet count here reads the
core's revocations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..core.messages import SlaveAttach, SlaveDetach
from ..obs.live import RunMonitor

if TYPE_CHECKING:  # avoid options <-> scale import cycle
    from ..options import ScaleOptions

__all__ = ["FleetManager"]


class FleetManager:
    """The autoscaled fleet of one pass's burst cluster.

    ``master`` is the burst cluster's master shell (its ``core``, ``name``
    and ``emit``); ``deliver`` takes a message to it now. At construction
    the manager pre-builds one spare slave with ``make_slave(id)`` for
    each of ``ids``, the pass layout's spare ids, in order: dead ids are
    never reused, so these are every id a scale-up may claim, and an add
    past them is skipped. ``join(slave)`` is how a bought slave joins; by
    default a :class:`~repro.core.messages.SlaveAttach` delivered at once.
    The manager subscribes to ``monitor``, or to a private one at
    ``scale.interval`` when none was given (:attr:`private`).
    """

    def __init__(
        self,
        scale: ScaleOptions,
        master,
        make_slave: Callable[[int], object],
        ids: range,
        monitor: RunMonitor | None,
        *,
        deliver: Callable[[object], None],
        join: Callable[[object], None] | None = None,
    ) -> None:
        self.controller = scale.make_autoscaler()
        self.master = master
        self.deliver = deliver
        self.join = join or (lambda slave: deliver(SlaveAttach((slave,))))
        self.spares = tuple(make_slave(slave_id) for slave_id in ids)
        self._bought = 0
        # The static crew plus every slave bought, less every retirement
        # asked for; ``fleet`` also takes off the core's revocations.
        self._ordered = master.core.active
        self.private = monitor is None
        self.monitor = monitor if monitor is not None else RunMonitor(scale.interval)
        self.monitor.subscribe(self.on_sample)

    @property
    def fleet(self) -> int:
        """The slaves the controller pays for."""
        return self._ordered - self.master.core.slaves_revoked

    @property
    def done(self) -> bool:
        """The fleet no longer changes: its master's run is over."""
        return self.master.core.run_over

    def on_sample(self, sample) -> None:
        """Feed one sample to the controller and carry out its decision."""
        if self.done:
            return
        decision = self.controller.observe(sample, self.fleet)
        if decision.action == "add":
            for _ in range(min(decision.count, len(self.spares) - self._bought)):
                slave = self.spares[self._bought]
                self._bought += 1
                self._ordered += 1
                self.master.emit(
                    "scale_up", worker=slave.slave_id,
                    detail=f"+1: {decision.reason}",
                )
                self.join(slave)
        elif decision.action == "remove":
            count = min(decision.count, max(0, self.fleet - 1))
            if count > 0:
                # The core retires its next requesters (never its last
                # active slave) and traces each scale_down.
                self._ordered -= count
                self.deliver(SlaveDetach(count))

    def close(self, now: float) -> float:
        """Shut the dollar ledger at ``now``, in the samples' time, once
        the run is over. Returns the dollars spent."""
        return self.controller.finalize(now, self.fleet)

    def leave(self) -> None:
        """Stop taking the monitor's samples: a monitor that outlives the
        pass does not keep feeding (or keeping alive) its fleet."""
        self.monitor.unsubscribe(self.on_sample)
