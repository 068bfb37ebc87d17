"""Elastic bursting inside the threaded runtime.

:class:`RuntimeBurst` is the executable twin of the simulator's
:class:`~repro.scale.simmodel.ClusterBurst`: for one pass it feeds every
:class:`~repro.obs.live.RunMonitor` sample to the pure
:class:`~repro.scale.Autoscaler` and turns its decisions into attach /
detach messages to the cloud master. How a slave is built stays the
driver's ``make_slave``. Which slaves retire, and which the spot market
revokes, is the master core's call in both engines; the fleet count here
reads the core's revocations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from ..core.messages import SlaveAttach, SlaveDetach

if TYPE_CHECKING:  # avoid options <-> scale import cycle
    from ..options import ScaleOptions

__all__ = ["RuntimeBurst"]


class RuntimeBurst:
    """Dynamic fleet management for the runtime's cloud cluster."""

    def __init__(
        self,
        scale: ScaleOptions,
        master,
        make_slave: Callable[[int], object],
        crew: list,
        crew_lock: threading.Lock,
        *,
        id_limit: int | None = None,
    ) -> None:
        self.controller = scale.make_autoscaler()
        self.master = master
        self.make_slave = make_slave
        #: The driver's slave list and its lock: attached workers are
        #: appended so the probe counts them and the driver joins them.
        self.crew = crew
        self.crew_lock = crew_lock
        self.next_id = len(crew)
        #: One past the last usable slave id — the process pool's worker
        #: count, forked before the run; threads have no such limit.
        self.id_limit = id_limit
        self.added = 0
        self.removed = 0
        #: Cleared by the driver once the head has joined: samples still
        #: accrue dollars, the fleet stops changing.
        self.applying = True

    def on_sample(self, sample) -> None:
        master = self.master
        revoked = master.core.slaves_revoked
        fleet = max(0, master.num_slaves + self.added - self.removed - revoked)
        decision = self.controller.observe(sample, fleet)
        if not self.applying:
            return
        if decision.action == "add":
            workers = []
            for _ in range(decision.count):
                if self.id_limit is not None and self.next_id >= self.id_limit:
                    break  # process slots exhausted; skip the add
                workers.append(self.make_slave(self.next_id))
                self.next_id += 1
            if workers:
                with self.crew_lock:
                    self.crew.extend(workers)
                self.added += len(workers)
                master.inbox.post(SlaveAttach(workers=tuple(workers)))
                if master.trace is not None:
                    master.trace.emit(
                        "scale_up", cluster=master.name,
                        detail=f"+{len(workers)}: {decision.reason}",
                    )
        elif decision.action == "remove":
            count = min(decision.count, max(0, fleet - 1))
            if count > 0:
                self.removed += count
                master.inbox.post(SlaveDetach(count=count))
                # The master traces one scale_down per slave it
                # actually retires (its floor may defer some).
