"""The deadline/budget autoscaling controller.

:class:`Autoscaler` is a *pure* controller: it consumes the
:class:`~repro.obs.live.RunSample` stream (pool depth, utilization,
completion-rate ETA) plus the current cloud-fleet size, accrues dollars
from :mod:`repro.bench.cost` prices, and answers with a
:class:`ScaleDecision`. It never touches threads, clocks, or sockets —
time is whatever ``sample.time`` says. That one property is what makes
the whole subsystem testable on a :class:`~repro.clock.FakeClock` with
zero real seconds slept, and lets the threaded runtime and both
discrete-event simulators share the *same* controller byte-for-byte.

Control law (walked in ``docs/SCALING.md``):

* **Budget is a hard gate.** A scale-up must fit the projected
  end-of-run spend (current spend + fleet-to-come x price x ETA, padded
  by a safety factor); once actual spend crosses the high-water mark the
  controller sheds toward ``min_slaves`` regardless of any deadline.
* **Deadline is pressure.** When the ETA overshoots the time remaining,
  add capacity (budget permitting); when the run is comfortably ahead,
  release it and stop paying.
* **Damping kills oscillation.** A decision that *reverses direction*
  within ``damping`` seconds of the previous action is suppressed, so
  the fleet ratchets instead of thrashing.
* **Bounds always win.** The fleet is clamped to
  ``[min_slaves, max_slaves]``; bound repairs bypass damping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["ScaleDecision", "Autoscaler"]

#: Projection pad on scale-up affordability: the ETA is a run-average
#: estimate, so commit new spend only when it fits with room to spare.
SAFETY = 1.25

#: Fraction of the budget at which the controller sheds to the floor.
HIGH_WATER = 0.9


@dataclass(frozen=True)
class ScaleDecision:
    """One controller verdict: do nothing, or add/remove ``count`` slaves."""

    action: str  # "none" | "add" | "remove"
    count: int = 0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in ("none", "add", "remove"):
            raise ConfigurationError(f"unknown scale action {self.action!r}")
        if self.action == "none" and self.count:
            raise ConfigurationError("a 'none' decision cannot carry a count")
        if self.action != "none" and self.count <= 0:
            raise ConfigurationError(f"{self.action} needs a positive count")


@dataclass
class Autoscaler:
    """Pure sample-driven controller for the cloud fleet size.

    Feed it every :class:`~repro.obs.live.RunSample` (in time order)
    together with the current number of cloud slaves via
    :meth:`observe`; apply the returned decision. ``dollars_spent``
    integrates fleet-seconds at ``dollars_per_slave_hour`` between
    observations, so cost accounting works identically on wall time and
    on virtual time.
    """

    min_slaves: int = 1
    max_slaves: int = 8
    deadline: float | None = None
    budget: float | None = None
    dollars_per_slave_hour: float = 0.17
    damping: float = 1.0

    dollars_spent: float = 0.0
    decisions: list[tuple[float, ScaleDecision]] = field(default_factory=list)
    _last_time: float | None = field(default=None, repr=False)
    _last_action: str = field(default="none", repr=False)
    _last_action_time: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.min_slaves < 1:
            raise ConfigurationError("min_slaves must be >= 1")
        if self.max_slaves < self.min_slaves:
            raise ConfigurationError("max_slaves must be >= min_slaves")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.budget is not None and self.budget <= 0:
            raise ConfigurationError("budget must be positive")
        if self.dollars_per_slave_hour < 0:
            raise ConfigurationError("dollars_per_slave_hour cannot be negative")
        if self.damping < 0:
            raise ConfigurationError("damping cannot be negative")

    # -- cost accounting -----------------------------------------------------

    def _accrue(self, now: float, cloud_slaves: int) -> None:
        if self._last_time is not None and now > self._last_time:
            self.dollars_spent += (
                cloud_slaves
                * self.dollars_per_slave_hour
                / 3600.0
                * (now - self._last_time)
            )
        if self._last_time is None or now > self._last_time:
            self._last_time = now

    def finalize(self, now: float, cloud_slaves: int) -> float:
        """Close the ledger: accrue the final partial interval's spend.

        The runtime's closing monitor sample does this implicitly; the
        simulators call it once their cluster runs dry. Returns the total.
        """
        self._accrue(now, cloud_slaves)
        return self.dollars_spent

    def projected_spend(self, fleet: int, eta: float) -> float:
        """Spend at completion if ``fleet`` slaves run for ``eta`` more."""
        return self.dollars_spent + fleet * self.dollars_per_slave_hour / 3600.0 * eta

    def _affordable(self, fleet: int, eta: float) -> bool:
        if self.budget is None:
            return True
        return self.projected_spend(fleet, eta) * SAFETY <= self.budget

    # -- the control law -----------------------------------------------------

    def observe(self, sample, cloud_slaves: int) -> ScaleDecision:
        """Accrue cost for the elapsed interval and decide the next move.

        ``sample`` needs the :class:`~repro.obs.live.RunSample` fields
        ``time``/``jobs_total``/``jobs_done``/``pool_depth``/
        ``eta_seconds`` and the ``utilization`` property; anything
        shaped like one works.
        """
        self._accrue(sample.time, cloud_slaves)
        decision = self._decide(sample, cloud_slaves)
        if decision.action != "none":
            self._last_action = decision.action
            self._last_action_time = sample.time
        self.decisions.append((sample.time, decision))
        return decision

    def _damped(self, now: float, action: str) -> bool:
        """True when ``action`` would reverse direction inside the window."""
        return (
            self._last_action_time is not None
            and self._last_action not in ("none", action)
            and now - self._last_action_time < self.damping
        )

    def _decide(self, sample, cloud: int) -> ScaleDecision:
        # Bound repairs are unconditional: a fleet outside
        # [min_slaves, max_slaves] (revocation can push it below) is
        # fixed immediately, damping or not.
        if cloud < self.min_slaves:
            return ScaleDecision(
                "add", self.min_slaves - cloud, "fleet below min_slaves floor"
            )
        if cloud > self.max_slaves:
            return ScaleDecision(
                "remove", cloud - self.max_slaves, "fleet above max_slaves cap"
            )

        remaining_jobs = sample.jobs_total - sample.jobs_done
        if remaining_jobs <= 0:
            return ScaleDecision("none", 0, "run complete")
        eta = sample.eta_seconds
        if eta is None:
            return ScaleDecision("none", 0, "no completion-rate signal yet")

        # Budget high-water latch: shed to the floor before the cap hits.
        if self.budget is not None:
            over = self.dollars_spent >= HIGH_WATER * self.budget
            unaffordable = self.projected_spend(cloud, eta) > self.budget
            if (over or unaffordable) and cloud > self.min_slaves:
                if self._damped(sample.time, "remove"):
                    return ScaleDecision("none", 0, "budget shed damped")
                return ScaleDecision(
                    "remove",
                    cloud - self.min_slaves,
                    f"spend ${self.dollars_spent:.4f} nearing budget "
                    f"${self.budget:.4f}: pegging to floor",
                )

        if self.deadline is not None:
            remaining = self.deadline - sample.time
            if eta > max(remaining, 0.0):
                if (
                    cloud < self.max_slaves
                    and sample.pool_depth + sample.in_flight > cloud
                    and self._affordable(cloud + 1, eta)
                    and not self._damped(sample.time, "add")
                ):
                    return ScaleDecision(
                        "add",
                        1,
                        f"eta {eta:.1f}s misses deadline "
                        f"({max(remaining, 0.0):.1f}s left)",
                    )
                return ScaleDecision("none", 0, "deadline pressure, cannot add")
            if eta < 0.5 * remaining and cloud > self.min_slaves:
                if self._damped(sample.time, "remove"):
                    return ScaleDecision("none", 0, "release damped")
                return ScaleDecision(
                    "remove", 1, f"eta {eta:.1f}s well inside {remaining:.1f}s left"
                )
            return ScaleDecision("none", 0, "on track for deadline")

        if self.budget is not None:
            # Budget-only mode: buy throughput while the backlog and the
            # projection both say it is worth it.
            if (
                sample.pool_depth > 0
                and cloud < self.max_slaves
                and self._affordable(cloud + 1, eta)
                and not self._damped(sample.time, "add")
            ):
                return ScaleDecision("add", 1, "backlog with budget headroom")
            return ScaleDecision("none", 0, "budget steady")

        # Pure load mode (no deadline, no budget): track the backlog.
        if (
            sample.pool_depth > 0
            and sample.utilization >= 0.9
            and cloud < self.max_slaves
            and not self._damped(sample.time, "add")
        ):
            return ScaleDecision("add", 1, "backlog at full utilization")
        if (
            sample.pool_depth == 0
            and sample.utilization < 0.5
            and cloud > self.min_slaves
            and not self._damped(sample.time, "remove")
        ):
            return ScaleDecision("remove", 1, "idle cloud capacity")
        return ScaleDecision("none", 0, "steady")
