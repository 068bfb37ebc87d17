"""Seeded spot/transient-instance revocation for cloud slaves.

Cloud providers reclaim spot capacity with little warning; a framework
that bursts onto spot instances must treat "my slave vanished mid-job"
as a normal event, not a disaster. A :class:`RevocationSpec` says how
often instances vanish (and how long a replacement takes to provision);
its :meth:`~RevocationSpec.draw` is the die, a pure function of
``(seed, slave id, job ordinal)``.

The die is rolled in one place for both engines: the cloud master's
:class:`~repro.core.master.MasterCore`, each time it would hand a slave a
job. A hit answers the slave ``None``, drops whatever the slave sends
afterwards, and re-executes its uncommitted jobs on the others, exactly
as for a crash, so results stay bit-identical and only the telemetry
tells ``slaves_revoked`` from ``slaves_failed``. The core never revokes
its last active slave; retired slaves count against that floor.

A spec is buildable from a compact text grammar so the CLI can take
``--revoke`` on the command line::

    rate=0.05            each cloud slave rolls a 5% die per job handed
    seed=7               reseed the revocation schedule
    provision=30         replacement capacity takes 30 s to come up
                         (simulated runs only)

Clauses are comma-separated, mirroring ``FaultSpec.parse``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["RevocationSpec"]


@dataclass(frozen=True)
class RevocationSpec:
    """How often cloud instances vanish, and how slowly they come back.

    ``rate`` is the per-job probability that the slave about to be handed
    the job is revoked instead (the master rolls before the hand-out, so
    that job stays pooled). ``provision_seconds`` is the delay between an
    autoscaler's scale-up decision and the new slave joining, in the
    simulator's virtual time; the executable runtime attaches a bought
    slave at once and does not model it.
    """

    rate: float = 0.0
    seed: int = 2011
    provision_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"revocation rate must be in [0, 1], got {self.rate}"
            )
        if self.provision_seconds < 0:
            raise ConfigurationError("provision_seconds cannot be negative")

    @classmethod
    def parse(cls, text: str) -> "RevocationSpec":
        """Build a spec from the ``--revoke`` grammar (see module docs)."""
        fields: dict = {}
        for clause in filter(None, (c.strip() for c in text.split(","))):
            if "=" not in clause:
                raise ConfigurationError(
                    f"revocation clause {clause!r}: expected key=value"
                )
            key, _, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "rate":
                try:
                    fields["rate"] = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"revocation clause {clause!r}: bad rate {value!r}"
                    ) from None
            elif key == "seed":
                try:
                    fields["seed"] = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"revocation clause {clause!r}: seed must be an integer"
                    ) from None
            elif key == "provision":
                try:
                    fields["provision_seconds"] = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"revocation clause {clause!r}: bad seconds {value!r}"
                    ) from None
            else:
                raise ConfigurationError(
                    f"unknown revocation clause {key!r} "
                    "(known: rate, seed, provision)"
                )
        return cls(**fields)

    @property
    def active(self) -> bool:
        return self.rate > 0

    def describe(self) -> str:
        parts = [f"rate={self.rate:g}", f"seed={self.seed}"]
        if self.provision_seconds:
            parts.append(f"provision={self.provision_seconds:g}")
        return ",".join(parts)

    def draw(self, slave_id: int, job_index: int) -> bool:
        """Deterministic per-(slave, job-ordinal) revocation roll: the
        schedule is a pure function of the spec and the slave's own job
        sequence, never of thread interleaving."""
        if self.rate <= 0:
            return False
        rng = random.Random((self.seed * 1_000_003) ^ (slave_id << 17) ^ job_index)
        return rng.random() < self.rate
