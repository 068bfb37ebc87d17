"""Elastic cloud bursting: autoscaling and spot revocation.

The paper bursts to a *fixed* set of EC2 slaves. This package makes the
burst dynamic: a pure :class:`Autoscaler` watches the
:class:`~repro.obs.live.RunMonitor` sample stream plus
:mod:`repro.bench.cost` prices and sizes the cloud fleet mid-run to hit
a deadline or a dollar budget, while a seeded :class:`RevocationSpec`
models instances vanishing mid-job (the cloud master rolls it and
re-executes the victim's jobs — results stay bit-identical).

Enable via ``RunConfig(scale=ScaleOptions(autoscale=True, deadline=...,
budget=..., revocation="rate=0.05"))`` or ``repro run --autoscale``.
See ``docs/SCALING.md`` for the control law and its invariants.
"""

from .controller import Autoscaler, ScaleDecision
from .revocation import RevocationSpec

__all__ = ["Autoscaler", "ScaleDecision", "RevocationSpec"]
