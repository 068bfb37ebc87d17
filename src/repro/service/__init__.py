"""Multi-run job service: many tenants sharing one bursting cluster.

The paper's middleware executes one reduction run at a time, owning the
whole cluster. This package turns that into a long-lived service:

.. code-block:: python

    from repro.service import JobService, TenantSpec

    with JobService(workers=4, capacity=256) as service:
        service.register(TenantSpec("analytics", weight=4))
        service.register(TenantSpec("adhoc", weight=1, max_pending=32))

        handle = service.submit("kmeans", dataset, config,
                                tenant="analytics", priority=5)
        for sample in handle.stream():     # live run-health timeline
            print(sample.pool_depth)
        result = handle.result(timeout=60)

Scheduling is weighted fair-share (stride) across tenants with
priorities within each tenant — see
:class:`~repro.core.jobpool.FairShareQueue`. Admission control bounds
per-tenant backlog (``max_pending``), per-tenant concurrency
(``max_active``), and global occupancy (``capacity``). Everything keeps
time through :mod:`repro.clock`, so the whole lifecycle — submit,
dispatch, drain, shutdown — runs deterministically in virtual time under
a :class:`~repro.clock.FakeClock` in tests.

Each submission executes through the single-run engine dispatch,
:func:`repro.run`.
"""

from .core import JobService, TenantSpec
from .journal import ServiceJournal

__all__ = ["JobService", "TenantSpec", "ServiceJournal"]
