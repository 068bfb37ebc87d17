"""The runtime's counter ledger.

:func:`read_ledger` copies every counter a run's components keep into the
fields of :class:`~repro.obs.record.RunTelemetry`, the one record every
engine reports.
"""

from __future__ import annotations

from typing import Mapping

from ..resilience.faults import FaultInjector

__all__ = ["read_ledger"]


def read_ledger(
    reader, stores: Mapping[str, object], cache=None, codec=None
) -> dict[str, int]:
    """The components' *cumulative* counters, keyed by the
    :class:`~repro.obs.record.RunTelemetry` field each one fills — the one place a counter
    is copied out of a component. Serial mode reports a whole run from
    it; the driver reads it before and after a pass and reports the
    difference, because injectors, cache and codec outlive a pass."""
    resilience = reader.resilience
    ledger = {
        "retries": resilience.retries,
        "hedges": resilience.hedges,
        "hedge_wins": resilience.hedge_wins,
        "timeouts": resilience.timeouts,
        "circuit_opens": sum(b.opens for b in reader.breakers().values()),
        "faults_injected": sum(
            store.counters.total
            for store in stores.values()
            if isinstance(store, FaultInjector)
        ),
        "zero_copy_reads": reader.zero_copy_reads,
        "bytes_copied": reader.bytes_copied,
        "remote_bytes": reader.remote_bytes,
    }
    if cache is not None:
        stats = cache.stats
        ledger.update(
            cache_hits=stats.hits,
            cache_misses=stats.misses,
            cache_evictions=stats.evictions,
            bytes_saved=stats.bytes_saved,
        )
    if codec is not None:
        stats = codec.stats
        ledger.update(
            sync_uploads=stats.uploads,
            sync_bytes_sent=stats.wire_bytes,
            sync_bytes_saved=stats.bytes_saved,
        )
    return ledger
