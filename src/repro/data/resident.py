"""Datasets a :class:`~repro.service.JobService` keeps built across runs.

Every run used to materialize its dataset into fresh in-memory stores:
generate each block, encode it, write it. On a service that runs the
same few apps over the same data again and again that is identical work
per run, and on small runs it is a third of the engine's time (1.1–2.3
ms of a 2.8–5.3 ms ``run_direct`` on the four ``service_burst`` apps at
16 Ki units, one run at a time on a 2-core Xeon).
:class:`ResidentDatasets` keeps each built ``(index, stores)`` pair
under the key that fixes its bytes and hands the same pair to every
later run with that key.

Sharing is safe because a run only reads its stores: fault injection
wraps them per run, and the per-run ledger counts readers, wrappers,
caches and codecs, never the stores themselves. The pool is scoped, not
global: :meth:`ResidentDatasets.active` installs it for the calling
context (a service does so around each execution) and the facade's
dataset build asks :func:`current`. Outside a service every run builds
its own dataset, as before.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Hashable, Iterator

from ..units import MB

__all__ = ["ResidentDatasets", "current"]

#: Dataset bytes kept resident; a dataset larger than this is built per
#: run. ``service_burst``'s four datasets take 0.85 MB. On the same loop
#: with a new seed per run (nothing repeats, 1,600 runs, 2-core Xeon),
#: the service's peak RSS read 60 MB with no pool, 67 MB at this bound,
#: 72 MB at 8 MB and 328 MB at 256 MB, at equal runs/s.
_BUDGET = 4 * MB

_ACTIVE: ContextVar["ResidentDatasets | None"] = ContextVar(
    "resident_datasets", default=None
)


def current() -> "ResidentDatasets | None":
    """The pool installed for this context, or ``None`` outside a service."""
    return _ACTIVE.get()


class ResidentDatasets:
    """A byte-bounded, least-recently-used pool of built datasets."""

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0
        self.builds = 0
        self.hits = 0
        self.evictions = 0

    @contextmanager
    def active(self) -> Iterator[None]:
        """Make this pool :func:`current` for the calling context."""
        token = _ACTIVE.set(self)
        try:
            yield
        finally:
            _ACTIVE.reset(token)

    def get(self, key: Hashable, build: Callable[[], Any], nbytes: int) -> Any:
        """The dataset resident under ``key``, building it on a miss.

        ``build`` runs outside the lock, so runs on other datasets are
        not held up; two runs that miss on one key at once both build,
        and both get the copy that became resident first.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
        value = build()
        with self._lock:
            self.builds += 1
            if key in self._entries:
                return self._entries[key][0]
            if nbytes <= _BUDGET:
                self._entries[key] = (value, nbytes)
                self.bytes += nbytes
                while self.bytes > _BUDGET:
                    _, (_, freed) = self._entries.popitem(last=False)
                    self.bytes -= freed
                    self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every resident dataset (runs in flight keep theirs)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "resident": len(self._entries),
                "bytes": self.bytes,
                "builds": self.builds,
                "hits": self.hits,
                "evictions": self.evictions,
            }
