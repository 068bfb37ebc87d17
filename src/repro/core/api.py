"""The Generalized Reduction programming API.

Section III-A: the application developer supplies three components —

* the **reduction object** (via :meth:`GeneralizedReductionApp.create_reduction_object`),
* the **local reduction** function, which folds data elements straight into
  the reduction object (fusing map + combine + reduce: no intermediate
  ``(key, value)`` pairs, no shuffle),
* the **global reduction**, which merges per-worker reduction objects
  (defaulting to the middleware's library merge).

The middleware owns everything else: chunk retrieval, unit grouping, object
allocation, merge scheduling, and inter-cluster movement.

``local_reduction`` receives a *group* of data units at a time (a NumPy
array slice sized to the compute unit's cache — Section III-B's "group of
data units"), so applications vectorize naturally.

The processing result must be independent of the order in which unit groups
are processed — the same contract the paper states — and the test suite
checks it for every bundled application.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..config import DEFAULT_UNITS_PER_GROUP
from ..errors import ConfigurationError, ReductionError
from .reduction import ReductionObject, merge_all

__all__ = ["GeneralizedReductionApp", "run_serial", "iterate_passes"]


class GeneralizedReductionApp(abc.ABC):
    """Base class for applications written against Generalized Reduction.

    Subclasses must be picklable-free of per-run mutable state: one app
    instance is shared by all workers in the in-process runtime.
    """

    #: Short registry key, e.g. ``"knn"``.
    name: str = "app"

    # -- developer-supplied components ---------------------------------------

    @abc.abstractmethod
    def create_reduction_object(self) -> ReductionObject:
        """Allocate an identity-valued reduction object."""

    @abc.abstractmethod
    def local_reduction(self, robj: ReductionObject, units: np.ndarray) -> None:
        """Process one cache-sized group of data units into ``robj``."""

    def global_reduction(
        self, robjs: Sequence[ReductionObject]
    ) -> ReductionObject:
        """Merge worker reduction objects; defaults to the library merge.

        Applications with non-trivial combination (or that want one of the
        library combination functions other than the object's own merge)
        override this.
        """
        return merge_all(robjs)

    def finalize(self, robj: ReductionObject) -> Any:
        """Turn the final reduction object into the application result."""
        return robj.value()

    # -- data plumbing ----------------------------------------------------------

    @abc.abstractmethod
    def decode_chunk(self, raw: bytes) -> np.ndarray:
        """Decode a retrieved chunk's bytes into an array of data units.

        The returned array's first axis indexes units; the runtime slices
        it into cache-sized groups before calling :meth:`local_reduction`.
        """

    def unit_groups(
        self, units: np.ndarray, units_per_group: int
    ) -> Iterable[np.ndarray]:
        """Split decoded units into cache-sized groups (views, not copies)."""
        if units_per_group <= 0:
            raise ReductionError("units_per_group must be positive")
        n = len(units)
        for start in range(0, n, units_per_group):
            yield units[start : start + units_per_group]


def run_serial(
    app: GeneralizedReductionApp,
    chunks: Iterable[bytes],
    *,
    units_per_group: int = DEFAULT_UNITS_PER_GROUP,
) -> Any:
    """Run an application serially over raw chunks — the correctness oracle.

    This is the simplest possible execution of the API: a single reduction
    object, every chunk processed in order. Integration tests compare the
    distributed runtime's output against this.

    .. deprecated::
        Prefer :func:`repro.run` with ``RunConfig(mode="serial")`` — the
        unified facade — for new code. This function remains as the thin
        engine the facade calls (``tests/test_run_facade.py`` pins the
        equivalence) and will not be removed.
    """
    robj = app.create_reduction_object()
    for raw in chunks:
        units = app.decode_chunk(raw)
        for group in app.unit_groups(units, units_per_group):
            app.local_reduction(robj, group)
    final = app.global_reduction([robj])
    return app.finalize(final)


def iterate_passes(
    run_pass: Callable[[], Any],
    update: Callable[[Any], None],
    *,
    iterations: int,
    tolerance: float | None = None,
    distance: Callable[[Any, Any], float] | None = None,
) -> tuple[Any, int]:
    """The pass loop of an iterative run, for every engine.

    Calls ``run_pass()`` up to ``iterations`` times, feeding each result
    back through ``update``; stops early once ``distance(previous,
    current) <= tolerance`` (the default distance is the max absolute
    difference of array results). Returns ``(final_result, passes_run)``.
    """
    if iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    if distance is None:
        def distance(a: Any, b: Any) -> float:
            return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    previous: Any = None
    result: Any = None
    passes = 0
    for _ in range(iterations):
        result = run_pass()
        passes += 1
        if (
            tolerance is not None
            and previous is not None
            and distance(previous, result) <= tolerance
        ):
            break
        previous = result
        update(result)
    return result, passes
