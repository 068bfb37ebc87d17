"""Library of combination functions for global reduction.

Section III-A: "A user can choose from one of the several common combination
functions already implemented in the generalized reduction system library
(such as aggregation, concatenation, etc.), or they can provide one of their
own." This module is that library: a registry of named binary combiners used
by :class:`~repro.core.reduction.DictReduction` and by applications'
``global_reduction`` hooks.

Combiners are looked up by name so reduction objects remain serializable
across the (simulated) wire; user-defined combiners are added with
:func:`register_combiner`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ReductionError

__all__ = ["get_combiner", "register_combiner"]

Combiner = Callable[[Any, Any], Any]

_REGISTRY: dict[str, Combiner] = {}


def register_combiner(name: str, fn: Combiner, *, overwrite: bool = False) -> None:
    """Register a named binary combiner.

    Combiners must be commutative and associative for the runtime's merge
    order to be immaterial; that contract is the application developer's to
    uphold (and hypothesis tests verify it for the built-ins).
    """
    if not name:
        raise ReductionError("combiner name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ReductionError(f"combiner {name!r} already registered")
    _REGISTRY[name] = fn


def get_combiner(name: str) -> Combiner:
    """Look up a combiner by name; raises ReductionError if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReductionError(
            f"unknown combiner {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


# --- built-ins ------------------------------------------------------------


def _sum(a: Any, b: Any) -> Any:
    return a + b


def _min(a: Any, b: Any) -> Any:
    return a if a <= b else b


def _max(a: Any, b: Any) -> Any:
    return a if a >= b else b


def _concat(a: Any, b: Any) -> Any:
    """Order-insensitive concatenation: collects into a sorted tuple.

    Plain ``a + b`` on sequences is associative but not commutative; the
    library's concatenation therefore canonicalizes to sorted order, which
    keeps the global-reduction result independent of merge order.
    """
    seq_a = a if isinstance(a, tuple) else (a,)
    seq_b = b if isinstance(b, tuple) else (b,)
    return tuple(sorted(seq_a + seq_b))


def _count(a: Any, b: Any) -> Any:
    return a + b


def _mean_pair(a: Any, b: Any) -> Any:
    """Combine ``(sum, count)`` pairs; final mean is ``sum/count``."""
    return (a[0] + b[0], a[1] + b[1])


register_combiner("sum", _sum)
register_combiner("min", _min)
register_combiner("max", _max)
register_combiner("concat", _concat)
register_combiner("count", _count)
register_combiner("mean_pair", _mean_pair)
