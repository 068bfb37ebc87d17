"""Reduction objects — the central data structure of Generalized Reduction.

Section III-A of the paper: the application developer designs a *reduction
object*; the middleware manages its allocation, merging, and movement. Each
data element is folded straight into the object by the ``local reduction``
function, and per-worker objects are later merged by ``global reduction``.

The contract every reduction object must satisfy (and which the property
tests enforce) is that ``merge`` is **commutative and associative** up to the
application's notion of equivalence, so that the result is independent of
the order in which the runtime processes data elements and merges workers'
objects.

This module provides the abstract protocol plus the implementations used by
the paper's three applications and the extra example apps:

* :class:`ArrayReduction` — a NumPy accumulator (kmeans, pagerank,
  histogram);
* :class:`DictReduction` — keyed accumulator (wordcount);
* :class:`TopKReduction` — k smallest scored items (k-nearest neighbors);
* :class:`ScalarReduction` — a single value;
* :class:`StructReduction` — a named bundle of the above (kmeans keeps
  per-centroid sums *and* counts).
"""

from __future__ import annotations

import abc
import pickle
import struct
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..errors import ReductionError

__all__ = [
    "ReductionObject",
    "ArrayReduction",
    "DictReduction",
    "TopKReduction",
    "ScalarReduction",
    "StructReduction",
    "from_bytes",
]


class ReductionObject(abc.ABC):
    """Abstract reduction object managed by the middleware.

    Subclasses must implement merge/serialize/size; equality of *values*
    (not object identity) is what the integration tests compare.
    """

    @abc.abstractmethod
    def merge(self, other: "ReductionObject") -> None:
        """Fold ``other`` into ``self`` (global reduction step).

        Must be commutative and associative; ``other`` is not modified.
        """

    @abc.abstractmethod
    def clone_empty(self) -> "ReductionObject":
        """Return a fresh, identity-element object of the same shape."""

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate serialized size, used for transfer-cost accounting.

        The paper's PageRank reduction object is ~300 MB and its transfer
        dominates sync time — this number is what the simulator charges.
        """

    @abc.abstractmethod
    def value(self) -> Any:
        """Extract the application-facing result."""

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize for inter-cluster transfer."""

    # -- shared serialization envelope ------------------------------------

    _TYPE_TAGS: dict[str, type] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        ReductionObject._TYPE_TAGS[cls.__name__] = cls

    def _envelope(self, payload: bytes) -> bytes:
        tag = type(self).__name__.encode("ascii")
        return struct.pack("<I", len(tag)) + tag + payload


def from_bytes(blob: bytes) -> ReductionObject:
    """Deserialize a reduction object produced by :meth:`to_bytes`."""
    if len(blob) < 4:
        raise ReductionError("truncated reduction object blob")
    (tag_len,) = struct.unpack_from("<I", blob, 0)
    tag = blob[4 : 4 + tag_len].decode("ascii")
    payload = blob[4 + tag_len :]
    cls = ReductionObject._TYPE_TAGS.get(tag)
    if cls is None:
        raise ReductionError(f"unknown reduction object type {tag!r}")
    return cls._from_payload(payload)  # type: ignore[attr-defined]


class ArrayReduction(ReductionObject):
    """A fixed-shape NumPy accumulator with an elementwise combiner.

    ``op`` may be ``'sum'``, ``'min'``, or ``'max'``. The identity element
    is zeros for sum, +inf for min, -inf for max.
    """

    _IDENTITY = {"sum": 0.0, "min": np.inf, "max": -np.inf}
    _UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float64,
        op: str = "sum",
        data: np.ndarray | None = None,
    ) -> None:
        if op not in self._UFUNC:
            raise ReductionError(f"unsupported array combiner {op!r}")
        self.op = op
        if data is not None:
            self.data = np.asarray(data, dtype=dtype).copy()
        else:
            fill = self._IDENTITY[op]
            self.data = np.full(shape, fill, dtype=dtype)

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, ArrayReduction):
            raise ReductionError(
                f"cannot merge ArrayReduction with {type(other).__name__}"
            )
        if other.data.shape != self.data.shape or other.op != self.op:
            raise ReductionError("mismatched ArrayReduction shape or combiner")
        self._UFUNC[self.op](self.data, other.data, out=self.data)

    def clone_empty(self) -> "ArrayReduction":
        return ArrayReduction(self.data.shape, dtype=self.data.dtype, op=self.op)

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def value(self) -> np.ndarray:
        return self.data

    def to_bytes(self) -> bytes:
        header = pickle.dumps((self.op, self.data.dtype.str, self.data.shape))
        payload = struct.pack("<I", len(header)) + header + self.data.tobytes()
        return self._envelope(payload)

    @classmethod
    def _from_payload(cls, payload: bytes) -> "ArrayReduction":
        (hlen,) = struct.unpack_from("<I", payload, 0)
        op, dtype_str, shape = pickle.loads(payload[4 : 4 + hlen])
        arr = np.frombuffer(payload[4 + hlen :], dtype=np.dtype(dtype_str))
        return cls(shape, dtype=np.dtype(dtype_str), op=op, data=arr.reshape(shape))


class DictReduction(ReductionObject):
    """A keyed accumulator: ``{key: value}`` with a binary combiner.

    ``combiner`` is a named combiner from :mod:`repro.core.combiners`
    (passed as its name so the object stays serializable) — e.g. ``'sum'``,
    ``'max'``, ``'concat'``.
    """

    def __init__(
        self,
        combiner: str = "sum",
        items: Mapping[Any, Any] | None = None,
    ) -> None:
        from .combiners import get_combiner  # local import: avoid cycle

        self.combiner_name = combiner
        self._combine: Callable[[Any, Any], Any] = get_combiner(combiner)
        self.items: dict[Any, Any] = dict(items) if items else {}
        #: Memoized pickled size; every mutation invalidates it, so size
        #: accounting is O(bytes) once per change burst instead of per call.
        self._nbytes_cache: int | None = None

    def add(self, key: Any, value: Any) -> None:
        """Fold one ``(key, value)`` pair into the object."""
        self._nbytes_cache = None
        if key in self.items:
            self.items[key] = self._combine(self.items[key], value)
        else:
            self.items[key] = value

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, DictReduction):
            raise ReductionError(
                f"cannot merge DictReduction with {type(other).__name__}"
            )
        if other.combiner_name != self.combiner_name:
            raise ReductionError("mismatched DictReduction combiners")
        for key, value in other.items.items():
            self.add(key, value)

    def clone_empty(self) -> "DictReduction":
        return DictReduction(self.combiner_name)

    def nbytes(self) -> int:
        # The estimate is the pickled size (what would cross the wire),
        # which is O(bytes) to compute — cache it between mutations.
        if self._nbytes_cache is None:
            self._nbytes_cache = len(
                pickle.dumps(self.items, protocol=pickle.HIGHEST_PROTOCOL)
            )
        return self._nbytes_cache

    def value(self) -> dict[Any, Any]:
        return self.items

    def to_bytes(self) -> bytes:
        payload = pickle.dumps(
            (self.combiner_name, self.items), protocol=pickle.HIGHEST_PROTOCOL
        )
        return self._envelope(payload)

    @classmethod
    def _from_payload(cls, payload: bytes) -> "DictReduction":
        combiner, items = pickle.loads(payload)
        return cls(combiner, items)


class TopKReduction(ReductionObject):
    """Keeps the ``k`` items with the smallest scores (kNN's neighbor set).

    Stored as parallel NumPy arrays (scores, payload ids) kept sorted
    ascending, so merging is a sorted merge + truncate. The identity is an
    empty set. Ties are broken by payload id for determinism, which is what
    makes the hypothesis order-independence test exact.
    """

    def __init__(
        self,
        k: int,
        scores: np.ndarray | None = None,
        ids: np.ndarray | None = None,
    ) -> None:
        if k <= 0:
            raise ReductionError("TopKReduction requires k >= 1")
        self.k = int(k)
        if scores is None:
            self.scores = np.empty(0, dtype=np.float64)
            self.ids = np.empty(0, dtype=np.int64)
        else:
            self.scores = np.asarray(scores, dtype=np.float64).copy()
            self.ids = np.asarray(ids, dtype=np.int64).copy()
            self._canonicalize()

    def _canonicalize(self) -> None:
        order = np.lexsort((self.ids, self.scores))
        self.scores = self.scores[order][: self.k]
        self.ids = self.ids[order][: self.k]

    def offer(self, scores: np.ndarray, ids: np.ndarray) -> None:
        """Fold a batch of candidate (score, id) pairs into the object.

        Vectorized: concatenate, lexsort, truncate. Called per unit-group by
        the knn local reduction, so the batch is cache-sized.
        """
        self.scores = np.concatenate([self.scores, np.asarray(scores, np.float64)])
        self.ids = np.concatenate([self.ids, np.asarray(ids, np.int64)])
        self._canonicalize()

    @property
    def worst(self) -> float:
        """Current kth-best score (+inf while fewer than k held)."""
        if len(self.scores) < self.k:
            return float("inf")
        return float(self.scores[-1])

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, TopKReduction):
            raise ReductionError(
                f"cannot merge TopKReduction with {type(other).__name__}"
            )
        if other.k != self.k:
            raise ReductionError("mismatched TopKReduction k")
        self.offer(other.scores, other.ids)

    def clone_empty(self) -> "TopKReduction":
        return TopKReduction(self.k)

    def nbytes(self) -> int:
        return int(self.scores.nbytes + self.ids.nbytes)

    def value(self) -> list[tuple[float, int]]:
        return [(float(s), int(i)) for s, i in zip(self.scores, self.ids)]

    def to_bytes(self) -> bytes:
        # ``k`` and the entry count ``n``, then the scores and the ids as
        # little-endian raw bytes: no pickled arrays, so a corrupt blob is a
        # ReductionError, not a crash inside numpy's unpickler, and a blob
        # cut short never reads as a smaller set.
        return self._envelope(
            struct.pack("<QQ", self.k, len(self.scores))
            + self.scores.astype("<f8").tobytes()
            + self.ids.astype("<i8").tobytes()
        )

    @classmethod
    def _from_payload(cls, payload: bytes) -> "TopKReduction":
        if len(payload) < 16:
            raise ReductionError(f"TopKReduction payload of {len(payload)} B")
        k, n = struct.unpack_from("<QQ", payload, 0)
        if n > k or len(payload) != 16 + 16 * n:
            raise ReductionError(
                f"TopKReduction payload of {len(payload)} B for {n} of k={k} entries"
            )
        scores = np.frombuffer(payload, dtype="<f8", count=n, offset=16)
        ids = np.frombuffer(payload, dtype="<i8", count=n, offset=16 + 8 * n)
        return cls(k, scores, ids)


class ScalarReduction(ReductionObject):
    """A single accumulated value with a named combiner (``'sum'``/``'min'``/``'max'``)."""

    _IDENTITY = {"sum": 0.0, "min": float("inf"), "max": float("-inf")}

    def __init__(self, combiner: str = "sum", initial: float | None = None) -> None:
        if combiner not in self._IDENTITY:
            raise ReductionError(f"unsupported scalar combiner {combiner!r}")
        self.combiner_name = combiner
        self.val = self._IDENTITY[combiner] if initial is None else float(initial)

    def add(self, x: float) -> None:
        if self.combiner_name == "sum":
            self.val += x
        elif self.combiner_name == "min":
            self.val = min(self.val, x)
        else:
            self.val = max(self.val, x)

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, ScalarReduction):
            raise ReductionError(
                f"cannot merge ScalarReduction with {type(other).__name__}"
            )
        if other.combiner_name != self.combiner_name:
            raise ReductionError("mismatched ScalarReduction combiners")
        self.add(other.val)

    def clone_empty(self) -> "ScalarReduction":
        return ScalarReduction(self.combiner_name)

    def nbytes(self) -> int:
        return 8

    def value(self) -> float:
        return self.val

    def to_bytes(self) -> bytes:
        return self._envelope(pickle.dumps((self.combiner_name, self.val)))

    @classmethod
    def _from_payload(cls, payload: bytes) -> "ScalarReduction":
        combiner, val = pickle.loads(payload)
        return cls(combiner, val)


class StructReduction(ReductionObject):
    """A named bundle of reduction objects merged field-by-field.

    kmeans uses ``{'sums': ArrayReduction(k, d), 'counts': ArrayReduction(k)}``.
    """

    def __init__(self, fields: Mapping[str, ReductionObject]) -> None:
        if not fields:
            raise ReductionError("StructReduction requires at least one field")
        self.fields: dict[str, ReductionObject] = dict(fields)

    def __getitem__(self, name: str) -> ReductionObject:
        return self.fields[name]

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, StructReduction):
            raise ReductionError(
                f"cannot merge StructReduction with {type(other).__name__}"
            )
        if set(other.fields) != set(self.fields):
            raise ReductionError("mismatched StructReduction fields")
        for name, robj in self.fields.items():
            robj.merge(other.fields[name])

    def clone_empty(self) -> "StructReduction":
        return StructReduction(
            {name: robj.clone_empty() for name, robj in self.fields.items()}
        )

    def nbytes(self) -> int:
        return sum(robj.nbytes() for robj in self.fields.values())

    def value(self) -> dict[str, Any]:
        return {name: robj.value() for name, robj in self.fields.items()}

    def to_bytes(self) -> bytes:
        blob = pickle.dumps(
            {name: robj.to_bytes() for name, robj in self.fields.items()},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return self._envelope(blob)

    @classmethod
    def _from_payload(cls, payload: bytes) -> "StructReduction":
        encoded: dict[str, bytes] = pickle.loads(payload)
        return cls({name: from_bytes(blob) for name, blob in encoded.items()})


def merge_all(objects: Iterable[ReductionObject]) -> ReductionObject:
    """Merge a sequence of reduction objects into one (left fold).

    Raises :class:`ReductionError` on an empty sequence — the runtime always
    has at least one worker.
    """
    it = iter(objects)
    try:
        first = next(it)
    except StopIteration:
        raise ReductionError("cannot merge zero reduction objects") from None
    acc = first.clone_empty()
    acc.merge(first)
    for obj in it:
        acc.merge(obj)
    return acc
