"""Wire codecs for reduction-object sync transfers.

The paper's headline non-scalable cost is global reduction: at sync time
every master ships its full reduction object over the WAN (~300 MB for
PageRank). This module shrinks those bytes with a small versioned wire
format around :meth:`~repro.core.reduction.ReductionObject.to_bytes`:

``RW | version | encoding | compression | body``

Encodings
  * **dense** — the object's own serialization, unchanged (the default);
  * **sparse** — the entries that differ from the combiner's identity
    element (zeros for sum, ±inf for min/max): the gaps between their
    lanes in the narrowest unsigned width that holds the largest gap,
    byte-shuffled, then their raw values; wins when an array is mostly
    identity;
  * **delta** — the difference against the *previous* object sent on the
    same channel (the PR-3 iterative path sends near-identical objects
    pass after pass). Array deltas are computed by wrapping integer
    subtraction on the raw bit lanes — exactly reversible, unlike float
    arithmetic — then byte-shuffled (Blosc-style) so the near-zero high
    bytes of a converging workload form long runs the compressor eats.
    Non-array objects fall back to an XOR of the dense blobs. Per
    object, ``delta`` ships whichever of delta (once the channel has a
    baseline), sparse and dense is smallest by estimate, so a first
    upload or a mostly-identity object is never stuck with dense.

**Build only what can win.** Building a candidate body costs a
millisecond or two at 2 MiB; compressing one costs tens. So the
candidates are ranked by the compressed size of a fixed strided sample
of each body, and only the winner is compressed in full (a body small
enough to compress whole is its own exact estimate). A channel also
remembers what lost: a candidate estimated at twice the shipped body or
more is not built on the channel's next 1, 2, 4, ... (at most 8)
uploads. Dense always is: its bytes are the channel baseline anyway.

Compression (zlib always; lz4 only when the host already ships it — this
repo never installs dependencies) is applied transparently and dropped
per-object when it does not shrink the body, and a non-dense winner that
is not smaller than the dense serialization is dropped for dense, so
every knob setting is safe: the wire body is never larger than dense.

**Bit-exactness.** Delta decoding must reproduce the sender's object
*bit for bit*, otherwise encoder and decoder baselines drift and later
deltas decode to garbage. Two rules guarantee it: sparse selection
compares raw bit patterns (so ``-0.0`` is stored explicitly rather than
conflated with ``+0.0``), and both sides of a channel keep their
baseline as the *dense bytes* of the last object exchanged — the decoder
reconstructs exactly the bytes the encoder stored, so the chain never
diverges. The round-trip property tests in ``tests/test_wire.py`` pin
``decode(encode(x)).to_bytes() == x.to_bytes()`` across the whole
matrix.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import ReductionError
from .reduction import (
    ArrayReduction,
    ReductionObject,
    StructReduction,
    from_bytes,
)

try:  # pragma: no cover - availability depends on the host image
    import lz4.frame as _lz4
except ImportError:  # pragma: no cover
    _lz4 = None

__all__ = [
    "ENCODINGS",
    "COMPRESSIONS",
    "EncodedObject",
    "DecodedObject",
    "encode",
    "decode",
    "lz4_available",
]

#: Encoding knob values (``delta`` picks the smallest-by-estimate candidate).
ENCODINGS = ("dense", "sparse", "delta")

#: Compression knob values.
COMPRESSIONS = ("none", "zlib", "lz4")

_MAGIC = b"RW"
_VERSION = 1
_HEADER = struct.Struct("<2sBBB")

_ENC_IDS = {"dense": 0, "sparse": 1, "delta": 2}
_ENC_NAMES = {v: k for k, v in _ENC_IDS.items()}
_COMP_IDS = {"none": 0, "zlib": 1, "lz4": 2}
_COMP_NAMES = {v: k for k, v in _COMP_IDS.items()}

#: Bodies smaller than this are never worth compressing.
_MIN_COMPRESS = 64

#: A size estimate compresses this many evenly strided blocks of a body.
_SAMPLE_BLOCKS = 16
_SAMPLE_BLOCK = 8192
#: Up to twice the sample, sampling and then compressing the winner costs
#: more than compressing the body whole, once, and keeping the result.
_WHOLE_BODY = 2 * _SAMPLE_BLOCKS * _SAMPLE_BLOCK

#: A candidate whose estimate is at least this many times the body that
#: shipped lost widely. On the 2 MiB pagerank accumulator delta estimates
#: 3.0-4.0x the sparse winner on every upload; on a converging 20-pass
#: pagerank delta wins about half the uploads and loses the rest by
#: 1.0-2.9x, so a narrower margin would bench it just before it wins.
_WIDE_LOSS = 2
#: A wide loser sits out 1, 2, 4, ... of its channel's next uploads,
#: doubling per consecutive wide loss up to this many, so one that starts
#: to win is estimated again within 8 uploads (on that 20-pass run the
#: sat-out uploads cost 1.6-2.9 % more wire bytes).
_MAX_SKIP = 8

#: A channel's candidate memory: name -> (uploads still sat out, last sit-out).
Losses = Mapping[str, tuple[int, int]]


def lz4_available() -> bool:
    """Whether the optional lz4 codec is importable on this host."""
    return _lz4 is not None


class _Unsupported(Exception):
    """Internal: the requested encoding cannot represent this object."""


@dataclass(frozen=True)
class EncodedObject:
    """One encoded upload: the wire blob plus accounting.

    ``dense`` is the object's plain serialization — callers keep it as
    the channel baseline for the next delta, and compare ``len(blob)``
    against ``len(dense)`` for bytes-saved accounting. ``losses`` is the
    channel's candidate memory after this upload, kept beside it and
    passed back on the next.
    """

    blob: bytes
    dense: bytes
    encoding: str  # the encoding actually used (after fallbacks)
    compression: str
    losses: Losses


@dataclass(frozen=True)
class DecodedObject:
    """One decoded upload: the object plus its reconstructed dense bytes."""

    robj: ReductionObject
    dense: bytes
    encoding: str
    compression: str


# -- array helpers -----------------------------------------------------------


def _lane_dtype(dtype: np.dtype) -> np.dtype | None:
    """The unsigned integer view for exact bit-lane arithmetic, if any."""
    if dtype.itemsize in (1, 2, 4, 8) and dtype.kind in "fiub":
        return np.dtype(f"u{dtype.itemsize}")
    return None


def _shuffle(raw: np.ndarray, itemsize: int) -> bytes:
    """Byte-shuffle: transpose byte lanes so high bytes group together."""
    if itemsize == 1:
        return raw.tobytes()
    return np.ascontiguousarray(
        raw.view(np.uint8).reshape(-1, itemsize).T
    ).tobytes()


def _unshuffle(raw: bytes, itemsize: int) -> np.ndarray:
    flat = np.frombuffer(raw, dtype=np.uint8)
    if itemsize == 1:
        return flat
    if flat.size % itemsize:
        raise ReductionError("shuffled payload length is not lane-aligned")
    return np.ascontiguousarray(flat.reshape(itemsize, -1).T).reshape(-1)


def _bits(arr: np.ndarray, lane: np.dtype) -> np.ndarray:
    return np.ascontiguousarray(arr).reshape(-1).view(lane)


def _xor(a: bytes, b: bytes) -> bytes:
    return np.bitwise_xor(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


# -- sparse encoding ---------------------------------------------------------


def _gap_dtype(largest: int) -> np.dtype:
    """The narrowest little-endian unsigned lane that holds ``largest``."""
    for width in (1, 2, 4):
        if largest < 1 << (8 * width):
            return np.dtype(f"<u{width}")
    return np.dtype("<u8")


def _sparse_tree(robj: ReductionObject):
    """Sparse representation, or :class:`_Unsupported` when it won't help."""
    if isinstance(robj, ArrayReduction):
        lane = _lane_dtype(robj.data.dtype)
        if lane is None:
            raise _Unsupported
        identity = np.full(
            (), ArrayReduction._IDENTITY[robj.op], dtype=robj.data.dtype
        )
        bits = _bits(robj.data, lane)
        idx = np.flatnonzero(bits != _bits(identity, lane)[0])
        itemsize = robj.data.dtype.itemsize
        # Bail out before building anything when even 1-byte gaps would
        # not let gap+value pairs beat the raw dump.
        if idx.size * (1 + itemsize) >= robj.data.nbytes:
            raise _Unsupported
        gaps = np.diff(idx, prepend=0)
        width = _gap_dtype(int(gaps.max(initial=0)))
        if idx.size * (width.itemsize + itemsize) >= robj.data.nbytes:
            raise _Unsupported
        values = np.ascontiguousarray(robj.data).reshape(-1)[idx]
        return (
            "gap",
            robj.op,
            robj.data.dtype.str,
            robj.data.shape,
            width.itemsize,
            _shuffle(gaps.astype(width), width.itemsize),
            values.tobytes(),
        )
    if isinstance(robj, StructReduction):
        fields = {}
        any_sparse = False
        for name, field in robj.fields.items():
            try:
                fields[name] = _sparse_tree(field)
                any_sparse = True
            except _Unsupported:
                fields[name] = ("dense", field.to_bytes())
        if not any_sparse:
            raise _Unsupported
        return ("struct", fields)
    raise _Unsupported


def _sparse_body(robj: ReductionObject) -> bytes:
    return pickle.dumps(_sparse_tree(robj), protocol=pickle.HIGHEST_PROTOCOL)


def _scatter(op, dtype_str, shape, idx: np.ndarray, val_raw) -> ArrayReduction:
    """The array ``shape`` of identity with ``val_raw`` at lanes ``idx``,
    which must be strictly increasing lanes of it, one per value."""
    robj = ArrayReduction(shape, dtype=np.dtype(dtype_str), op=op)
    flat = robj.data.reshape(-1)
    values = np.frombuffer(val_raw, dtype=flat.dtype)
    if idx.size != values.size:
        raise ReductionError(
            f"corrupt sparse payload: {idx.size} lanes for {values.size} values"
        )
    if idx.size and (
        idx[0] < 0 or idx[-1] >= flat.size or (idx[1:] <= idx[:-1]).any()
    ):
        raise ReductionError(
            "corrupt sparse payload: lanes are not strictly increasing "
            f"in [0, {flat.size})"
        )
    flat[idx] = values
    return robj


def _sparse_restore(tree) -> ReductionObject:
    try:
        kind = tree[0]
        if kind == "gap":
            _, op, dtype_str, shape, width, gap_raw, val_raw = tree
            if width not in (1, 2, 4, 8):
                raise ReductionError(
                    f"corrupt sparse payload: gap width {width!r}"
                )
            gaps = _unshuffle(gap_raw, width).view(f"<u{width}")
            # Unsigned sums: an oversized gap wraps to a smaller lane,
            # which the strictly-increasing check rejects.
            idx = np.cumsum(gaps, dtype=np.uint64)
            return _scatter(op, dtype_str, shape, idx, val_raw)
        if kind == "arr":
            _, op, dtype_str, shape, idx_raw, val_raw = tree
            idx = np.frombuffer(idx_raw, dtype=np.int64)
            return _scatter(op, dtype_str, shape, idx, val_raw)
        if kind == "struct":
            _, fields = tree
            return StructReduction(
                {
                    name: (
                        from_bytes(sub[1])
                        if sub[0] == "dense"
                        else _sparse_restore(sub)
                    )
                    for name, sub in fields.items()
                }
            )
        if kind == "dense":
            return from_bytes(tree[1])
    except ReductionError:
        raise
    except Exception as exc:
        raise ReductionError(f"corrupt sparse payload: {exc}") from exc
    raise ReductionError(f"corrupt sparse payload: unknown node {kind!r}")


# -- delta encoding ----------------------------------------------------------


def _delta_tree(cur: ReductionObject, base: ReductionObject):
    if isinstance(cur, ArrayReduction) and isinstance(base, ArrayReduction):
        lane = _lane_dtype(cur.data.dtype)
        if (
            lane is None
            or cur.op != base.op
            or cur.data.dtype != base.data.dtype
            or cur.data.shape != base.data.shape
        ):
            raise _Unsupported
        diff = _bits(cur.data, lane) - _bits(base.data, lane)
        return ("arr", _shuffle(diff, cur.data.dtype.itemsize))
    if isinstance(cur, StructReduction) and isinstance(base, StructReduction):
        if set(cur.fields) != set(base.fields):
            raise _Unsupported
        return (
            "struct",
            {
                name: _delta_tree(field, base.fields[name])
                for name, field in cur.fields.items()
            },
        )
    cur_dense = cur.to_bytes()
    base_dense = base.to_bytes()
    if len(cur_dense) != len(base_dense):
        raise _Unsupported
    return ("xor", _xor(cur_dense, base_dense))


def _delta_body(cur: ReductionObject, dense: bytes, baseline: bytes) -> bytes:
    if isinstance(cur, (ArrayReduction, StructReduction)):
        tree = _delta_tree(cur, from_bytes(baseline))
    elif len(dense) == len(baseline):
        # Whole-blob XOR against the baseline *bytes*: reversible
        # without ever re-serializing the baseline object.
        tree = ("xor", _xor(dense, baseline))
    else:
        raise _Unsupported
    return pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)


def _delta_restore(tree, base: ReductionObject) -> ReductionObject:
    try:
        kind = tree[0]
        if kind == "arr":
            if not isinstance(base, ArrayReduction):
                raise ReductionError(
                    "delta payload does not match the channel baseline"
                )
            dtype = base.data.dtype
            lane = _lane_dtype(dtype)
            diff = _unshuffle(tree[1], dtype.itemsize).view(lane)
            if diff.size != base.data.size:
                raise ReductionError(
                    "delta payload does not match the channel baseline"
                )
            data = (_bits(base.data, lane) + diff).view(dtype)
            return ArrayReduction(
                base.data.shape, dtype=dtype, op=base.op,
                data=data.reshape(base.data.shape),
            )
        if kind == "struct":
            if not isinstance(base, StructReduction):
                raise ReductionError(
                    "delta payload does not match the channel baseline"
                )
            return StructReduction(
                {
                    name: _delta_restore(sub, base.fields[name])
                    for name, sub in tree[1].items()
                }
            )
        if kind == "xor":
            base_dense = base.to_bytes()
            if len(tree[1]) != len(base_dense):
                raise ReductionError(
                    "delta payload does not match the channel baseline"
                )
            return from_bytes(_xor(tree[1], base_dense))
    except ReductionError:
        raise
    except Exception as exc:
        raise ReductionError(f"corrupt delta payload: {exc}") from exc
    raise ReductionError(f"corrupt delta payload: unknown node {kind!r}")


# -- compression -------------------------------------------------------------


def _compress(body: bytes, compress: str) -> tuple[bytes, str]:
    """Compress when asked and worthwhile; never grow the body."""
    if compress == "none" or len(body) < _MIN_COMPRESS:
        return body, "none"
    if compress == "zlib":
        packed = zlib.compress(body, 6)
    elif compress == "lz4":
        if _lz4 is None:
            raise ReductionError(
                "lz4 compression requested but the lz4 package is not "
                "installed on this host"
            )
        packed = _lz4.compress(body)
    else:
        raise ReductionError(f"unknown compression {compress!r}")
    if len(packed) < len(body):
        return packed, compress
    return body, "none"


def _decompress(body: bytes, compression: str) -> bytes:
    try:
        if compression == "none":
            return body
        if compression == "zlib":
            return zlib.decompress(body)
        if compression == "lz4":
            if _lz4 is None:
                raise ReductionError(
                    "blob was lz4-compressed but the lz4 package is not "
                    "installed on this host"
                )
            return _lz4.decompress(body)
    except ReductionError:
        raise
    except Exception as exc:
        raise ReductionError(f"corrupt compressed payload: {exc}") from exc
    raise ReductionError(f"unknown compression {compression!r} in wire header")


def _estimate(body: bytes, compress: str) -> tuple[int, tuple[bytes, str] | None]:
    """Predicted compressed size of ``body`` from a strided sample of it.

    A body of at most ``_WHOLE_BODY`` bytes is compressed whole: the size
    is then exact and the packed ``(body, compression)`` is returned for
    reuse, so the winner is never compressed a second time.
    """
    if compress == "none" or len(body) <= _WHOLE_BODY:
        packed = _compress(body, compress)
        return len(packed[0]), packed
    stride = (len(body) - _SAMPLE_BLOCK) // (_SAMPLE_BLOCKS - 1)
    view = memoryview(body)
    sample = b"".join(
        view[at : at + _SAMPLE_BLOCK]
        for at in range(0, stride * _SAMPLE_BLOCKS, stride)
    )
    return len(_compress(sample, compress)[0]) * len(body) // len(sample), None


def _remember(
    losses: Losses, estimates: Mapping[str, int], shipped: int
) -> dict[str, tuple[int, int]]:
    """The channel's losses after an upload that estimated ``estimates``
    and shipped ``shipped`` body bytes: a candidate sitting out counts one
    upload down; an estimated wide loser sits out 1, or twice its last
    sit-out (at most ``_MAX_SKIP``); any other candidate is forgotten."""
    after = {name: (max(left - 1, 0), span) for name, (left, span) in losses.items()}
    for name, size in estimates.items():
        if name == "dense":
            continue
        if size >= _WIDE_LOSS * shipped:
            span = min(2 * after.get(name, (0, 0))[1] or 1, _MAX_SKIP)
            after[name] = (span, span)
        else:
            after.pop(name, None)
    return after


def _bodies(
    robj: ReductionObject, dense: bytes, encoding: str, baseline: bytes | None,
    skip: frozenset[str] = frozenset(),
) -> dict[str, bytes]:
    """The uncompressed candidate bodies ``encoding`` allows, dense first,
    less those in ``skip``."""
    bodies = {"dense": dense}
    adaptive = encoding == "delta"
    if adaptive and baseline is not None and "delta" not in skip:
        try:
            bodies["delta"] = _delta_body(robj, dense, baseline)
        except _Unsupported:
            pass
    if (adaptive or encoding == "sparse") and "sparse" not in skip:
        try:
            bodies["sparse"] = _sparse_body(robj)
        except _Unsupported:
            pass
    return bodies


# -- public API --------------------------------------------------------------


def encode(
    robj: ReductionObject,
    *,
    encoding: str = "dense",
    compress: str = "none",
    baseline: bytes | None = None,
    losses: Losses | None = None,
) -> EncodedObject:
    """Encode ``robj`` for the wire.

    ``baseline`` is the *dense* serialization of the previous object sent
    on this channel and ``losses`` the channel's candidate memory from
    that upload (see :class:`~repro.core.sync.SyncCodec`, which keeps
    both per sender). Requested encodings that cannot apply
    — delta without a baseline, sparse over a dense array — silently fall
    back to the cheapest representable form (``delta`` chooses among
    delta, sparse and dense); the header records what was
    actually used, so decoding needs no out-of-band agreement. At most
    one body larger than the estimate sample is compressed per call.
    """
    if encoding not in ENCODINGS:
        raise ReductionError(f"unknown wire encoding {encoding!r}")
    if compress not in COMPRESSIONS:
        raise ReductionError(f"unknown compression {compress!r}")
    losses = losses or {}
    dense = robj.to_bytes()
    sitting_out = frozenset(name for name, (left, _) in losses.items() if left)
    bodies = _bodies(robj, dense, encoding, baseline, sitting_out)
    # Candidates are judged by their *compressed* size: a delta of a
    # near-identical object is as long as dense uncompressed (XOR keeps
    # the length) but collapses to almost nothing once compressed.
    estimates = {
        name: _estimate(body, compress) for name, body in bodies.items()
    }
    # min() keeps the first of equals and dense comes first: a tie ships dense.
    chosen = min(estimates, key=lambda name: estimates[name][0])
    body, used_compress = estimates[chosen][1] or _compress(
        bodies[chosen], compress
    )
    if chosen != "dense" and len(body) >= len(dense):
        # Never grow — the exact check behind the estimate. Dense goes as
        # it stands, so no encode compresses two large bodies.
        chosen = "dense"
        body, used_compress = estimates["dense"][1] or (dense, "none")
    blob = _HEADER.pack(
        _MAGIC, _VERSION, _ENC_IDS[chosen], _COMP_IDS[used_compress]
    ) + body
    sizes = {name: estimate for name, (estimate, _) in estimates.items()}
    return EncodedObject(
        blob=blob, dense=dense, encoding=chosen, compression=used_compress,
        losses=_remember(losses, sizes, len(body)),
    )


def decode(blob: bytes, *, baseline: bytes | None = None) -> DecodedObject:
    """Decode a wire blob produced by :func:`encode`.

    A blob without the ``RW`` header is rejected. ``baseline`` must be
    the dense bytes of the previous object decoded on this channel
    whenever the header says delta.
    """
    if len(blob) < _HEADER.size:
        raise ReductionError("truncated wire header")
    magic, version, enc_id, comp_id = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ReductionError("not a wire blob: missing the RW header")
    if version != _VERSION:
        raise ReductionError(f"unsupported wire version {version}")
    encoding = _ENC_NAMES.get(enc_id)
    compression = _COMP_NAMES.get(comp_id)
    if encoding is None:
        raise ReductionError(f"unknown wire encoding id {enc_id}")
    if compression is None:
        raise ReductionError(f"unknown compression id {comp_id}")
    body = _decompress(blob[_HEADER.size:], compression)
    if encoding == "dense":
        robj = _from_dense(body)
        dense = body
    elif encoding == "sparse":
        robj = _sparse_restore(_load_tree(body))
        dense = robj.to_bytes()
    else:  # delta
        if baseline is None:
            raise ReductionError(
                "delta-encoded blob received with no channel baseline"
            )
        tree = _load_tree(body)
        if tree[0] == "xor":
            if len(tree[1]) != len(baseline):
                raise ReductionError(
                    "delta payload does not match the channel baseline"
                )
            dense = _xor(tree[1], baseline)
            robj = _from_dense(dense)
        else:
            robj = _delta_restore(tree, from_bytes(baseline))
            dense = robj.to_bytes()
    return DecodedObject(
        robj=robj, dense=dense, encoding=encoding, compression=compression
    )


def _from_dense(body: bytes) -> ReductionObject:
    """Deserialize a dense body, surfacing any corruption uniformly."""
    try:
        return from_bytes(body)
    except ReductionError:
        raise
    except Exception as exc:
        raise ReductionError(f"corrupt dense payload: {exc}") from exc


def _load_tree(body: bytes):
    try:
        tree = pickle.loads(body)
    except Exception as exc:
        raise ReductionError(f"corrupt wire payload: {exc}") from exc
    if not isinstance(tree, tuple) or not tree:
        raise ReductionError("corrupt wire payload: malformed tree")
    return tree
