"""Property tests for the reduction-object wire codecs.

The contract pinned here (see :mod:`repro.core.wire`): decoding an
encoded object reproduces the sender's serialization *bit for bit* for
every ReductionObject subclass under every encoding x compression
combination — including delta chains, where both ends of a channel must
track the same baseline — and any truncated or corrupted payload is
rejected with :class:`~repro.errors.ReductionError`, never a stray
pickle/struct/zlib exception. The encoder picks its candidate from size
*estimates* and compresses one body: the choice properties pin that the
pick is the true minimum wherever the estimate is exact and within 1.15x
of it elsewhere, that the wire body never outgrows dense, and how many
bytes reach the compressor.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.reduction import (
    ArrayReduction,
    DictReduction,
    ScalarReduction,
    StructReduction,
    TopKReduction,
)
from repro.core.sync import SyncCodec, SyncSpec
from repro.errors import ReductionError

COMPRESSIONS = [c for c in wire.COMPRESSIONS if c != "lz4" or wire.lz4_available()]

_FLOATS = st.floats(allow_nan=False, width=32).map(float)


@st.composite
def array_reductions(draw) -> ArrayReduction:
    dtype = draw(st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u2"]))
    # Integer arrays only use 'sum' (min/max identities are +/-inf).
    op = (
        draw(st.sampled_from(["sum", "min", "max"]))
        if dtype[1] == "f"
        else "sum"
    )
    n = draw(st.integers(1, 64))
    identity = ArrayReduction._IDENTITY[op]
    data = np.full(n, identity, dtype=np.dtype(dtype))
    # Sprinkle a few non-identity entries so sparse sometimes wins; keep
    # some arrays fully dense so the fallback path is exercised too.
    for _ in range(draw(st.integers(0, min(n, 8)))):
        idx = draw(st.integers(0, n - 1))
        if dtype[1] == "f":
            data[idx] = draw(_FLOATS)
        else:
            data[idx] = draw(st.integers(0, 60000))
    if draw(st.booleans()):
        data[:] = np.arange(n, dtype=np.dtype(dtype))
    return ArrayReduction(n, dtype=np.dtype(dtype), op=op, data=data)


@st.composite
def dict_reductions(draw) -> DictReduction:
    items = draw(
        st.dictionaries(st.text(max_size=6), st.integers(0, 1000), max_size=12)
    )
    return DictReduction("sum", items)


@st.composite
def topk_reductions(draw) -> TopKReduction:
    k = draw(st.integers(1, 8))
    n = draw(st.integers(0, 12))
    scores = np.array([draw(_FLOATS) for _ in range(n)], dtype=np.float64)
    ids = np.arange(n, dtype=np.int64)
    return TopKReduction(k, scores, ids)


@st.composite
def scalar_reductions(draw) -> ScalarReduction:
    return ScalarReduction(
        draw(st.sampled_from(["sum", "min", "max"])), draw(_FLOATS)
    )


@st.composite
def struct_reductions(draw) -> StructReduction:
    return StructReduction(
        {
            "arr": draw(array_reductions()),
            "count": draw(scalar_reductions()),
        }
    )


def reduction_objects():
    return st.one_of(
        array_reductions(),
        dict_reductions(),
        topk_reductions(),
        scalar_reductions(),
        struct_reductions(),
    )


@settings(deadline=None, max_examples=60)
@given(
    robj=reduction_objects(),
    encoding=st.sampled_from(wire.ENCODINGS),
    compress=st.sampled_from(COMPRESSIONS),
)
def test_round_trip_without_baseline(robj, encoding, compress):
    encoded = wire.encode(robj, encoding=encoding, compress=compress)
    assert encoded.blob[:2] == b"RW"
    decoded = wire.decode(encoded.blob)
    assert decoded.robj.to_bytes() == robj.to_bytes()
    assert decoded.dense == encoded.dense
    # The body never outgrows dense, so a codec never saves less than 0.
    assert len(encoded.blob) <= wire._HEADER.size + len(encoded.dense)


@settings(deadline=None, max_examples=40)
@given(
    pair=st.one_of(
        st.tuples(array_reductions(), array_reductions()),
        st.tuples(dict_reductions(), dict_reductions()),
        st.tuples(topk_reductions(), topk_reductions()),
        st.tuples(struct_reductions(), struct_reductions()),
    ),
    compress=st.sampled_from(COMPRESSIONS),
)
def test_delta_chain_is_bit_exact(pair, compress):
    """Two arbitrary objects sent back-to-back on one channel decode
    bit-exactly, whatever delta representation (lane diff, XOR, fallback
    to dense) the encoder lands on."""
    first, second = pair
    codec = SyncCodec(SyncSpec(encoding="delta", compress=compress))
    for robj in (first, second):
        blob = codec.encode("chan", robj).blob
        decoded = codec.decode("chan", blob)
        assert decoded.to_bytes() == robj.to_bytes()
    assert codec.stats.uploads == 2
    assert codec.stats.bytes_saved >= 0


def test_delta_shrinks_converging_uploads():
    """The iterative-workload story: near-identical successive objects
    produce tiny deltas once compressed."""
    rng = np.random.default_rng(7)
    base = rng.random(4096)
    codec = SyncCodec(SyncSpec(encoding="delta", compress="zlib"))
    codec.encode("chan", ArrayReduction(4096, data=base))
    second = codec.encode(
        "chan", ArrayReduction(4096, data=base + 1e-12)
    )
    assert second.encoding == "delta"
    assert len(second.blob) < len(second.dense) / 5


def test_sparse_beats_dense_on_mostly_identity_arrays():
    data = np.zeros(4096)
    data[7] = 42.0
    encoded = wire.encode(ArrayReduction(4096, data=data), encoding="sparse")
    assert encoded.encoding == "sparse"
    assert len(encoded.blob) < len(encoded.dense) / 10
    decoded = wire.decode(encoded.blob)
    assert decoded.robj.to_bytes() == encoded.dense


def test_sparse_preserves_negative_zero():
    data = np.zeros(64)
    data[3] = -0.0  # bitwise different from the +0.0 identity
    robj = ArrayReduction(64, data=data)
    encoded = wire.encode(robj, encoding="sparse")
    assert wire.decode(encoded.blob).robj.to_bytes() == robj.to_bytes()


def test_auto_picks_the_smallest_candidate():
    data = np.zeros(4096)
    data[1] = 1.0
    robj = ArrayReduction(4096, data=data)
    picked = wire.encode(robj, encoding="delta")
    explicit = min(
        (wire.encode(robj, encoding=e) for e in ("dense", "sparse")),
        key=lambda enc: len(enc.blob),
    )
    assert len(picked.blob) <= len(explicit.blob)


def test_headerless_envelope_is_rejected():
    robj = ScalarReduction("sum", 3.5)
    with pytest.raises(ReductionError, match="RW header"):
        wire.decode(robj.to_bytes())


def test_delta_without_baseline_is_rejected():
    robj = ArrayReduction(8, data=np.arange(8.0))
    baseline = wire.encode(robj, encoding="dense").dense
    blob = wire.encode(
        ArrayReduction(8, data=np.arange(8.0) + 1),
        encoding="delta",
        baseline=baseline,
    ).blob
    with pytest.raises(ReductionError, match="baseline"):
        wire.decode(blob)


@settings(deadline=None, max_examples=60)
@given(
    robj=reduction_objects(),
    encoding=st.sampled_from(["dense", "sparse"]),
    compress=st.sampled_from(COMPRESSIONS),
    cut=st.integers(0, 200),
)
def test_truncated_blobs_raise_reduction_error(robj, encoding, compress, cut):
    blob = wire.encode(robj, encoding=encoding, compress=compress).blob
    truncated = blob[: min(cut, len(blob) - 1)]
    try:
        decoded = wire.decode(truncated)
    except ReductionError:
        return
    # A truncation that still parses must not silently corrupt: the only
    # acceptable parse is one that kept the full original body.
    assert decoded.robj.to_bytes() == robj.to_bytes()


@settings(deadline=None, max_examples=60)
@given(
    robj=reduction_objects(),
    encoding=st.sampled_from(["dense", "sparse"]),
    compress=st.sampled_from(COMPRESSIONS),
    pos=st.integers(0, 10_000),
    flip=st.integers(1, 255),
)
def test_corrupted_blobs_never_leak_raw_exceptions(
    robj, encoding, compress, pos, flip
):
    blob = bytearray(wire.encode(robj, encoding=encoding, compress=compress).blob)
    blob[pos % len(blob)] ^= flip
    try:
        wire.decode(bytes(blob))
    except ReductionError:
        pass  # rejection is the expected outcome; anything else must not raise


#: Decodes every single-byte flip of fixed TopK blobs.
_FLIPPED_TOPK = """
import numpy as np
from repro.core import wire
from repro.core.reduction import TopKReduction
from repro.errors import ReductionError

robjs = [
    TopKReduction(4, np.array([0.5, -1.25, 3.0, 2.0, 7.5, 0.0]), np.arange(6)),
    TopKReduction(1, np.array([1e300]), np.array([2**40])),
    TopKReduction(3),
]
for robj in robjs:
    for compress in ("none", "zlib"):
        blob = wire.encode(robj, compress=compress).blob
        for pos in range(len(blob)):
            for flip in (0x01, 0x10, 0x80, 0xFF):
                bad = bytearray(blob)
                bad[pos] ^= flip
                try:
                    wire.decode(bytes(bad))
                except ReductionError:
                    pass
"""


def test_flipped_topk_blobs_are_rejected_not_crashed():
    """A flipped byte in a TopK blob decodes or raises ReductionError. TopK
    once pickled raw arrays: a flip there could crash numpy inside
    ``wire.decode``, and short of a crash left unraisable errors on
    stderr. The decoding runs in a child process, so a crash fails this
    test instead of killing the whole pytest run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wire.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _FLIPPED_TOPK],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.dirname(src)},
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr


def test_lz4_gating():
    robj = ArrayReduction(256, data=np.arange(256.0))
    if wire.lz4_available():
        encoded = wire.encode(robj, compress="lz4")
        assert wire.decode(encoded.blob).robj.to_bytes() == robj.to_bytes()
    else:
        with pytest.raises(ReductionError, match="lz4"):
            wire.encode(robj, compress="lz4")


def test_unknown_knobs_are_rejected():
    robj = ScalarReduction("sum", 1.0)
    with pytest.raises(ReductionError, match="encoding"):
        wire.encode(robj, encoding="huffman")
    with pytest.raises(ReductionError, match="compression"):
        wire.encode(robj, compress="zstd")


def test_unsupported_wire_version_is_rejected():
    blob = bytearray(wire.encode(ScalarReduction("sum", 1.0)).blob)
    blob[2] = 99  # version byte
    with pytest.raises(ReductionError, match="version"):
        wire.decode(bytes(blob))


# -- sparse layout: gap-coded lanes -----------------------------------------

#: Bit patterns a float lane may carry that compare unlike their value:
#: -0.0, quiet, signalling, negative and payload-carrying NaNs.
_SPECIAL_BITS = {
    "<f8": [
        1 << 63, 0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
        0xFFF8_0000_0000_0000, 0x7FF8_DEAD_BEEF_0001,
    ],
    "<f4": [1 << 31, 0x7FC0_0000, 0x7F80_0001, 0xFFC0_0ABC],
}


@st.composite
def gapped_arrays(draw, largest_gaps=(255, 256, 65535, 65536)):
    """A mostly-identity array whose largest gap between consecutive
    non-identity lanes (the first lane counting as a gap from 0) is one
    of ``largest_gaps``, in 1-D or 2-D, with raw payload bits."""
    largest = draw(st.sampled_from(largest_gaps))
    dtype = np.dtype(draw(st.sampled_from(["<f8", "<f4", "<i4", "<u2"])))
    op = draw(st.sampled_from(["sum", "min", "max"])) if dtype.kind == "f" else "sum"
    gaps = draw(st.lists(st.integers(1, largest), min_size=1, max_size=12))
    gaps[0] = draw(st.sampled_from([0, 1, largest]))
    gaps[draw(st.integers(0, len(gaps) - 1))] = largest
    lanes = np.cumsum(gaps)
    cols = draw(st.integers(1, 3))
    rows = -(-(int(lanes[-1]) + 1 + draw(st.integers(0, 40))) // cols)
    shape = (rows, cols) if cols > 1 else (rows,)
    data = np.full(shape, ArrayReduction._IDENTITY[op], dtype=dtype)
    lane = wire._lane_dtype(dtype)
    bits = data.reshape(-1).view(lane)
    identity = int(bits[0])
    top = (1 << (8 * dtype.itemsize)) - 1
    payload = st.integers(0, top)
    if dtype.kind == "f":
        payload = st.one_of(
            st.sampled_from(_SPECIAL_BITS[dtype.str]), payload
        )
    bits[lanes] = [
        draw(payload.filter(lambda b: b != identity)) for _ in lanes
    ]
    return ArrayReduction(shape, dtype=dtype, op=op, data=data), largest


@settings(deadline=None, max_examples=80)
@given(case=gapped_arrays(), compress=st.sampled_from(COMPRESSIONS))
def test_gap_widths_round_trip_on_both_sides_of_each_boundary(case, compress):
    robj, largest = case
    tree = wire._sparse_tree(robj)
    width = 1 if largest < 256 else 2 if largest < 65536 else 4
    assert tree[0] == "gap" and tree[4] == width
    encoded = wire.encode(robj, encoding="sparse", compress=compress)
    assert encoded.encoding == "sparse"
    decoded = wire.decode(encoded.blob)
    assert decoded.robj.data.shape == robj.data.shape
    assert decoded.dense == robj.to_bytes()


@pytest.mark.parametrize("op", ["sum", "min", "max"])
def test_an_all_identity_array_ships_zero_entries(op):
    robj = ArrayReduction((64, 3), op=op)
    tree = wire._sparse_tree(robj)
    assert tree[0] == "gap" and tree[4] == 1 and tree[5] == tree[6] == b""
    encoded = wire.encode(robj, encoding="sparse")
    assert encoded.encoding == "sparse"
    assert wire.decode(encoded.blob).dense == robj.to_bytes()


def test_a_first_lane_at_index_zero_is_a_zero_first_gap():
    data = np.zeros(300)
    data[[0, 1, 299]] = [-0.0, 2.5, 7.0]
    robj = ArrayReduction(300, data=data)
    tree = wire._sparse_tree(robj)
    assert (tree[4], tree[5]) == (2, bytes([0, 1, 42, 0, 0, 1]))
    encoded = wire.encode(robj, encoding="sparse")
    assert wire.decode(encoded.blob).dense == robj.to_bytes()


@settings(deadline=None, max_examples=30)
@given(
    case=gapped_arrays(largest_gaps=(255, 256)),
    dense=st.lists(_FLOATS, min_size=4, max_size=64),
    compress=st.sampled_from(COMPRESSIONS),
)
def test_a_struct_mixes_sparse_and_dense_fields(case, dense, compress):
    robj = StructReduction({
        "ranks": case[0],
        "mass": ArrayReduction(len(dense), data=np.array(dense) + 1.0),
        "count": ScalarReduction("sum", 3.0),
    })
    tree = wire._sparse_tree(robj)
    kinds = {name: sub[0] for name, sub in tree[1].items()}
    assert kinds == {"ranks": "gap", "mass": "dense", "count": "dense"}
    encoded = wire.encode(robj, encoding="sparse", compress=compress)
    assert wire.decode(encoded.blob).dense == robj.to_bytes()


@pytest.mark.parametrize(
    "largest, width",
    [(0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4),
     (2**32 - 1, 4), (2**32, 8), (2**63 - 1, 8)],
)
def test_the_gap_width_is_the_narrowest_that_holds_the_largest_gap(
    largest, width
):
    # A 2**32 gap needs a 32 GiB array, so the u4/u8 edge is pinned here.
    assert wire._gap_dtype(largest) == np.dtype(f"<u{width}")


def _sparse_blob(tree) -> bytes:
    """An uncompressed sparse wire blob around a hand-built tree."""
    return wire._HEADER.pack(
        wire._MAGIC, wire._VERSION, wire._ENC_IDS["sparse"],
        wire._COMP_IDS["none"],
    ) + pickle.dumps(tree)


def _arr_tree(idx, values):
    return (
        "arr", "sum", "<f8", (16,),
        np.array(idx, dtype=np.int64).tobytes(),
        np.array(values, dtype=np.float64).tobytes(),
    )


def _gap_tree(gaps, values, width=1):
    gaps = np.array(gaps, dtype=f"<u{width}")
    return (
        "gap", "sum", "<f8", (16,), width,
        wire._shuffle(gaps, width),
        np.array(values, dtype=np.float64).tobytes(),
    )


@pytest.mark.parametrize(
    "tree, lanes",
    [
        (_arr_tree([0, 15], [1.0, 2.0]), [0, 15]),
        (_arr_tree([], []), []),
        (_gap_tree([0, 15], [1.0, 2.0]), [0, 15]),
        (_gap_tree([3, 1, 4], [1.0, 2.0, 3.0], width=8), [3, 4, 8]),
    ],
    ids=["arr", "arr-empty", "gap", "gap-u8"],
)
def test_hand_built_sparse_trees_decode(tree, lanes):
    data = wire.decode(_sparse_blob(tree)).robj.data
    assert np.flatnonzero(data).tolist() == lanes
    assert data[lanes].tobytes() == tree[-1]


@pytest.mark.parametrize(
    "tree",
    [
        _arr_tree([-2], [1.0]),
        _arr_tree([16], [1.0]),
        _arr_tree([3, 3], [1.0, 2.0]),
        _arr_tree([5, 3], [1.0, 2.0]),
        _arr_tree([1, 3, 5], [7.0]),
        _arr_tree([1], [1.0, 2.0]),
        _gap_tree([16], [1.0]),
        _gap_tree([9, 7], [1.0, 2.0]),
        _gap_tree([3, 0], [1.0, 2.0]),
        _gap_tree([0, 0], [1.0, 2.0]),
        _gap_tree([4, 2**64 - 1], [1.0, 2.0], width=8),
        _gap_tree([1, 2, 2], [7.0]),
        _gap_tree([1], [1.0, 2.0]),
        ("gap", "sum", "<f8", (16,), 3, b"\x01\x00\x00", b"\x00" * 8),
    ],
    ids=[
        "arr-negative", "arr-past-the-end", "arr-duplicate", "arr-decreasing",
        "arr-one-value-for-three", "arr-two-values-for-one",
        "gap-past-the-end", "gap-sum-past-the-end", "gap-zero-after-first",
        "gap-zeros", "gap-wraps-backwards", "gap-one-value-for-three",
        "gap-two-values-for-one", "gap-width-3",
    ],
)
def test_sparse_decode_rejects_lanes_the_encoder_cannot_write(tree):
    with pytest.raises(ReductionError, match="corrupt sparse payload"):
        wire.decode(_sparse_blob(tree))


# -- estimate, then compress one ---------------------------------------------

#: Array lengths (8-byte lanes): every body under the whole-body
#: threshold, where the choice is exact, or the dense body well over it.
SIZES = st.one_of(st.integers(1, 4096), st.integers(40_000, 90_000))


def _mostly_identity(rng, n, steps):
    filled = max(1, int(n * rng.uniform(0.001, 0.05)))
    support = rng.choice(n, size=filled, replace=False)
    values = rng.random(support.size)
    for _ in range(steps):
        data = np.zeros(n)
        data[support] = values
        yield data
        values = values * (1 + 1e-3 * rng.random(support.size))


def _dense_random(rng, n, steps):
    for _ in range(steps):
        yield rng.random(n)


def _converging(rng, n, steps):
    base = rng.random(n)
    for step in range(steps):
        yield base + step * 1e-12


ARRAY_KINDS = {
    "identity": _mostly_identity,
    "random": _dense_random,
    "converging": _converging,
}


@st.composite
def array_chains(draw, sizes=SIZES, steps=3):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(sorted(ARRAY_KINDS)))
    n = draw(sizes)
    return [
        ArrayReduction(n, data=data) for data in ARRAY_KINDS[kind](rng, n, steps)
    ]


@st.composite
def struct_chains(draw, sizes=SIZES, steps=3):
    """Structs mixing a mostly-identity array, a converging dense one
    and a scalar (the XOR path inside a struct delta)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
    parts = zip(
        _mostly_identity(rng, n, steps),
        ARRAY_KINDS[draw(st.sampled_from(["random", "converging"]))](rng, n, steps),
    )
    return [
        StructReduction({
            "ranks": ArrayReduction(n, data=sparse),
            "mass": ArrayReduction(n, data=full),
            "count": ScalarReduction("sum", float(i)),
        })
        for i, (sparse, full) in enumerate(parts)
    ]


def object_chains(sizes=SIZES):
    return st.one_of(
        array_chains(sizes),
        struct_chains(sizes),
        st.lists(dict_reductions(), min_size=3, max_size=3),
        st.lists(topk_reductions(), min_size=3, max_size=3),
    )


def check_chain(chain, encoding, compress):
    """Send ``chain`` down one channel; both ends keep their own
    baseline."""
    sent, received = None, None
    for robj in chain:
        bodies = wire._bodies(robj, robj.to_bytes(), encoding, sent)
        best = min(len(wire._compress(b, compress)[0]) for b in bodies.values())
        encoded = wire.encode(
            robj, encoding=encoding, compress=compress, baseline=sent
        )
        decoded = wire.decode(encoded.blob, baseline=received)
        assert decoded.robj.to_bytes() == robj.to_bytes()
        assert decoded.dense == encoded.dense == robj.to_bytes()
        size = len(encoded.blob) - wire._HEADER.size
        assert size <= len(encoded.dense)
        exact = compress == "none" or all(
            len(b) <= wire._WHOLE_BODY for b in bodies.values()
        )
        assert size == best if exact else size <= 1.15 * best, (
            encoded.encoding, size, best
        )
        sent, received = encoded.dense, decoded.dense


@settings(deadline=None, max_examples=60)
@given(
    chain=object_chains(),
    encoding=st.sampled_from(wire.ENCODINGS),
    compress=st.sampled_from(COMPRESSIONS),
)
def test_choice_round_trips_never_grows_and_stays_near_the_minimum(
    chain, encoding, compress
):
    check_chain(chain, encoding, compress)


@pytest.mark.parametrize("n", [4096, 262_144])
@pytest.mark.parametrize("compress", COMPRESSIONS)
def test_delta_falls_back_to_sparse_on_a_first_upload(n, compress):
    """``delta`` chooses among delta, sparse and dense: with no baseline
    yet a mostly-identity array goes sparse, not dense."""
    data = np.zeros(n)
    data[:: max(n // 100, 1)] = 1.5
    robj = ArrayReduction(n, data=data)
    encoded = wire.encode(robj, encoding="delta", compress=compress)
    assert encoded.encoding == "sparse"


def test_one_encode_compresses_one_large_body(monkeypatch):
    """A 2 MiB object with all three candidates: what reaches the
    compressor is the winner plus one sample per candidate, not the sum
    of the bodies."""
    rng = np.random.default_rng(3)
    n = 262_144
    data = np.zeros(n)
    data[rng.choice(n, size=n // 24, replace=False)] = rng.random(n // 24)
    first = ArrayReduction(n, data=data)
    second = ArrayReduction(n, data=data * (1 + 1e-3))
    fed: list[int] = []
    real = wire._compress

    def counting(body, compress):
        fed.append(len(body))
        return real(body, compress)

    monkeypatch.setattr(wire, "_compress", counting)
    baseline = first.to_bytes()
    bodies = wire._bodies(second, second.to_bytes(), "delta", baseline)
    assert sorted(bodies) == ["delta", "dense", "sparse"]
    encoded = wire.encode(
        second, encoding="delta", compress="zlib", baseline=baseline
    )
    budget = wire._SAMPLE_BLOCKS * wire._SAMPLE_BLOCK
    assert sum(fed) <= len(bodies[encoded.encoding]) + 3 * budget
    assert sum(fed) < sum(map(len, bodies.values())) / 4
    assert sum(size > wire._WHOLE_BODY for size in fed) <= 1
    decoded = wire.decode(encoded.blob, baseline=baseline)
    assert decoded.robj.to_bytes() == second.to_bytes()


#: Blobs written by ``wire.encode`` at the commit before the encoder
#: started estimating (wire version 1): a sparse first upload and two
#: lane deltas on one channel, a dense array, and an XOR delta of a dict
#: against its dense first upload.
PARENT_ARRAY_CHAIN = [
    "5257010101789c6b609deac000011a3dcc894545537a988b4b7381a44d9ac5146f83"
    "d629ce02cc500582501a280461fcb087d04c07a6944cd1030066330f05",
    "5257010201789c6b609ddacfc800063dcc894545539c1aa0dc5100070de8f0c30f06"
    "1e0e1e012111310929193905452545155535750d4d2d6d1d5d3d7d03034343232363"
    "6313135353333373730b0b7b7b07060764d0e080174c699ba2070079da200e",
    "5257010201789c6b609ddacfc800063dcc894545539c1a80dc1933ce00411a1418a3"
    "01490c2028c801042c50c08406183100c328c00ba6b44dd10300942b13c8",
]
PARENT_DENSE = (
    "5257010001789ce3636060702c2a4aac0c4a4d294d2ec9cccf93038a34b04c156680"
    "801ee6e2d2dc293dcc36691653bc255aa7b44fd16340011feca10c0708c501a505a0"
    "b408949680d232505a014a2b41691528ad06a535a0b41694d681d27a50da004a1b42"
    "6923286d0ca54da0b429943683d2e60e0084191822"
)
PARENT_DICT_CHAIN = [
    "52570100000d00000044696374526564756374696f6e80059519000000000000008c"
    "0373756d947d94288c0161944b018c0162944b027586942e",
    "5257010201789c6b609deac800013dcc15f945539c4d1948048c20624adb143d0020"
    "b1062d",
]


def test_blobs_from_the_previous_encoder_still_decode():
    first = np.zeros(48)
    first[[3, 17]] = [1.5, -2.25]
    second = np.arange(48.0) * 0.5 + 1
    baseline, seen = None, []
    for blob, data in zip(
        PARENT_ARRAY_CHAIN, [first, second, second + 1e-12]
    ):
        decoded = wire.decode(bytes.fromhex(blob), baseline=baseline)
        assert decoded.dense == ArrayReduction(48, data=data).to_bytes()
        baseline = decoded.dense
        seen.append(decoded.encoding)
    assert seen == ["sparse", "delta", "delta"]

    dense = wire.decode(bytes.fromhex(PARENT_DENSE))
    assert (dense.encoding, dense.compression) == ("dense", "zlib")
    assert dense.dense == ArrayReduction(24, data=np.arange(24.0)).to_bytes()

    baseline = None
    for blob, items in zip(
        PARENT_DICT_CHAIN, [{"a": 1, "b": 2}, {"a": 1, "b": 3}]
    ):
        decoded = wire.decode(bytes.fromhex(blob), baseline=baseline)
        assert decoded.robj.items == items
        baseline = decoded.dense
    assert decoded.encoding == "delta"


def test_unknown_compression_names_the_offender():
    with pytest.raises(ReductionError, match="'zstd'"):
        wire._decompress(b"", "zstd")
