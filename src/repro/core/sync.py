"""Global-reduction sync planning: topology, codec state, streaming knobs.

Three levers shrink the paper's sync-time WAN tax (ROADMAP item 4), all
configured through one :class:`SyncSpec`:

* **encoding/compression** — what each cluster's combined reduction
  object looks like on the wire (:mod:`repro.core.wire`). Only a hop
  that crosses a site boundary is encoded: the head-site master hands
  its object to the head as it is, since that hop costs no WAN bytes;
* **topology** — who ships to whom. ``star`` is the paper's layout
  (every master uploads straight to the head). ``tree`` aggregates
  through intermediate masters with a configurable fanout, so a shared
  head-ingress trunk carries ~log(n) sequentialized objects instead of
  n concurrent ones. ``fanout=1`` makes the tree a chain: each master
  merges its predecessor's object before forwarding one combined object;
* **streaming** — slaves flush partial reduction objects every
  ``watermark`` jobs so masters (and the head) merge while slow slaves
  finish, instead of idling behind the barrier. Flushed jobs are
  *committed*: a slave that dies afterwards only re-executes work since
  its last flush.

The plan itself is laid out by :func:`repro.core.layout.lay_out`, the
same for the threaded runtime and the simulator, so topology behavior is
modeled and executed identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import ConfigurationError, RuntimeProtocolError
from .reduction import ReductionObject
from . import wire

__all__ = [
    "TOPOLOGIES",
    "SyncSpec",
    "SyncCodec",
    "UploadReceipts",
]

#: Aggregation layouts across masters.
TOPOLOGIES = ("star", "tree")


@dataclass(frozen=True)
class SyncSpec:
    """Every sync-path knob, validated once.

    ``sim_ratio`` is the modeled wire/dense byte ratio the simulator
    charges for encoded uploads, the ones that cross a site boundary
    (1.0 = dense); the head-site hop to the head ships dense bytes. The
    runtime measures the real ratio; benches feed it back into the
    simulator.
    """

    topology: str = "star"
    encoding: str = "dense"
    compress: str = "none"
    stream: bool = False
    watermark: int = 8
    fanout: int = 2
    sim_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown sync topology {self.topology!r}; "
                f"expected one of {TOPOLOGIES}"
            )
        if self.encoding not in wire.ENCODINGS:
            raise ConfigurationError(
                f"unknown sync encoding {self.encoding!r}; "
                f"expected one of {wire.ENCODINGS}"
            )
        if self.compress not in wire.COMPRESSIONS:
            raise ConfigurationError(
                f"unknown sync compression {self.compress!r}; "
                f"expected one of {wire.COMPRESSIONS}"
            )
        if self.compress == "lz4" and not wire.lz4_available():
            raise ConfigurationError(
                "sync_compress='lz4' requires the lz4 package, which is "
                "not installed on this host; use 'zlib'"
            )
        if self.watermark < 1:
            raise ConfigurationError("sync watermark must be at least 1")
        if self.fanout < 1:
            raise ConfigurationError("sync fanout must be at least 1")
        if not 0.0 < self.sim_ratio <= 1.0:
            raise ConfigurationError("sync sim_ratio must be in (0, 1]")

    @property
    def slave_watermark(self) -> int:
        """Jobs a slave reduces between streamed partials, as both engines
        run it: ``watermark`` when streaming, else ``0`` (no partial
        before the final hand-over)."""
        return self.watermark if self.stream else 0


@dataclass
class SyncStats:
    """Codec accounting, cumulative across iterative passes: the uploads
    that cross a site boundary, since only those are encoded.

    ``dense_bytes`` is what dense uploads of the same objects would have
    shipped, wire header included, so a dense upload saves exactly 0 and,
    since the codec never ships a body longer than dense,
    ``bytes_saved >= 0``.
    """

    uploads: int = 0
    wire_bytes: int = 0
    dense_bytes: int = 0
    encodings: dict[str, int] = field(default_factory=dict)

    @property
    def bytes_saved(self) -> int:
        return self.dense_bytes - self.wire_bytes


class SyncCodec:
    """Thread-safe wire codec with per-channel delta baselines.

    It encodes every upload that crosses a site boundary; the head-site
    master's hop to the head bypasses it (:class:`UploadReceipts` takes
    that object as it is).

    A *channel* is a sender cluster name. Delta encoding diffs against
    the previous object sent on the same channel, so under ``delta`` the
    encoder keeps the dense bytes it last produced per channel and the
    decoder keeps the dense bytes it last reconstructed — two separate
    stores, because encode and decode run in different node threads; no
    other encoding reads a baseline, so none keeps one. The stores persist
    across iterative passes (the runtime driver owns one codec for the
    whole run), which is exactly what makes pass-N PageRank uploads tiny:
    the object barely changed since pass N-1.

    The encoder keeps each channel's candidate memory beside its baseline
    (``wire.encode``'s ``losses``), so an upload does not build what lost
    widely on the channel's last ones.

    A channel has one sender thread and one receiver thread, so its
    state cannot change under a running call: the lock covers only the
    state read and the state + stats store, and the encode or
    decode itself (zlib releases the GIL) runs outside it — two masters'
    uploads overlap instead of queueing.
    """

    def __init__(self, spec: SyncSpec) -> None:
        self.spec = spec
        self.stats = SyncStats()
        self._lock = threading.Lock()
        self._delta = spec.encoding == "delta"
        self._encode_baselines: dict[str, bytes] = {}
        self._encode_losses: dict[str, wire.Losses] = {}
        self._decode_baselines: dict[str, bytes] = {}

    def encode(self, channel: str, robj: ReductionObject) -> wire.EncodedObject:
        with self._lock:
            baseline = self._encode_baselines.get(channel)
            losses = self._encode_losses.get(channel)
        encoded = wire.encode(
            robj,
            encoding=self.spec.encoding,
            compress=self.spec.compress,
            baseline=baseline,
            losses=losses,
        )
        with self._lock:
            if self._delta:
                self._encode_baselines[channel] = encoded.dense
            self._encode_losses[channel] = encoded.losses
            self.stats.uploads += 1
            self.stats.wire_bytes += len(encoded.blob)
            self.stats.dense_bytes += wire._HEADER.size + len(encoded.dense)
            self.stats.encodings[encoded.encoding] = (
                self.stats.encodings.get(encoded.encoding, 0) + 1
            )
        return encoded

    def decode(self, channel: str, blob: bytes) -> ReductionObject:
        with self._lock:
            baseline = self._decode_baselines.get(channel)
        decoded = wire.decode(blob, baseline=baseline)
        if self._delta:
            with self._lock:
                self._decode_baselines[channel] = decoded.dense
        return decoded.robj


@dataclass
class UploadReceipts:
    """How ``node`` takes one upload from each of ``senders`` — the head
    from the plan roots, a master from its children: check the sender,
    record the clusters the upload covers, decode wire bytes (the
    head-site master's object arrives as it is), and keep the object
    for a barrier merge in plan order. Merging stays with the node, and
    so does the arrival stamp (this reads no clock)."""

    node: str
    senders: tuple[str, ...]
    codec: SyncCodec | None
    #: Each sender's decoded upload, in arrival order.
    received: dict[str, ReductionObject] = field(default_factory=dict)
    #: Every cluster the taken uploads cover, in arrival order.
    origins: list[str] = field(default_factory=list)

    @property
    def pending(self) -> bool:
        return len(self.received) < len(self.senders)

    def take(self, message) -> ReductionObject:
        """Take one :class:`~repro.core.messages.ReductionUpload`,
        decoding it only if it arrived as wire bytes."""
        cluster = message.cluster
        if cluster in self.received:
            raise RuntimeProtocolError(f"{self.node}: {cluster!r} uploaded twice")
        if cluster not in self.senders:
            raise RuntimeProtocolError(f"{self.node}: unknown cluster {cluster!r}")
        self.origins.extend(message.origins)
        payload = message.blob
        if isinstance(payload, bytes):
            payload = self.codec.decode(cluster, payload)
        self.received[cluster] = payload
        return payload
