"""Simulated storage services.

One model covers both of the paper's storage systems, parameterized
differently:

* the campus **storage node** — high aggregate streaming bandwidth, shared
  by every local slave, with a seek penalty and a throughput penalty for
  non-sequential access (why the head assigns *consecutive* jobs);
* **S3** — per-request latency and a hard per-connection bandwidth cap
  (why slaves open multiple retrieval threads), with high aggregate
  service capacity; the site trunk (S3->EC2, or the WAN to campus) is the
  binding aggregate constraint.

Both are built on :class:`~repro.sim.linkmodel.FairShareLink`. The per-file
``group_cap`` models file-service contention: all connections reading one
file share that file's service limit, which is the contention the head's
minimum-readers stealing heuristic avoids.

Simplification (documented in DESIGN.md): each access *path* (e.g. S3->EC2
and S3->campus) is its own fair-share link, so a file's service cap is
enforced per path rather than globally across paths. The reader counts the
heuristic responds to are per-path in all the paper's configurations, so
the shapes are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .engine import Environment, Event
from .linkmodel import FairShareLink

__all__ = ["StorePath", "SimStore"]


@dataclass(frozen=True)
class StorePath:
    """Parameters of one storage access path."""

    name: str
    bandwidth: float  # aggregate bytes/s on this path
    per_connection_cap: float | None = None
    request_latency: float = 0.0  # per-request round trip (S3 GET, ~0 for disk)
    file_service_cap: float | None = None  # shared cap per file
    seek_time: float = 0.0  # extra latency for a non-sequential read
    random_penalty: float = 1.0  # throughput inflation for random reads

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError(f"{self.name}: bandwidth must be positive")
        if self.random_penalty < 1.0:
            raise SimulationError(f"{self.name}: random_penalty must be >= 1")
        if self.seek_time < 0 or self.request_latency < 0:
            raise SimulationError(f"{self.name}: negative latency")


class SimStore:
    """A storage service reachable over one access path."""

    def __init__(self, env: Environment, path: StorePath) -> None:
        self.env = env
        self.path = path
        self.link = FairShareLink(
            env,
            bandwidth=path.bandwidth,
            latency=path.request_latency,
            per_flow_cap=path.per_connection_cap,
            group_cap=path.file_service_cap,
            name=path.name,
        )
        self.reads = 0
        self.sequential_reads = 0
        self._stream_pos: dict[int, int] = {}  # file_id -> last chunk started

    def _is_sequential(self, file_id: int, chunk_index: int) -> bool:
        """Sequential = this chunk continues the file's read stream.

        The storage node serves a file as one stream: concurrent slaves
        draining *consecutive* chunks keep the head streaming even though
        each slave individually reads scattered chunks — which is exactly
        the benefit of the head's consecutive-job assignment. A fetch is
        sequential when it starts at the chunk after the last one started
        on this file (or opens the file at chunk 0).
        """
        last = self._stream_pos.get(file_id)
        if last is None:
            return chunk_index == 0
        return chunk_index == last + 1

    def fetch(
        self,
        file_id: int,
        nbytes: int,
        *,
        chunk_index: int = 0,
        connections: int = 1,
    ) -> Event:
        """Fetch ``nbytes`` of chunk ``chunk_index`` of ``file_id``.

        Fires when every connection's sub-range has arrived. Non-sequential
        reads pay ``seek_time`` once and move their bytes at
        ``1/random_penalty`` efficiency (modeled as byte inflation).
        """
        if connections <= 0:
            raise SimulationError("connections must be positive")
        if nbytes < 0:
            raise SimulationError("negative fetch size")
        sequential = self._is_sequential(file_id, chunk_index)
        self._stream_pos[file_id] = chunk_index
        self.reads += 1
        if sequential:
            self.sequential_reads += 1
        effective = nbytes if sequential else int(nbytes * self.path.random_penalty)
        connections = max(1, min(connections, max(1, effective)))
        share, remainder = divmod(effective, connections)

        def _go():
            if not sequential and self.path.seek_time > 0:
                yield self.env.timeout(self.path.seek_time)
            flows = [
                self.link.transfer(
                    share + (1 if i < remainder else 0), group=file_id
                )
                for i in range(connections)
            ]
            yield self.env.all_of(flows)

        return self.env.process(_go(), name=f"fetch:{self.path.name}:f{file_id}")
