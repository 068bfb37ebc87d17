"""Chunk caching and prefetching for iterative workloads.

The paper's slaves hide remote-read latency with multiple retrieval
threads (Section III-B); iterative applications (kmeans, pagerank) still
re-download every remote chunk on every pass. This package removes both
costs:

* :class:`ChunkCache` — a size-bounded, thread-safe LRU over remote chunk
  bytes, consulted by :class:`~repro.data.dataset.DatasetReader` before
  the multi-threaded :class:`~repro.storage.retrieval.ChunkRetriever`, so
  a cross-site chunk is paid for once per node instead of once per
  iteration (the locality-aware caching the MATE-EC2 line of follow-ups
  applies to the same problem);
* :class:`Prefetcher` — a per-slave pipeline stage that acquires job
  *N+1* from the master and fetches its chunk while the reduction runs
  over job *N*'s units, overlapping retrieval with compute.

Both are off by default and cost nothing when disabled — the runtime
constructs none of this machinery unless asked, mirroring the
``policy=None`` fast path in :class:`~repro.storage.retrieval.ChunkRetriever`.
"""

from .chunkcache import ChunkCache
from .prefetch import Prefetcher

__all__ = ["ChunkCache", "Prefetcher"]
