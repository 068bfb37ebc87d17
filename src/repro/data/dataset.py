"""Dataset builder and reader: materialize bytes into the storage layer.

The builder streams generator blocks into ``num_files`` blobs, splitting
them between the local storage node and the cloud object store according to
a placement, and emits the :class:`~repro.core.index.DataIndex` the head
node consumes. The reader is the slave-side counterpart: given a job and
the index, fetch the chunk's bytes from whichever site hosts it.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from contextlib import closing
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # import cycle: repro.cache type-checks against us
    from ..cache import ChunkCache

from ..config import DatasetSpec, PlacementSpec
from ..core.index import DataIndex, FileEntry, build_index
from ..core.job import Job
from ..errors import DataFormatError
from ..obs.events import EventLog
from ..resilience.circuit import CircuitBreaker
from ..resilience.retry import ResilienceStats, RetryPolicy
from ..runtime.corebudget import available_cores
from ..storage.base import StorageService
from ..storage.retrieval import ChunkRetriever
from .chunks import readonly_view
from .records import RecordSchema

__all__ = ["BlockFn", "build_dataset", "DatasetReader"]

#: ``make_block(global_start_unit, count, block_index) -> np.ndarray``
#:
#: ``block_index`` is the block's place in its file. The builder calls it
#: from several threads at once, so it must be a pure function of its
#: arguments: the same block for the same arguments, whatever ran before
#: or beside it (every registered generator seeds its own RNG per block).
BlockFn = Callable[[int, int, int], np.ndarray]


def build_dataset(
    spec: DatasetSpec,
    placement: PlacementSpec,
    schema: RecordSchema,
    make_block: BlockFn,
    stores: Mapping[str, StorageService],
    *,
    path_prefix: str = "data/part",
) -> DataIndex:
    """Generate and store a dataset; returns its index.

    ``stores`` maps site name to the storage service for that site. The
    files and their placement are :func:`~repro.core.index.build_index`'s;
    the builder fills in each file's checksum.

    Blocks are generated and encoded on a pool of one thread per core this
    process may use, with at most one block per thread in flight ahead of
    the one being stored; a dataset whose first block takes under
    :data:`POOL_MIN_BLOCK_S` to make is built on the calling thread. The
    stores take the encoded blocks in index order, so files, checksums and
    index are those of a one-at-a-time build, and one file is stored while
    the next file's blocks are made. Peak memory is one file plus two
    blocks per thread, whatever the dataset size: a store that buffers
    (``ObjectStore``) holds one file's blocks while it joins them, and
    ``LocalStorage`` streams each block to disk in turn. The pool is joined
    before the call returns, also when it raises; the error raised is that
    of the first failing block in index order.
    """
    if schema.record_bytes != spec.record_bytes:
        raise DataFormatError(
            f"schema record size {schema.record_bytes} != dataset spec "
            f"record size {spec.record_bytes}"
        )
    files = build_index(spec, placement, path_prefix=path_prefix).files
    for entry in files:
        if entry.site not in stores:
            raise DataFormatError(
                f"no storage service supplied for site {entry.site!r}"
            )
    units_per_chunk = spec.units_per_chunk

    def encoded(chunk_id: int) -> memoryview:
        block = make_block(
            chunk_id * units_per_chunk, units_per_chunk,
            chunk_id % spec.chunks_per_file,
        )
        if len(block) != units_per_chunk:
            raise DataFormatError(
                f"block generator returned {len(block)} units, "
                f"expected {units_per_chunk}"
            )
        raw = schema.encode_view(block)
        if len(raw) != spec.chunk_bytes:
            raise DataFormatError(
                f"block {chunk_id} encoded to {len(raw)} B, "
                f"expected {spec.chunk_bytes} B"
            )
        return raw

    entries: list[FileEntry] = []
    with closing(_in_order(encoded, spec.num_chunks)) as blocks:
        for entry in files:
            crc = 0

            def file_parts():
                nonlocal crc
                for raw in islice(blocks, spec.chunks_per_file):
                    crc = zlib.crc32(raw, crc)
                    yield raw

            stores[entry.site].append_stream(entry.path, file_parts())
            entries.append(replace(entry, checksum=crc))
    return DataIndex(files=entries)


#: Shortest first block worth a thread pool. On a 2-core VM, handing a
#: block to a thread and its result back cost about 0.1 ms, and a pool
#: did not pay for itself on blocks made in under about 0.5 ms: pagerank's
#: slices of a pre-built edge list, or 4–64 KiB chunks of any generator.
POOL_MIN_BLOCK_S = 1e-3


def _in_order(fn: Callable[[int], memoryview], count: int) -> Iterator[memoryview]:
    """``fn(0)``, ``fn(1)``, ..., ``fn(count - 1)``, in that order.

    ``count`` is at least 1, and ``fn(0)`` runs on the caller's thread.
    When it took at least :data:`POOL_MIN_BLOCK_S`, the other calls run on
    a pool of one thread per core this process may use, at most one call
    per thread ahead of the caller; the pool is joined when the iterator
    is exhausted, raises or is closed.
    """
    started = time.perf_counter()
    first = fn(0)
    slow = time.perf_counter() - started >= POOL_MIN_BLOCK_S
    threads = min(available_cores(), count - 1) if slow else 1
    if threads <= 1:
        yield first
        yield from map(fn, range(1, count))
        return
    with ThreadPoolExecutor(threads, thread_name_prefix="dataset-build") as pool:
        submitted = (pool.submit(fn, i) for i in range(1, count))
        window = deque(islice(submitted, threads))
        try:
            yield first
            while window:
                result = window.popleft().result()
                window.extend(islice(submitted, 1))
                yield result
        finally:
            for future in window:
                future.cancel()


@dataclass
class DatasetReader:
    """Slave-side chunk access over a built dataset.

    ``retrieval_threads`` only applies to remote (cross-site) fetches —
    local reads are single sequential ``pread``-style calls, matching the
    paper's "continuous read operation" for local jobs.

    ``trace`` is an optional :class:`repro.obs.events.EventLog`; when set,
    every cross-site fetch lands on the timeline as a ``remote_fetch``
    event (the data-movement cost the paper's scheduler tries to avoid).

    ``retry`` is an optional :class:`~repro.resilience.RetryPolicy`; when
    set, *every* read (remote and local) is issued through a resilient
    :class:`~repro.storage.retrieval.ChunkRetriever` — per-sub-range
    retries with backoff, hedged stragglers, and a per-site
    :class:`~repro.resilience.CircuitBreaker` that degrades a failing
    endpoint from parallel to single-stream reads. The reader-wide
    ``resilience`` stats object accumulates what the machinery did across
    every slave sharing this reader.

    ``cache`` is an optional :class:`~repro.cache.ChunkCache`. When set,
    every *remote* (cross-site) read consults it before touching the
    network and inserts what it fetched, so iterative runs pay for each
    remote chunk once per node instead of once per pass. Local reads
    bypass the cache — the bytes are already a sequential disk read away.
    With ``cache=None`` (the default) the only cost is one ``None`` check.

    ``pool`` runs the sub-range reads of every parallel fetch: in a run,
    the slave crew's standing retrieval pool
    (:class:`~repro.runtime.crew.SlaveCrew`), whose threads start on the
    first remote fetch (a warm or site-local pass starts none) and stay
    parked between runs; the crew, not the reader, shuts it down. Without
    one, each parallel retriever makes its own. Parked threads keep their
    malloc arenas: median peak RSS over ten ``benchmarks/e2e`` runs read
    65.0 → 68.9 MB on ``service_burst`` against a pool joined every pass
    (one run each under ``MALLOC_ARENA_MAX=1``: 63.4 → 64.2 MB). A crew
    joins this pool before its slave threads
    (:meth:`~repro.runtime.crew.SlaveCrew.close`), so the next crew's
    slaves take back the slave arenas, not the readers'. Before that
    ordering, ``pagerank_sync``'s peak read 147–204 MB from run to run;
    with it, 147–157 MB over twelve runs.
    """

    index: DataIndex
    stores: Mapping[str, StorageService]
    retrieval_threads: int = 4
    trace: EventLog | None = None
    retry: RetryPolicy | None = None
    cache: "ChunkCache | None" = None
    pool: Executor | None = None

    def __post_init__(self) -> None:
        self.resilience = ResilienceStats()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retrievers: dict[tuple[str, int], ChunkRetriever] = {}
        self._lock = threading.Lock()
        #: Cross-site chunk fetches served (cache hits excluded) — a cheap
        #: always-on gauge the live run monitor probes — and their bytes.
        self.remote_fetches = 0
        self.remote_bytes = 0
        #: Zero-copy accounting, always on (plain ints, like
        #: ``remote_fetches``): a read counts as *zero-copy* when the bytes
        #: handed to ``decode`` alias an existing buffer (an in-memory
        #: blob's view, or a cached chunk); ``bytes_copied`` sums the bytes
        #: of every read that had to materialize a fresh buffer (remote
        #: multi-range assembly, retrying retrievers, file-backed stores).
        #: :func:`~repro.runtime.telemetry.read_ledger` copies these two
        #: and ``remote_bytes`` into :class:`~repro.runtime.telemetry.
        #: RunTelemetry`.
        self.zero_copy_reads = 0
        self.bytes_copied = 0

    def breakers(self) -> dict[str, CircuitBreaker]:
        """Per-site circuit breakers created so far (empty without retry)."""
        with self._lock:
            return dict(self._breakers)

    def _retriever(self, site: str, store: StorageService, threads: int) -> ChunkRetriever:
        """One cached retriever per (site, width); breakers are per site so
        the parallel and single-stream paths share failure history."""
        with self._lock:
            retriever = self._retrievers.get((site, threads))
            if retriever is None:
                breaker = None
                if self.retry is not None:
                    breaker = self._breakers.get(site)
                    if breaker is None:
                        breaker = CircuitBreaker(name=site, trace=self.trace)
                        self._breakers[site] = breaker
                retriever = ChunkRetriever(
                    store,
                    threads=threads,
                    policy=self.retry,
                    breaker=breaker,
                    stats=self.resilience,
                    trace=self.trace,
                    pool=self.pool,
                )
                self._retrievers[(site, threads)] = retriever
            return retriever

    def _count_zero_copy(self) -> None:
        with self._lock:
            self.zero_copy_reads += 1

    def _count_copied(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_copied += nbytes

    def read_job(self, job: Job, *, from_site: str | None = None) -> memoryview:
        """Fetch the chunk for ``job`` as a read-only buffer view.

        ``from_site`` is the site of the requesting slave; when it differs
        from the job's hosting site the multi-threaded retriever is used.

        The hot path — a same-site read against an in-memory store, or a
        cache hit — returns a view *aliasing* the stored/cached buffer:
        zero bytes are copied between the storage layer and ``decode``.
        Retriever-mediated reads (remote multi-range fetches, any read
        under a retry policy) assemble a fresh buffer; those bytes land in
        ``bytes_copied``.
        """
        entry = self.index.entry(job.file_id)
        store = self.stores.get(entry.site)
        if store is None:
            raise DataFormatError(f"no storage service for site {entry.site!r}")
        remote = from_site is not None and from_site != entry.site
        cache = self.cache if remote else None
        key = None
        if cache is not None:
            key = (entry.site, entry.path, job.offset, job.nbytes)
            cached = cache.get(key, job_id=job.job_id, file_id=job.file_id)
            if cached is not None:
                # Served from memory the cache already owns: zero-copy.
                self._count_zero_copy()
                return readonly_view(cached)
        if remote:
            with self._lock:
                self.remote_fetches += 1
                self.remote_bytes += job.nbytes
            if self.trace is not None:
                self.trace.emit(
                    "remote_fetch", job_id=job.job_id, file_id=job.file_id,
                    detail=f"{from_site}<-{entry.site} {job.nbytes}B",
                )
        if remote and self.retrieval_threads > 1:
            retriever = self._retriever(entry.site, store, self.retrieval_threads)
            data = retriever.fetch(
                entry.path, job.offset, job.nbytes,
                job_id=job.job_id, file_id=job.file_id,
            )
            self._count_copied(len(data))
        elif self.retry is not None:
            retriever = self._retriever(entry.site, store, 1)
            data = retriever.fetch(
                entry.path, job.offset, job.nbytes,
                job_id=job.job_id, file_id=job.file_id,
            )
            self._count_copied(len(data))
        else:
            data = store.read_view(entry.path, job.offset, job.nbytes)
            if store.zero_copy_views:
                self._count_zero_copy()
            else:
                self._count_copied(data.nbytes)
        if cache is not None:
            cache.put(key, data, job_id=job.job_id, file_id=job.file_id)
        return readonly_view(data)

    def read_all_chunks(self, *, from_site: str | None = None) -> list[memoryview]:
        """Every chunk in index order — feeds the serial oracle.

        ``from_site`` gives the reads a home site (as :meth:`read_job`
        takes per job) so a serial pass can treat cross-site chunks as
        remote — which is what lets an attached ``cache`` serve them on
        the next pass of an iterative run.
        """
        out: list[memoryview] = []
        for job in self.index.jobs():
            out.append(self.read_job(job, from_site=from_site))
        return out

    def verify_file(self, file_id: int) -> bool:
        """Check a file's bytes against the index's CRC-32.

        Returns ``True`` on match; raises
        :class:`~repro.errors.DataFormatError` on mismatch (corruption or
        tampering) and when the index carries no checksum for the file.
        """
        entry = self.index.entry(file_id)
        if entry.checksum is None:
            raise DataFormatError(
                f"file {file_id} has no checksum recorded in the index"
            )
        store = self.stores.get(entry.site)
        if store is None:
            raise DataFormatError(f"no storage service for site {entry.site!r}")
        crc = 0
        for offset in range(0, entry.nbytes, entry.chunk_bytes):
            crc = zlib.crc32(store.get(entry.path, offset, entry.chunk_bytes), crc)
        if crc != entry.checksum:
            raise DataFormatError(
                f"file {file_id} failed integrity check: stored CRC "
                f"{entry.checksum:#010x}, computed {crc:#010x}"
            )
        return True

    def verify_all(self) -> int:
        """Verify every file; returns the count checked."""
        for entry in self.index.files:
            self.verify_file(entry.file_id)
        return len(self.index.files)
