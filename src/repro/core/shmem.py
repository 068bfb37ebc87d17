"""Intra-node shared-memory reduction strategies (FREERIDE lineage).

The paper derives its API from FREERIDE [13][14][12], whose central
design question was how threads on one node share the reduction object:

* **full replication** — every thread owns a private copy and copies are
  merged at the end: zero contention, memory = threads x object size;
* **full locking** — one shared object behind one lock: minimal memory,
  maximal contention (every local reduction serializes);
* **chunk merge** (partial replication) — threads reduce each chunk into
  a small private object and fold it into the shared one under the lock
  once per chunk: contention amortized to one merge per chunk.

The cloud-bursting middleware hard-codes full replication per slave (one
reduction object per worker, merged by the master) — this module makes
that a *measured* choice rather than an inherited one:
:func:`run_threaded` executes an application over real chunks with any of
the three strategies, and ``bench_ablation_shmem`` compares them. The
trade is visible exactly as FREERIDE reported: replication wins on time,
locking wins on memory, and the gap widens with thread count and object
size.

The GIL-free process substrate (:mod:`repro.runtime.procpool`) uses
full replication only: each worker *process* holds its own reduction
object, which crosses back to its slave thread through its bytes
envelope.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

from ..config import DEFAULT_UNITS_PER_GROUP
from ..errors import ReductionError
from .api import GeneralizedReductionApp

__all__ = ["ShmemStrategy", "ShmemStats", "run_threaded"]


class ShmemStrategy(str, Enum):
    """How concurrent threads share the reduction object."""

    FULL_REPLICATION = "full-replication"
    FULL_LOCKING = "full-locking"
    CHUNK_MERGE = "chunk-merge"


@dataclass
class ShmemStats:
    """Outcome of a threaded execution."""

    strategy: ShmemStrategy
    threads: int
    wall_seconds: float
    robj_copies: int  # simultaneous reduction-object instances
    robj_bytes: int  # their total serialized size
    lock_acquisitions: int


def run_threaded(
    app: GeneralizedReductionApp,
    chunks: Sequence[bytes],
    *,
    threads: int = 4,
    strategy: ShmemStrategy = ShmemStrategy.FULL_REPLICATION,
    units_per_group: int = DEFAULT_UNITS_PER_GROUP,
) -> tuple[Any, ShmemStats]:
    """Process ``chunks`` with ``threads`` workers under a strategy.

    Returns ``(finalized_result, stats)``. All strategies produce the
    same result (the API's order-independence contract); they differ in
    wall time and in how many reduction-object copies coexist.
    """
    if threads <= 0:
        raise ReductionError("thread count must be positive")
    work = list(chunks)
    cursor = [0]
    take_lock = threading.Lock()
    reduce_lock = threading.Lock()
    lock_count = [0]

    def next_chunk() -> bytes | None:
        with take_lock:
            if cursor[0] >= len(work):
                return None
            raw = work[cursor[0]]
            cursor[0] += 1
            return raw

    shared = app.create_reduction_object()
    privates = [app.create_reduction_object() for _ in range(threads)]

    def reduce_groups(robj, raw: bytes) -> None:
        units = app.decode_chunk(raw)
        for group in app.unit_groups(units, units_per_group):
            app.local_reduction(robj, group)

    def worker(tid: int) -> None:
        while True:
            raw = next_chunk()
            if raw is None:
                return
            if strategy is ShmemStrategy.FULL_REPLICATION:
                reduce_groups(privates[tid], raw)
            elif strategy is ShmemStrategy.FULL_LOCKING:
                with reduce_lock:
                    lock_count[0] += 1
                    reduce_groups(shared, raw)
            else:  # CHUNK_MERGE
                scratch = app.create_reduction_object()
                reduce_groups(scratch, raw)
                with reduce_lock:
                    lock_count[0] += 1
                    shared.merge(scratch)

    started = time.perf_counter()
    crew = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for thread in crew:
        thread.start()
    for thread in crew:
        thread.join()
    wall = time.perf_counter() - started

    if strategy is ShmemStrategy.FULL_REPLICATION:
        final = app.global_reduction(privates)
        copies = threads
        robj_bytes = sum(p.nbytes() for p in privates)
    else:
        final = app.global_reduction([shared])
        # CHUNK_MERGE keeps at most one scratch object per thread alive
        # alongside the shared one.
        copies = 1 + (threads if strategy is ShmemStrategy.CHUNK_MERGE else 0)
        robj_bytes = shared.nbytes() * copies
    stats = ShmemStats(
        strategy=strategy,
        threads=threads,
        wall_seconds=wall,
        robj_copies=copies,
        robj_bytes=robj_bytes,
        lock_acquisitions=lock_count[0],
    )
    return app.finalize(final), stats
