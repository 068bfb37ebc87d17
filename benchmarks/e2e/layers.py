"""Outside-in layer spans for the traced pass.

The end-to-end metrics are measured with nothing installed. The traced
pass then wraps the public callables at each layer boundary — from here,
not from inside ``src/`` — runs a few jobs, and removes the wrappers.
Every span records id, name, start, end, thread, parent span and run id;
they stay in memory until the workload ends.

Two things cross threads: the run id and the parent span. Both are
inherited at ``Thread.start`` from the creating thread, so a slave
thread's spans carry the id of the job whose ``runtime.run`` created it
and name that span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

from repro.cache import ChunkCache, Prefetcher
from repro.core import reduction
from repro.core.api import GeneralizedReductionApp
from repro.core.scheduler import HeadScheduler
from repro.core.sync import SyncCodec
from repro.data.dataset import DatasetReader
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.procpool import ProcessSlave, ProcessSlavePool
from repro.runtime.transport import Mailbox
from repro.service import JobService
from repro.storage.objectstore import ObjectStore
from repro.storage.retrieval import ChunkRetriever

__all__ = ["Span", "Tracer", "layer_metrics"]

MB = 1e6


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: str
    parent: int | None
    run: str | None
    #: What the boundary measured besides time (bytes moved, or the
    #: ``global_reduction_seconds`` of a ``runtime.run``); ``None`` if nothing.
    value: float | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nbytes(buf: Any) -> int:
    return buf.nbytes if isinstance(buf, memoryview) else len(buf)


def _subclasses(base: type) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_subclasses(cls))
    return found


def _boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, value-of(result, args)) per boundary."""
    out: list[tuple[Any, str, str, Callable | None]] = [
        (ObjectStore, "read_view", "storage.get", None),
        (ObjectStore, "read_range", "storage.get", None),
        (ChunkRetriever, "fetch", "storage.fetch", lambda r, a: len(r)),
        (DatasetReader, "read_job", "data.read_job", None),
        (ChunkCache, "get", "cache.get", None),
        (ChunkCache, "put", "cache.put", None),
        (Prefetcher, "take", "cache.prefetch_wait", None),
        (SyncCodec, "encode", "sync.encode", None),
        (SyncCodec, "decode", "sync.decode", None),
        (HeadScheduler, "request_jobs", "scheduler.request_jobs", None),
        (Mailbox, "take", "runtime.mailbox_take", None),
        (Mailbox, "post", "runtime.mailbox_post", None),
        (
            CloudBurstingRuntime, "run", "runtime.run",
            lambda r, a: r.global_reduction_seconds,
        ),
        (ProcessSlavePool, "__init__", "procpool.start", None),
        (ProcessSlavePool, "close", "procpool.close", None),
        (ProcessSlave, "reduce", "procpool.reduce", lambda r, a: _nbytes(a[1])),
        (ProcessSlave, "take", "procpool.take", None),
        (JobService, "submit", "service.submit", None),
    ]
    for cls in _subclasses(GeneralizedReductionApp):
        if "decode_chunk" in cls.__dict__:
            out.append((cls, "decode_chunk", "data.decode", None))
        if "local_reduction" in cls.__dict__:
            out.append((cls, "local_reduction", "apps.local_reduction", None))
    for cls in _subclasses(reduction.ReductionObject):
        if "merge" in cls.__dict__:
            out.append((cls, "merge", "reduction.merge", None))
        if "to_bytes" in cls.__dict__:
            out.append(
                (cls, "to_bytes", "reduction.to_bytes", lambda r, a: len(r))
            )
    # ``from_bytes`` is a module function other modules imported by name:
    # wrap every binding of it.
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and module.__dict__.get("from_bytes") is reduction.from_bytes
        ):
            out.append((module, "from_bytes", "reduction.from_bytes", None))
    return out


class Tracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()

    def _wrap(self, original: Callable, name: str, value_of: Callable | None):
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            thread = threading.current_thread()
            state = thread.__dict__
            stack = state.setdefault("_e2e_stack", [])
            parent = stack[-1] if stack else state.get("_e2e_parent")
            span_id = next(ids)
            stack.append(span_id)
            value = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, start, end, thread.name, parent,
                         state.get("_e2e_run"), value)
                )

        return wrapper

    @contextmanager
    def installed(self):
        patched = []
        for owner, attr, name, value_of in _boundaries():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, value_of))
            patched.append((owner, attr, original))
        thread_start = threading.Thread.start

        def start(thread: threading.Thread) -> None:
            creator = threading.current_thread().__dict__
            stack = creator.get("_e2e_stack")
            thread.__dict__["_e2e_run"] = creator.get("_e2e_run")
            thread.__dict__["_e2e_parent"] = (
                stack[-1] if stack else creator.get("_e2e_parent")
            )
            thread_start(thread)

        threading.Thread.start = start
        try:
            yield self
        finally:
            threading.Thread.start = thread_start
            for owner, attr, original in patched:
                setattr(owner, attr, original)
            self.mark(None)

    @staticmethod
    def mark(run: str | None) -> None:
        """Name the job the calling thread (and threads it starts) works on."""
        threading.current_thread().__dict__["_e2e_run"] = run

    def dump(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(
    spans: list[Span],
    *,
    jobs: int,
    slaves: int,
    telemetries: list,
    job_seconds: float,
    untraced_job_seconds: float,
    kernel_seconds: float,
    input_mb: float,
) -> dict[str, tuple[float, int]]:
    """Per-layer numbers of one traced region, as ``name -> (value, n)``.

    Times are summed over threads and divided by ``jobs`` (a pass, a rep
    or a service run — whatever the workload calls one job);
    ``telemetries`` holds the ``RunTelemetry`` of every pass the region
    ran, ``job_seconds`` the wall time of all jobs together,
    ``untraced_job_seconds`` the untraced median of one job,
    ``kernel_seconds`` the single-thread kernel time of one job's input
    and ``input_mb`` the size of that input.
    """
    by_id = {span.id: span for span in spans}
    child_seconds: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            child_seconds[parent.id] = (
                child_seconds.get(parent.id, 0.0) + span.seconds
            )

    # StructReduction.merge calls its fields' merge: count the outer one.
    outer: dict[str, list[Span]] = {}
    for span in spans:
        if getattr(by_id.get(span.parent), "name", None) != span.name:
            outer.setdefault(span.name, []).append(span)

    def outermost(name: str) -> list[Span]:
        return outer.get(name, [])

    out: dict[str, tuple[float, int]] = {}

    def seconds(metric: str, name: str, calls: str | None = None) -> None:
        found = outermost(name)
        out[metric] = (sum(s.seconds for s in found) / jobs, len(found))
        if calls is not None:
            out[calls] = (len(found) / jobs, len(found))

    def counted(metric: str, total: float) -> None:
        out[metric] = (total / jobs, jobs)

    def told(field: str) -> float:
        return sum(getattr(t, field) for t in telemetries)

    seconds("storage.get_s", "storage.get", "storage.gets")
    seconds("storage.fetch_s", "storage.fetch", "storage.fetch_calls")
    fetched = outermost("storage.fetch")
    out["storage.remote_mb"] = (
        sum(s.value or 0 for s in fetched) / MB / jobs, len(fetched)
    )

    seconds("data.read_job_s", "data.read_job")
    reads = outermost("data.read_job")
    out["data.read_job_self_s"] = (
        sum(s.seconds - child_seconds.get(s.id, 0.0) for s in reads) / jobs,
        len(reads),
    )
    seconds("data.decode_s", "data.decode")
    counted("data.zero_copy_reads", told("zero_copy_reads"))
    counted("data.bytes_copied_mb", told("bytes_copied") / MB)

    seconds("cache.get_s", "cache.get")
    seconds("cache.put_s", "cache.put")
    seconds("cache.prefetch_wait_s", "cache.prefetch_wait")
    hits, misses = told("cache_hits"), told("cache_misses")
    counted("cache.hits", hits)
    counted("cache.misses", misses)
    out["cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, int(hits + misses)
    )
    counted("cache.bytes_saved_mb", told("bytes_saved") / MB)
    counted("cache.prefetches", told("prefetches"))

    seconds(
        "apps.local_reduction_s", "apps.local_reduction",
        "apps.local_reduction_calls",
    )
    out["apps.serial_kernel_s"] = (kernel_seconds, 1)
    out["apps.kernel_mb_s"] = (input_mb / kernel_seconds, 1)

    seconds("reduction.merge_s", "reduction.merge", "reduction.merge_calls")
    seconds("reduction.to_bytes_s", "reduction.to_bytes")
    seconds("reduction.from_bytes_s", "reduction.from_bytes")
    blobs = outermost("reduction.to_bytes")
    out["reduction.robj_mb"] = (
        max((s.value or 0 for s in blobs), default=0) / MB, len(blobs)
    )

    seconds("sync.encode_s", "sync.encode")
    seconds("sync.decode_s", "sync.decode")
    sent, saved = told("sync_bytes_sent"), told("sync_bytes_saved")
    counted("sync.uploads", told("sync_uploads"))
    counted("sync.bytes_sent_mb", sent / MB)
    counted("sync.bytes_saved_mb", saved / MB)
    out["sync.wire_ratio"] = (
        sent / (sent + saved) if sent + saved else 0.0, int(told("sync_uploads"))
    )
    runs = outermost("runtime.run")
    global_reduction = sum(s.value or 0.0 for s in runs)
    out["sync.global_reduction_s"] = (global_reduction / jobs, len(runs))

    seconds(
        "scheduler.request_jobs_s", "scheduler.request_jobs",
        "scheduler.request_jobs_calls",
    )
    counted("scheduler.jobs_stolen", sum(t.total_stolen for t in telemetries))

    def cluster_mean(field: str) -> float:
        # Slave-weighted mean over a pass's clusters, summed over passes.
        total = 0.0
        for t in telemetries:
            crew = sum(c.slaves for c in t.clusters.values())
            total += sum(
                getattr(c, field) * c.slaves for c in t.clusters.values()
            ) / max(1, crew)
        return total

    counted("runtime.slave_retrieval_s", cluster_mean("mean_retrieval"))
    counted("runtime.slave_processing_s", cluster_mean("mean_processing"))
    on_slaves = [s for s in spans if s.thread.startswith(("slave:", "prefetch:"))]
    waits = [s for s in on_slaves if s.name == "runtime.mailbox_take"]
    out["runtime.mailbox_wait_s"] = (
        sum(s.seconds for s in waits) / jobs, len(waits)
    )
    posts = outermost("runtime.mailbox_post")
    out["runtime.mailbox_msgs"] = (len(posts) / jobs, len(posts))
    # The busiest cluster gates a pass: what is left of the pass after its
    # slaves' retrieval + processing and the head's merge is protocol,
    # thread start/join and accounting.
    busiest = sum(
        max(
            (c.mean_retrieval + c.mean_processing for c in t.clusters.values()),
            default=0.0,
        )
        for t in telemetries
    )
    run_seconds = sum(s.seconds for s in runs)
    counted("runtime.overhead_s", run_seconds - busiest - global_reduction)
    out["runtime.parallel_efficiency"] = (
        kernel_seconds * jobs / (slaves * run_seconds) if run_seconds else 0.0,
        len(runs),
    )

    seconds("procpool.start_s", "procpool.start")
    seconds("procpool.reduce_s", "procpool.reduce")
    seconds("procpool.take_s", "procpool.take")
    seconds("procpool.close_s", "procpool.close")
    staged = outermost("procpool.reduce")
    out["procpool.shm_mb"] = (
        sum(s.value or 0 for s in staged) / MB / jobs, len(staged)
    )

    seconds("service.submit_s", "service.submit")

    # Share of the slave threads' wall time that some span accounts for.
    # A slave lives about as long as its runtime.run, which is what the
    # denominator uses; in-program spans would measure it exactly.
    slave_top = [
        s for s in on_slaves
        if s.thread.startswith("slave:")
        and getattr(by_id.get(s.parent), "thread", None) != s.thread
    ]
    out["trace.coverage"] = (
        sum(s.seconds for s in slave_top) / (slaves * run_seconds)
        if run_seconds else 0.0,
        len(slave_top),
    )
    out["trace.overhead_ratio"] = (job_seconds / jobs / untraced_job_seconds, jobs)
    return out
