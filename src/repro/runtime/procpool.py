"""GIL-free slave substrate: one worker *process* per slave.

The threaded runtime keeps every ``local_reduction`` under one
interpreter lock, so a CPU-bound application gains nothing from extra
cores. :class:`ProcessSlavePool` moves the reduction kernel into worker
processes while leaving the whole control plane — head, masters, the
slave threads and their message protocol — exactly where it was: each
:class:`~repro.runtime.slave.SlaveWorker` thread becomes a thin proxy
that still requests jobs and fetches chunk bytes in the main process
(sharing the reader, cache, and retry machinery), then hands the bytes
to its worker process for decode + local reduction.

The hand-off is engineered around the zero-copy data path:

* chunk bytes cross the process boundary through one
  :mod:`multiprocessing.shared_memory` segment per slave — a single
  staging write on the proxy side, then a read-only ``np.frombuffer``
  view on the worker side (no pickling, no pipe copies of data);
* the reduction object crosses back through its existing
  ``to_bytes()``/``from_bytes()`` envelope under one sharing
  discipline, **full replication** (the FREERIDE default): each worker
  accumulates privately and ships the partial on flush. (The locking
  disciplines of :class:`~repro.core.shmem.ShmemStrategy` need one
  object in one address space; they belong to ``run_threaded``.)

The master merges the proxies' reduction objects exactly as it merges
threaded slaves' — the substrate is invisible above the slave.
"""

from __future__ import annotations

import pickle
import traceback
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory

from ..config import DEFAULT_UNITS_PER_GROUP
from ..core.api import GeneralizedReductionApp
from ..core.reduction import ReductionObject, from_bytes
from ..errors import ConfigurationError, RuntimeProtocolError
from .corebudget import cap_blas_threads

__all__ = ["ProcessSlave", "ProcessSlavePool", "default_start_method"]


def default_start_method() -> str:
    """``fork`` where available (fast, POSIX), else ``spawn``.

    The pool is always constructed *before* the runtime starts any
    thread, so forking is safe; ``spawn`` works everywhere and is
    exercised by the tests, at ~1 s of interpreter start-up per worker.
    """
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def _worker_main(
    conn,
    shm_name: str,
    app_blob: bytes,
    units_per_group: int,
    workers: int,
) -> None:
    """Worker-process loop: serve reduce/flush/pass requests until told
    to exit.

    Runs at module level so the ``spawn`` start method can import it.
    Any exception inside a request is reported back as an ``("error",
    traceback)`` reply and ends the worker — the proxy surfaces it as a
    slave failure and the master re-executes the in-flight job elsewhere.
    """
    # This process is one of ``workers`` slaves on the node: take one
    # slave's share of its cores before the kernel's first BLAS call.
    cap_blas_threads(workers)
    # Attaching registers the segment with the resource tracker again,
    # but workers share the parent's tracker (its registry is a set), so
    # the pool's own unlink-at-close remains the single cleanup point.
    shm = shared_memory.SharedMemory(name=shm_name)
    app: GeneralizedReductionApp = pickle.loads(app_blob)
    buf = memoryview(shm.buf)
    robj = app.create_reduction_object()

    def serve_reduce(nbytes: int) -> tuple:
        # A read-only view straight over shared memory: the decode is
        # zero-copy across the process boundary, and a kernel mutating
        # its units raises here exactly as it would in a thread.
        units = app.decode_chunk(buf[:nbytes].toreadonly())
        for group in app.unit_groups(units, units_per_group):
            app.local_reduction(robj, group)
        return ("ok", None)

    try:
        while True:
            try:
                op, arg = conn.recv()
            except (EOFError, OSError):
                break
            if op == "exit":
                break
            try:
                if op == "reduce":
                    reply = serve_reduce(arg)
                elif op == "flush":
                    reply = ("robj", robj.to_bytes())
                    robj = app.create_reduction_object()
                elif op == "pass":
                    # A new pass: the app as the driver holds it now (an
                    # iterative run's update included), and nothing a
                    # crashed or revoked slave left from the last pass.
                    app = pickle.loads(arg)
                    robj = app.create_reduction_object()
                    reply = ("ok", None)
                else:
                    reply = ("error", f"unknown op {op!r}")
            except BaseException:
                reply = ("error", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            if reply[0] == "error":
                break
    finally:
        buf.release()
        shm.close()
        conn.close()


class ProcessSlave:
    """Parent-side handle for one worker process.

    Used by exactly one :class:`~repro.runtime.slave.SlaveWorker` proxy
    thread, so no internal locking is needed. ``reduce`` stages the
    chunk into shared memory and blocks until the worker has consumed it
    (the single buffer is reused per job; fetch/compute overlap comes
    from the existing prefetcher, which pulls job *N+1*'s bytes while
    the worker reduces job *N*). ``take`` returns the reduction partial
    accumulated since the last ``take`` — the proxy calls it at the sync
    watermark and at end of run, feeding the master the same
    ``SlaveReduction`` messages a threaded slave would.

    A request that raised (an error reply, an EOF, a timeout while the
    worker may still answer) marks the slave ``broken``: whatever is left
    in its pipe is unknown, so the pool is never re-armed with it.
    """

    def __init__(
        self,
        ctx,
        slave_id: int,
        app_blob: bytes,
        *,
        capacity: int,
        units_per_group: int,
        timeout: float,
        workers: int,
    ) -> None:
        self.slave_id = slave_id
        self.timeout = timeout
        self._capacity = capacity
        #: Bytes staged into shared memory — the one intentional copy of
        #: the process hand-off (the read path itself stays zero-copy).
        self.shm_bytes = 0
        self.chunks_reduced = 0
        self.broken = False
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(capacity, 1)
        )
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._shm.name,
                app_blob,
                units_per_group,
                workers,
            ),
            name=f"slave-proc:{slave_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def usable(self) -> bool:
        """The worker is alive and its pipe holds no reply nobody read."""
        return not self.broken and self._process.is_alive()

    def _call(self, op: str, arg: object) -> tuple:
        """Send one request and read its reply; any failure breaks the slave."""
        try:
            self._conn.send((op, arg))
            return self._recv()
        except BaseException:
            self.broken = True
            raise

    def _recv(self) -> tuple:
        if not self._conn.poll(self.timeout):
            raise RuntimeProtocolError(
                f"worker process for slave {self.slave_id} did not reply "
                f"within {self.timeout:g}s"
            )
        try:
            kind, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeProtocolError(
                f"worker process for slave {self.slave_id} died mid-request "
                f"(exitcode={self._process.exitcode})"
            ) from exc
        if kind == "error":
            raise RuntimeProtocolError(
                f"worker process for slave {self.slave_id} failed:\n{payload}"
            )
        return kind, payload

    def reduce(self, raw: "bytes | memoryview") -> None:
        """Run decode + local reduction for one chunk in the worker."""
        nbytes = raw.nbytes if isinstance(raw, memoryview) else len(raw)
        if nbytes > self._capacity:
            raise RuntimeProtocolError(
                f"chunk of {nbytes} B exceeds slave {self.slave_id}'s "
                f"shared-memory capacity of {self._capacity} B"
            )
        self._shm.buf[:nbytes] = raw
        self.shm_bytes += nbytes
        self._call("reduce", nbytes)
        self.chunks_reduced += 1

    def take(self) -> ReductionObject:
        """The partial accumulated since the last ``take`` (resets it)."""
        _, payload = self._call("flush", None)
        return from_bytes(payload)

    def close(self) -> None:
        """Stop the worker and release the shared-memory segment."""
        try:
            self._conn.send(("exit", None))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass


class ProcessSlavePool:
    """All the worker processes of one runtime, created up front and kept
    across its passes.

    Construct *before* starting any runtime thread (forking a threaded
    process is where the dragons live); the driver does exactly that, on
    its first process-mode pass, and calls :meth:`rearm` before each later
    one. ``slaves[i]`` is the ``process_slave`` of the ``SlaveWorker``
    with id ``i``.
    """

    def __init__(
        self,
        app: GeneralizedReductionApp,
        workers: int,
        *,
        max_chunk_bytes: int,
        units_per_group: int = DEFAULT_UNITS_PER_GROUP,
        start_method: str | None = None,
        timeout: float = 600.0,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError("process pool needs at least one worker")
        if max_chunk_bytes <= 0:
            raise ConfigurationError("max_chunk_bytes must be positive")
        ctx = get_context(start_method or default_start_method())
        app_blob = pickle.dumps(app)
        self.slaves: list[ProcessSlave] = []
        try:
            for slave_id in range(workers):
                self.slaves.append(
                    ProcessSlave(
                        ctx,
                        slave_id,
                        app_blob,
                        capacity=max_chunk_bytes,
                        units_per_group=units_per_group,
                        timeout=timeout,
                        workers=workers,
                    )
                )
        except BaseException:
            self.close()
            raise

    @property
    def shm_bytes(self) -> int:
        """Total bytes staged into shared memory across all slaves."""
        return sum(s.shm_bytes for s in self.slaves)

    @property
    def chunks_reduced(self) -> int:
        return sum(s.chunks_reduced for s in self.slaves)

    def rearm(self, app: GeneralizedReductionApp) -> bool:
        """Start a new pass: every worker takes ``app`` and a fresh
        reduction object. ``False`` if a worker is dead or broken, or
        fails the request — the caller then forks a new pool."""
        if not all(slave.usable for slave in self.slaves):
            return False
        blob = pickle.dumps(app)
        try:
            for slave in self.slaves:
                slave._call("pass", blob)
        except (RuntimeProtocolError, OSError):
            return False
        return True

    def close(self) -> None:
        for slave in self.slaves:
            slave.close()

    def __enter__(self) -> "ProcessSlavePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
