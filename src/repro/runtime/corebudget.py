"""The node's core budget: N slaves computing on one node share its cores.

A kernel that calls into BLAS brings a thread pool of its own — numpy's
OpenBLAS starts one thread per core and uses them for any matrix product
past a size threshold. One slave per core *and* one BLAS thread per core
per slave oversubscribes the node: two slaves reducing 32768-point
groups fight over the pools and run 1.7x (threads) to 2.7x (processes)
slower than with one BLAS thread each (``benchmarks/
bench_compute_path.py`` keeps both columns on record). The paper
gives each slave a core; so does the runtime: while ``N`` slaves compute
here, every BLAS pool in the process is capped to ``max(1, cores // N)``
threads, and put back afterwards.

* Thread slaves share the driver's process, so the cap is a guard around
  the run — :func:`slave_cores` — and because the pool is one per
  process, so is the guard's state: overlapping runs (a threaded
  ``JobService``) add their slaves to one count, and the value found
  before the first of them is restored after the last.
* A process slave owns its process: :func:`cap_blas_threads`, once,
  before its first reduction. A process-mode runtime enters the guard
  when it forks its worker pool and leaves it when it reaps the pool, so
  a forked worker finds the cap already in place (a spawned one starts
  from the library's default and sets it), and the driver's pool is not
  resized between passes: a resized OpenBLAS restarts its threads, and
  with no fork to stop them they spin on the workers' cores.

The pools are reached through ``threadpoolctl`` when it is importable,
otherwise through the ``openblas_set_num_threads`` entry point of
whichever OpenBLAS the process has mapped (Linux; numpy's wheels name it
``scipy_openblas_set_num_threads64_``). Where neither finds a pool the
guard does nothing: the cap is an optimisation, never a requirement, and
there is no setting for it.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["available_cores", "blas_threads", "cap_blas_threads", "slave_cores"]

#: ``(get_num_threads, set_num_threads)`` of one BLAS thread pool.
_Pool = tuple[Callable[[], int], Callable[[int], None]]


def available_cores() -> int:
    """Cores this process may run on (its affinity mask, not the machine's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _share(slaves: int) -> int:
    """BLAS threads each of ``slaves`` slaves on this node may use."""
    return max(1, available_cores() // slaves)


def _openblas_pools() -> list[_Pool]:
    """The OpenBLAS libraries mapped into this process, by their C entry points."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    pools: list[_Pool] = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already mapped: this only takes a handle
        except OSError:
            continue
        # Builds differ in symbol prefix and 64-bit-integer suffix.
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_", "_64")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return pools


@functools.cache
def _blas_pools() -> tuple[_Pool, ...]:
    """Every BLAS thread pool in this process (looked up once)."""
    try:
        from threadpoolctl import ThreadpoolController
    except ImportError:
        return tuple(_openblas_pools())
    libs = ThreadpoolController().select(user_api="blas").lib_controllers
    return tuple((lib.get_num_threads, lib.set_num_threads) for lib in libs)


def blas_threads() -> int | None:
    """Current size of the process's BLAS pool; ``None`` if none was found."""
    pools = _blas_pools()
    return pools[0][0]() if pools else None


def cap_blas_threads(slaves: int) -> None:
    """Give this process the BLAS threads of one of ``slaves`` slaves, for
    the rest of its life (a process slave's first act).

    A pool already at that size is left alone, and not only to save a
    call: a forked worker inherits the driver's cap, and resizing a
    forked OpenBLAS makes it restart its threads, which then spin for
    ~0.1 s on the cores the slaves need (70 ms a pass, measured).
    """
    threads = _share(slaves)
    for get_threads, set_threads in _blas_pools():
        if get_threads() != threads:
            set_threads(threads)


class _CoreBudget:
    """Slaves computing in this process, and the BLAS sizes to put back."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slaves = 0
        self._saved: list[tuple[Callable[[int], None], int]] = []

    def _resize(self) -> None:
        """Every pool to the current share, or to what was found once no
        slave is left."""
        for set_threads, found in self._saved:
            set_threads(_share(self._slaves) if self._slaves else found)

    @contextmanager
    def share(self, slaves: int) -> Iterator[None]:
        with self._lock:
            if self._slaves == 0:
                self._saved = [(set_, get()) for get, set_ in _blas_pools()]
            self._slaves += slaves
            self._resize()
        try:
            yield
        finally:
            with self._lock:
                self._slaves -= slaves
                self._resize()


_BUDGET = _CoreBudget()


def slave_cores(slaves: int):
    """Context manager: ``slaves`` slaves compute on this node until it
    exits (thread slaves for a pass, a process worker pool for its life).
    Re-entrant across threads — see the module docstring."""
    return _BUDGET.share(slaves)
