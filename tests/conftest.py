"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib
import multiprocessing
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.config import CLOUD_SITE, LOCAL_SITE, DatasetSpec, PlacementSpec
from repro.errors import WorkerFailure
from repro.sim.calibration import PAPER_CALIBRATION
from repro.sim.multisite import MultiSiteSimulation
from repro.sim.simulation import two_site_config
from repro.storage.objectstore import ObjectStore
from repro.storage.retrieval import POOL_THREAD_PREFIX

#: Name prefixes of every thread the middleware starts: none may outlive
#: the run (or the service) that started it.
MIDDLEWARE_THREADS = (
    "head", "master:", "slave:", "service-worker", "prefetch:",
    POOL_THREAD_PREFIX,
)


#: ``benchmarks/`` of this checkout.
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def bench_module(name: str):
    """Import ``benchmarks/<name>.py``. Its ``from conftest import ...``
    means the benchmarks' conftest, so ours steps aside for the import."""
    ours = sys.modules.pop("conftest", None)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.modules.pop("conftest", None)
        if ours is not None:
            sys.modules["conftest"] = ours


def two_site(
    app, dataset, config, calibration=PAPER_CALIBRATION, **options
) -> MultiSiteSimulation:
    """A simulation of the paper's campus + AWS testbed for ``app`` over
    ``dataset`` with ``config`` (a :class:`~repro.RunConfig`)."""
    return MultiSiteSimulation(
        two_site_config(app, dataset, config, calibration), **options
    )


def middleware_threads() -> list[str]:
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(MIDDLEWARE_THREADS)
    ]


@pytest.fixture(scope="session", autouse=True)
def no_worker_process_outlives_the_session():
    """A process-mode runtime's workers live until it is closed or
    dropped; any still alive once every test is done leaked."""
    yield
    leaked = [
        f"{p.name} (pid {p.pid})"
        for p in multiprocessing.active_children()
        if p.name.startswith("slave-proc:")
    ]
    if leaked:
        pytest.fail(f"worker processes outlived the session: {', '.join(leaked)}")


@pytest.fixture
def two_site_stores():
    """A fresh in-memory store per site."""
    return {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}


def small_spec(record_bytes: int, *, files: int = 4, chunks_per_file: int = 4,
               units_per_chunk: int = 64) -> DatasetSpec:
    """A tiny dataset spec with exact divisibility."""
    chunk = units_per_chunk * record_bytes
    return DatasetSpec(
        total_bytes=files * chunks_per_file * chunk,
        num_files=files,
        chunk_bytes=chunk,
        record_bytes=record_bytes,
    )


class CrashOnce:
    """A fault hook: kill slave ``victim`` as it starts the job after its
    first ``after``; ``crashed`` is set when it fires."""

    def __init__(self, victim: int, after: int):
        self.victim = victim
        self.after = after
        self.count = 0
        self.fired = False
        self.crashed = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, slave_id: int, job) -> None:
        if slave_id != self.victim:
            return
        with self._lock:
            if self.fired:
                return
            self.count += 1
            if self.count > self.after:
                self.fired = True
                self.crashed.set()
                raise WorkerFailure(f"injected crash of slave {slave_id}")


def hold_others(hook, victims: set[int], crashed: threading.Event):
    """``hook``, with every slave but ``victims`` held at its first job
    until ``crashed`` is set: the victims run alone until they fail, so no
    other slave — of their cluster or, by stealing, of the other one — can
    drain the jobs they need (on a loaded machine one otherwise can)."""

    def held(slave_id, job):
        if slave_id not in victims:
            assert crashed.wait(30.0)
        hook(slave_id, job)

    return held


@pytest.fixture
def half_placement():
    return PlacementSpec(local_fraction=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
