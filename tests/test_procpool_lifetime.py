"""The process worker pool outlives the pass.

A process-mode :class:`CloudBurstingRuntime` forks its
:class:`~repro.runtime.procpool.ProcessSlavePool` on its first pass,
re-arms it (the app as it is now, a fresh reduction object) before every
later one, and reaps it once: on ``close()``, on leaving ``with``, or
when the runtime is dropped. A worker that died, or whose pipe may hold a
reply nobody read, gets the whole pool re-forked; so does a pass that
raised. Every pass here is checked against the serial oracle. Nothing
sleeps: a held kernel waits at a gate the test opens, and the one
timeout is a tenth of a second.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.apps import make_bundle
from repro.apps.kmeans import KMeansApp
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import RuntimeProtocolError
from repro.runtime.driver import CloudBurstingRuntime
from repro.runtime.procpool import default_start_method
from repro.storage.objectstore import ObjectStore

pytestmark = pytest.mark.skipif(
    default_start_method() != "fork",
    reason="the kernel's gate and fuse reach the workers by fork",
)

WAIT = 30.0  # bound on every event wait; none is ever slept out
SHM = "/dev/shm"

#: Shared with every worker forked after import. A held kernel passes
#: the gate once it is opened (a semaphore: unlike an event, a worker
#: killed while waiting cannot block the opener); a lit fuse makes
#: exactly one ``local_reduction`` raise.
GATE = multiprocessing.Semaphore(0)
FUSE = multiprocessing.Value("i", 0)


def open_gate() -> None:
    GATE.release()


class ProbeKMeans(KMeansApp):
    """kmeans whose kernel can be held at :data:`GATE` or blow :data:`FUSE`."""

    hold = False

    def local_reduction(self, robj, units) -> None:
        if self.hold:
            assert GATE.acquire(timeout=WAIT)
            GATE.release()  # it stays open
        with FUSE.get_lock():
            lit, FUSE.value = FUSE.value, 0
        if lit:
            raise ValueError("injected kernel bug")
        super().local_reduction(robj, units)


@pytest.fixture
def job():
    """A 2-slave process runtime over a small kmeans dataset, its app and
    its chunks; the gate closed and the fuse out."""
    while GATE.acquire(block=False):
        pass
    FUSE.value = 0
    bundle = make_bundle("kmeans", 4096, seed=7)
    app = ProbeKMeans(bundle.app.centroids)
    rb = bundle.schema.record_bytes
    spec = DatasetSpec(
        total_bytes=4096 * rb, num_files=4, chunk_bytes=256 * rb, record_bytes=rb
    )
    stores = {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore()}
    index = build_dataset(
        spec, PlacementSpec(1.0), bundle.schema, bundle.block_fn, stores
    )
    chunks = DatasetReader(index, stores).read_all_chunks()
    runtime = CloudBurstingRuntime(
        app, index, stores, ComputeSpec(2, 0), slave_mode="process",
        tuning=MiddlewareTuning(allow_stealing=False), join_timeout=WAIT,
    )
    yield runtime, app, chunks
    open_gate()  # never leave a held worker behind
    runtime.close()


def assert_exact(result, app, chunks):
    np.testing.assert_allclose(result.value, run_serial(app, chunks), rtol=1e-6)


def slave_pids() -> list[int]:
    return sorted(
        p.pid for p in multiprocessing.active_children()
        if p.name.startswith("slave-proc:")
    )


def segments() -> set[str]:
    return set(os.listdir(SHM)) if os.path.isdir(SHM) else set()


# -- one fork, many passes -----------------------------------------------------


def test_two_passes_fork_once(job):
    runtime, app, chunks = job
    assert_exact(runtime.run(), app, chunks)
    forked = slave_pids()
    assert len(forked) == 2
    assert_exact(runtime.run(), app, chunks)
    assert slave_pids() == forked


def test_iterative_passes_ship_the_updated_app_to_the_workers(job):
    """The workers were forked with pass 1's centroids: pass 2 and 3 only
    equal the oracle if re-arming hands them the updated ones."""
    runtime, app, chunks = job
    forked = None
    for _ in range(3):
        expected = run_serial(app, chunks)
        np.testing.assert_allclose(runtime.run().value, expected, rtol=1e-6)
        forked = forked or slave_pids()
        app.update(expected)
    assert slave_pids() == forked


# -- failures re-fork -----------------------------------------------------------


def test_a_worker_killed_between_passes_is_replaced(job):
    runtime, app, chunks = job
    assert_exact(runtime.run(), app, chunks)
    victim = next(
        p for p in multiprocessing.active_children()
        if p.name.startswith("slave-proc:")
    )
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(WAIT)
    assert_exact(runtime.run(), app, chunks)
    pids = slave_pids()
    assert len(pids) == 2 and victim.pid not in pids


def test_a_pass_that_raises_closes_the_pool_and_the_next_pass_is_exact(job):
    runtime, app, chunks = job
    assert_exact(runtime.run(), app, chunks)
    forked = slave_pids()
    FUSE.value = 1
    with pytest.raises(RuntimeProtocolError, match="injected kernel bug"):
        runtime.run()
    assert slave_pids() == []  # closed with the pass
    assert_exact(runtime.run(), app, chunks)
    assert not set(slave_pids()) & set(forked)


def test_a_timed_out_request_breaks_its_slave_and_the_next_pass_reforks(job):
    """The held worker answers after its proxy gave up: that reply sits in
    the pipe, and re-arming must never read it as the pass's answer."""
    runtime, app, chunks = job
    assert_exact(runtime.run(), app, chunks)
    forked = slave_pids()
    pool = runtime._pool
    app.hold = True
    assert pool.rearm(app)
    slave = pool.slaves[0]
    slave.timeout = 0.1
    with pytest.raises(RuntimeProtocolError, match="did not reply"):
        slave.reduce(chunks[0])
    assert slave.broken and not slave.usable
    open_gate()  # the worker now finishes and replies to nobody
    app.hold = False
    assert not pool.rearm(app)
    assert_exact(runtime.run(), app, chunks)
    assert not set(slave_pids()) & set(forked)


# -- reaped once ----------------------------------------------------------------


def test_leaving_with_reaps_workers_and_segments(job):
    _, app, chunks = job
    found = segments()
    with CloudBurstingRuntime(
        app, job[0].index, job[0].stores, ComputeSpec(2, 0), slave_mode="process"
    ) as runtime:
        assert_exact(runtime.run(), app, chunks)
        assert len(slave_pids()) == 2
        assert segments() - found
    assert slave_pids() == []
    assert segments() <= found


def test_dropping_an_unclosed_runtime_reaps_workers_and_segments(job):
    _, app, chunks = job
    found = segments()
    gc.disable()  # the finalizer must not wait for a collection
    try:
        runtime = CloudBurstingRuntime(
            app, job[0].index, job[0].stores, ComputeSpec(2, 0),
            slave_mode="process",
        )
        result = runtime.run()
        assert len(slave_pids()) == 2
        del runtime
        assert slave_pids() == []
        assert segments() <= found
    finally:
        gc.enable()
    assert_exact(result, app, chunks)
