"""The GIL-free process-slave substrate, exercised directly.

The cross-substrate golden matrix proves process slaves agree with the
oracle through the whole runtime; these tests pin the pool's own
contract: the pool reduces correctly, the spawn start method works
(workers are importable, apps picklable), worker errors surface as
protocol failures, and capacity is enforced.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, RuntimeProtocolError
from repro.runtime import ProcessSlavePool
from repro.runtime.procpool import default_start_method


def _chunks(app_key="histogram", units=256, n_chunks=4):
    bundle = repro.make_bundle(app_key, units)
    per = units // n_chunks
    rb = bundle.schema.record_bytes
    raw = [
        bundle.block_fn(i * per, per, i) for i in range(n_chunks)
    ]
    return bundle, [bundle.schema.encode(block) for block in raw], per * rb


def _reduce_all(pool, chunks):
    for i, chunk in enumerate(chunks):
        pool.slaves[i % len(pool.slaves)].reduce(chunk)
    partials = [slave.take() for slave in pool.slaves]
    return partials


def test_pool_reduces_like_serial():
    bundle, chunks, chunk_bytes = _chunks()
    from repro.core.api import run_serial

    expected = run_serial(bundle.app, chunks)
    with ProcessSlavePool(bundle.app, 2, max_chunk_bytes=chunk_bytes) as pool:
        partials = _reduce_all(pool, chunks)
        value = bundle.app.finalize(bundle.app.global_reduction(partials))
        assert pool.chunks_reduced == len(chunks)
        assert pool.shm_bytes == sum(len(c) for c in chunks)
    np.testing.assert_allclose(np.asarray(expected), np.asarray(value))


def test_pool_take_resets_accumulation():
    """take() hands over the partial accumulated since the last take —
    the watermark-flush contract the slave proxy relies on."""
    bundle, chunks, chunk_bytes = _chunks()
    with ProcessSlavePool(
        bundle.app, 1, max_chunk_bytes=chunk_bytes
    ) as pool:
        slave = pool.slaves[0]
        slave.reduce(chunks[0])
        first = slave.take()
        slave.reduce(chunks[1])
        second = slave.take()
        empty = slave.take()  # nothing reduced since: the identity
    a = np.asarray(first.data)
    b = np.asarray(second.data)
    assert a.sum() > 0 and b.sum() > 0
    assert np.asarray(empty.data).sum() == 0


def test_pool_spawn_start_method():
    """The worker entrypoint is importable and the app picklable, so the
    spawn context (the only one on some platforms) works too."""
    bundle, chunks, chunk_bytes = _chunks(units=64, n_chunks=2)
    from repro.core.api import run_serial

    expected = run_serial(bundle.app, chunks)
    with ProcessSlavePool(
        bundle.app, 1, max_chunk_bytes=chunk_bytes, start_method="spawn"
    ) as pool:
        partials = _reduce_all(pool, chunks)
        value = bundle.app.finalize(bundle.app.global_reduction(partials))
    np.testing.assert_allclose(np.asarray(expected), np.asarray(value))


def test_pool_validates_sizes():
    bundle, _, chunk_bytes = _chunks(units=64, n_chunks=2)
    with pytest.raises(ConfigurationError):
        ProcessSlavePool(bundle.app, 0, max_chunk_bytes=chunk_bytes)
    with pytest.raises(ConfigurationError):
        ProcessSlavePool(bundle.app, 1, max_chunk_bytes=0)


def test_pool_rejects_oversized_chunk():
    bundle, chunks, _ = _chunks(units=64, n_chunks=2)
    with ProcessSlavePool(bundle.app, 1, max_chunk_bytes=8) as pool:
        with pytest.raises(RuntimeProtocolError, match="capacity"):
            pool.slaves[0].reduce(chunks[0])


def test_worker_error_surfaces_with_traceback():
    """A bad chunk (torn record) makes the worker's decode raise; the
    proxy side sees a protocol error carrying the worker's traceback."""
    bundle, chunks, chunk_bytes = _chunks(units=64, n_chunks=2)
    with ProcessSlavePool(bundle.app, 1, max_chunk_bytes=chunk_bytes) as pool:
        with pytest.raises(RuntimeProtocolError, match="DataFormatError"):
            pool.slaves[0].reduce(chunks[0][:-3])


def test_default_start_method_is_valid():
    from multiprocessing import get_all_start_methods

    assert default_start_method() in get_all_start_methods()
