"""RunTelemetry's whole-run fold and its serializers walk the dataclass's
fields; these tests walk the same fields, so a counter added later is
covered without being named here. Every engine reports this one record.
The last section pins the counter ledger: what a run reports is what its
components counted, per pass and in every mode."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.cache import ChunkCache
from repro.config import ComputeSpec, DatasetSpec, PlacementSpec
from repro.data.dataset import DatasetReader, build_dataset
from repro.errors import DataFormatError
from repro.obs.record import ClusterReport, RunTelemetry
from repro.resilience.retry import RetryPolicy
from repro.runtime.driver import CloudBurstingRuntime
from repro.sim.multisite import MultiSiteSimulation
from repro.storage.objectstore import ObjectStore

NUMERIC = [
    f for f in dataclasses.fields(RunTelemetry) if f.type in ("int", "float")
]
#: The numbers that describe one pass; every other number is a counter.
PER_PASS = {"makespan", "global_reduction"}
COUNTERS = [f for f in NUMERIC if f.name not in PER_PASS]
OTHERS = {"experiment", "app", "clusters", "spans"}


def _pass(n: int) -> RunTelemetry:
    """A pass whose i-th numeric field reads ``n * (i + 1)`` (+ 0.5 if float)."""
    numbers = {
        f.name: n * (i + 1) + (0.5 if f.type == "float" else 0)
        for i, f in enumerate(NUMERIC)
    }
    return RunTelemetry(
        experiment=f"env-{n}",
        app="knn",
        clusters={
            f"c{n}": ClusterReport(
                f"c{n}", "local", 2, n, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0
            )
        },
        spans={"critical_path": [n]},
        **numbers,
    )


def test_every_field_is_numeric_or_taken_from_the_last_pass():
    names = {f.name for f in dataclasses.fields(RunTelemetry)}
    assert names == {f.name for f in NUMERIC} | OTHERS
    assert PER_PASS <= {f.name for f in NUMERIC}
    assert {"cache_hits", "dollars_spent", "events_processed"} <= {
        f.name for f in COUNTERS
    }


def test_fold_sums_every_numeric_field_and_keeps_the_last_pass():
    passes = [_pass(1), _pass(2), _pass(3)]
    folded = RunTelemetry.fold(passes)
    for f in COUNTERS:
        expected = sum(getattr(t, f.name) for t in passes)
        assert getattr(folded, f.name) == expected, f.name
        assert type(getattr(folded, f.name)).__name__ == f.type, f.name
    # The span, its global reduction and its bars describe the last pass,
    # so a folded record still validates.
    for name in PER_PASS | OTHERS:
        assert getattr(folded, name) == getattr(passes[-1], name), name
    assert folded.spans == {"critical_path": [3]}
    # Folding reads the passes; it does not rewrite them.
    assert passes[-1] == _pass(3)


def test_fold_of_one_pass_is_that_pass():
    assert RunTelemetry.fold([_pass(4)]) == _pass(4)


def test_every_numeric_field_survives_a_json_round_trip():
    original = _pass(5)
    doc = original.to_dict()
    assert set(doc) == {f.name for f in NUMERIC} | OTHERS
    assert RunTelemetry.from_json(original.to_json()) == original
    # Fields a document omits read as their defaults; the makespan and the
    # clusters are required.
    required = {"makespan": 1, "clusters": {}}
    assert RunTelemetry.from_dict(required) == RunTelemetry(makespan=1.0)
    for name in required:
        partial = {k: v for k, v in required.items() if k != name}
        with pytest.raises(DataFormatError, match="malformed"):
            RunTelemetry.from_dict(partial)


def test_sim_fold_sums_every_counter_and_keeps_the_last_pass(monkeypatch):
    """Simulate mode folds its passes with the same fold; the run's time
    is the sum of their makespans."""
    passes = []
    simulate = MultiSiteSimulation.run

    def spy(sim):
        passes.append(simulate(sim))
        return passes[-1]

    monkeypatch.setattr(MultiSiteSimulation, "run", spy)
    result = repro.run(
        "kmeans", _dataset("kmeans", 4096, 16),
        repro.RunConfig(
            mode="simulate", iterations=2, cache=repro.CacheOptions(bytes=1 << 30)
        ),
    )
    first, second = passes
    folded = result.telemetry
    assert folded == RunTelemetry.fold(passes)
    assert result.wall_seconds == first.makespan + second.makespan
    assert (folded.makespan, folded.clusters) == (second.makespan, second.clusters)
    assert folded.global_reduction == second.global_reduction
    # The cache carried across passes: pass 2 hits what pass 1 missed.
    assert (first.cache_hits, second.cache_misses) == (0, 0)
    assert folded.cache_hits == second.cache_hits == first.cache_misses > 0
    assert folded.events_processed == first.events_processed + second.events_processed
    folded.validate()


@pytest.mark.parametrize("mode", ["serial", "simulate", "runtime"])
def test_every_mode_returns_one_record(mode):
    result = repro.run(
        "kmeans", _dataset("kmeans", 4096, 16), repro.RunConfig(mode=mode)
    )
    record = result.telemetry
    assert type(record) is RunTelemetry
    assert set(record.to_dict()) == {f.name for f in dataclasses.fields(RunTelemetry)}
    assert RunTelemetry.from_json(record.to_json()) == record
    assert record.makespan == result.wall_seconds > 0
    # A field an engine does not measure keeps its default.
    assert bool(record.clusters) == (mode != "serial")
    assert bool(record.experiment) == (mode == "simulate")
    record.validate()


# -- the ledger: a run reports what its components counted --------------------


def _dataset(app: str, units: int, chunks: int) -> DatasetSpec:
    rb = repro.make_bundle(app, units).schema.record_bytes
    return DatasetSpec(
        total_bytes=units * rb, num_files=4,
        chunk_bytes=(units // chunks) * rb, record_bytes=rb,
    )


@pytest.mark.parametrize("mode", ["serial", "runtime"])
def test_faulty_run_reports_what_its_reader_and_injectors_hold(mode, monkeypatch):
    readers, injected = [], []

    def spy_reader(*args, **kwargs):
        readers.append(DatasetReader(*args, **kwargs))
        return readers[-1]

    def spy_inject(stores, config, inject=repro.facade._inject_faults):
        injected.append(inject(stores, config))
        return injected[-1]

    monkeypatch.setattr("repro.facade.DatasetReader", spy_reader)
    monkeypatch.setattr("repro.runtime.driver.DatasetReader", spy_reader)
    monkeypatch.setattr("repro.facade._inject_faults", spy_inject)
    config = repro.RunConfig(
        mode=mode,
        resilience=repro.ResilienceOptions(
            faults="transient=0.6,seed=7",
            retry=RetryPolicy(max_attempts=40, base_backoff=0, max_backoff=0),
        ),
    )
    t = repro.run("wordcount", _dataset("wordcount", 2048, 32), config).telemetry
    (reader,), (stores,) = readers, injected
    assert t.faults_injected == sum(s.counters.total for s in stores.values()) > 0
    assert t.retries == reader.resilience.retries > 0
    assert t.circuit_opens == sum(b.opens for b in reader.breakers().values()) > 0


def test_per_pass_telemetry_sums_to_the_cumulative_counters():
    bundle = repro.make_bundle("pagerank", 1024)
    stores = {"local": ObjectStore(), "cloud": ObjectStore()}
    index = build_dataset(
        _dataset("pagerank", 1024, 16), PlacementSpec(1.0),  # every read is remote
        bundle.schema, bundle.block_fn, stores,
    )
    cache = ChunkCache(1 << 24)
    runtime = CloudBurstingRuntime(
        bundle.app, index, stores, ComputeSpec(local_cores=0, cloud_cores=2),
        cache=cache,
        sync=repro.SyncSpec(encoding="delta", compress="zlib"),
    )
    first, second = runtime.run().telemetry, runtime.run().telemetry
    codec = runtime._sync_codec.stats
    cumulative = {
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
        "cache_evictions": cache.stats.evictions,
        "bytes_saved": cache.stats.bytes_saved,
        "sync_uploads": codec.uploads,
        "sync_bytes_sent": codec.wire_bytes,
        "sync_bytes_saved": codec.bytes_saved,
    }
    for name, total in cumulative.items():
        assert getattr(first, name) + getattr(second, name) == total, name
    # Pass 2 reports its own movement, not the running total.
    assert (first.cache_misses, first.cache_hits) == (16, 0)
    assert (second.cache_misses, second.cache_hits) == (0, 16)
    assert 0 < second.sync_bytes_sent < codec.wire_bytes


def test_no_ledger_counter_is_assigned_by_hand_under_src():
    by_hand = re.compile(
        r"telemetry\.(retries|hedges|hedge_wins|timeouts|circuit_opens|"
        r"faults_injected|cache_\w+|bytes_saved|zero_copy_reads|bytes_copied|"
        r"sync_uploads|sync_bytes_\w+) *="
    )
    src = Path(__file__).resolve().parents[1] / "src"
    hits = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if by_hand.search(line)
    ]
    assert not hits, f"counters copied outside read_ledger: {hits}"
