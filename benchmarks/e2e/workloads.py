"""The five workloads and the run protocol they share.

Every workload does fixed work: the counts below are what ``--seconds
12`` runs (``BENCHMARK.json``'s ``run_seconds``); another ``--seconds``
scales them in proportion, ``--smoke`` divides sizes and counts by 16.
Every reported timing is a median over inner samples (for
``service_burst`` the lower quartile over windows of each window's
median), so one stall spoils one sample and not the metric.

The four runtime workloads are built directly on the engine
(``make_bundle`` / ``build_dataset`` / ``ObjectStore`` /
``CloudBurstingRuntime(...).run()``) so set-up and run separate;
``service_burst`` goes through ``JobService.submit``, which is what
``repro.run`` is.

Timings are reported in *calibrated* seconds (see :class:`Calibration`):
the sandbox's speed wanders by tens of percent over seconds to minutes,
and two sets of raw medians of the same code sit further apart than any
bound the builder's contract allows. The raw wall-clock value of every
metric is kept beside the calibrated one.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps import make_bundle
from repro.cache import ChunkCache
from repro.config import (
    CLOUD_SITE,
    LOCAL_SITE,
    ComputeSpec,
    DatasetSpec,
    MiddlewareTuning,
    PlacementSpec,
)
from repro.core.api import run_serial
from repro.core.sync import SyncSpec
from repro.data.dataset import DatasetReader, build_dataset
from repro.facade import RunConfig, run_direct
from repro.runtime.driver import CloudBurstingRuntime
from repro.service import JobService, TenantSpec
from repro.storage.objectstore import ObjectStore, TrafficShaper

from layers import Tracer, layer_metrics

__all__ = ["WORKLOADS", "Scale", "Calibration", "run_workload"]

MB = 1e6
FILES = 4
#: ``--seconds`` at which the workloads' counts are as written.
RUN_SECONDS = 12.0
#: Isolated ``build_dataset`` / serial-kernel timings in the traced pass.
ISOLATED_SAMPLES = 3
RESULT_TIMEOUT = 60.0

Metrics = dict[str, tuple[float, int]]


@dataclass(frozen=True)
class Scale:
    """How ``--seconds`` and ``--smoke`` size a run."""

    seconds: float = RUN_SECONDS
    smoke: bool = False

    def size(self, n: int) -> int:
        return n // 16 if self.smoke else n

    def count(self, n: int, floor: int = 1) -> int:
        """A rep count; ``floor`` keeps medians at >= 10 samples in full runs."""
        if self.smoke:
            return max(1, round(n / 16))
        return max(floor, round(n * self.seconds / RUN_SECONDS))


class Calibration:
    """The machine's speed right now, as the time of one fixed kernel.

    The kernel is a little of each kind of work this code base does: a
    pure-Python loop, numpy calls on small arrays (interpreter-bound, GIL
    held) and numpy calls on arrays too large for the cache. It is read
    before and after every block of the timed region (a rep, a window of
    service runs, a set-up build), and the block's samples are multiplied
    by ``REFERENCE_S / mean(before, after)``: seconds on a machine where
    the kernel takes ``REFERENCE_S``, which is this sandbox when quiet.
    The kernel touches no code of the repo, so no change to the repo can
    move it.
    """

    REFERENCE_S = 0.024

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._points = rng.random((16384, 4), dtype=np.float32)
        self._centres = rng.random((8, 4), dtype=np.float32)
        self._big = np.linspace(1.0, 2.0, 512 * 1024)
        self._out = np.empty_like(self._big)
        self.readings: list[float] = []
        self.read()  # first touch, discarded
        self.readings.clear()

    def read(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        sums = np.zeros((8, 4))
        for _ in range(4):
            nearest = (self._points @ self._centres.T).argmin(axis=1)
            np.add.at(sums, nearest, self._points.astype(np.float64))
        for _ in range(10):
            np.sqrt(self._big, out=self._out)
            np.multiply(self._out, self._big, out=self._out)
        seconds = time.perf_counter() - started
        self.readings.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)


def same_value(expected: Any, got: Any, units: int) -> bool:
    """The golden matrix's comparison (``tests/test_cross_substrate.py``):
    exact for integer arrays, dicts of ints and lists; float arrays to the
    last few ulps, because which slave sums which jobs varies with
    scheduling and float addition is not associative.

    The matrix's ``rtol=1e-12`` is for its 1024 units. Reduction objects
    accumulate in float64, and summing ``units`` same-signed terms in
    another order moves the sum by at most ``units`` ulps, so that is the
    tolerance here (5e-10 for the 2 M-edge pagerank, whose hottest page
    takes a third of all contributions) — or 4 ulps of the result's own
    dtype where that is coarser (kmeans returns float32 centroids).
    """
    if isinstance(expected, np.ndarray):
        if not isinstance(got, np.ndarray) or got.shape != expected.shape:
            return False
        if np.issubdtype(expected.dtype, np.floating):
            rtol = max(
                1e-12,
                4 * float(np.finfo(expected.dtype).eps),
                units * float(np.finfo(np.float64).eps),
            )
            return bool(np.allclose(got, expected, rtol=rtol, atol=1e-15))
        return bool(np.array_equal(expected, got))
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return False
        return all(
            math.isclose(got[k], v, rel_tol=1e-12)
            if isinstance(v, float)
            else got[k] == v
            for k, v in expected.items()
        )
    return expected == got


def _peak_rss_mb() -> float:
    """This process's resident high-water mark.

    ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's high-water
    mark into ``ru_maxrss`` across fork + exec, so a child of ``run.py``
    would report the parent's calibration buffers.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _median(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def _lower_quartile(values: list[float]) -> tuple[float, int]:
    return float(np.percentile(values, 25)), len(values)


def _split(total: int, size: int) -> list[int]:
    """``total`` as blocks of ``size`` and one for the remainder."""
    return [size] * (total // size) + ([total % size] if total % size else [])


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _dataset_spec(units: int, record_bytes: int, chunks_per_file: int) -> DatasetSpec:
    total = units * record_bytes
    return DatasetSpec(
        total_bytes=total,
        num_files=FILES,
        chunk_bytes=total // (FILES * chunks_per_file),
        record_bytes=record_bytes,
    )


def _fresh_stores(wan: TrafficShaper | None = None) -> dict[str, ObjectStore]:
    return {LOCAL_SITE: ObjectStore(), CLOUD_SITE: ObjectStore(wan)}


def _report_failure(what: str, exc: BaseException | None) -> None:
    print(f"FAILED {what}: {exc if exc else 'value differs from the oracle'}",
          file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


# -- the four runtime workloads ----------------------------------------------


@dataclass
class RuntimeState:
    bundle: Any
    spec: DatasetSpec
    index: Any
    stores: dict[str, ObjectStore]
    seed: int
    #: What ``app.update`` is reset to before each rep.
    initial: np.ndarray


@dataclass
class PassSample:
    index: int
    seconds: float
    ok: bool
    telemetry: Any
    #: Calibration factor of the rep this pass belongs to.
    factor: float = 1.0


#: Per-layer metrics only ``service_burst`` measures.
_SERVICE_ONLY = (
    "service.queue_wait_s", "service.exec_s", "service.result_lag_s",
    "service.ceremony_share", "facade.run_direct_s", "facade.build_share",
)

#: The attribute ``app.update`` rebinds, per iterative application.
_APP_STATE = {"kmeans": "centroids", "pagerank": "ranks"}


@dataclass(frozen=True)
class RuntimeWorkload:
    """One engine configuration, run as reps of ``passes`` passes each.

    A rep starts from a fresh runtime (fresh cache, fresh codec
    baselines) and reset application state. ``iterative`` workloads feed
    ``app.update`` between passes and report the job as one cold pass
    plus ``passes - 1`` warm ones; the others repeat a single-pass job,
    where cold/warm is first/later ``run()`` on one runtime object.
    """

    name: str
    app: str
    units: int
    chunks_per_file: int
    local_fraction: float
    compute: ComputeSpec
    passes: int
    iterative: bool
    warmup_reps: int
    timed_reps: int
    #: Timed set-up builds after one discarded build; more where a build
    #: is short, so that the median is of about the same seconds of work.
    setup_builds: int = 5
    app_params: dict = field(default_factory=dict)
    tuning: MiddlewareTuning = field(default_factory=MiddlewareTuning)
    slave_mode: str = "thread"
    wan: TrafficShaper | None = None
    cache_bytes: int = 0
    prefetch: bool = False
    sync: SyncSpec | None = None

    traced_jobs = 1  # one rep

    def counts(self, scale: Scale) -> tuple[int, int, int]:
        return (
            scale.count(self.warmup_reps),
            scale.count(self.timed_reps, floor=10),
            self.traced_jobs,
        )

    def build(self, seed: int, scale: Scale, **_: Any) -> RuntimeState:
        units = scale.size(self.units)
        # Size-like application parameters (pagerank's page count) shrink
        # with the input.
        params = {k: scale.size(v) for k, v in self.app_params.items()}
        bundle = make_bundle(self.app, units, seed=seed, **params)
        spec = _dataset_spec(
            units, bundle.schema.record_bytes, self.chunks_per_file
        )
        stores = _fresh_stores(self.wan)
        index = build_dataset(
            spec, PlacementSpec(self.local_fraction), bundle.schema,
            bundle.block_fn, stores,
        )
        state = RuntimeState(
            bundle, spec, index, stores, seed,
            initial=getattr(bundle.app, _APP_STATE[self.app]).copy(),
        )
        self._runtime(state)
        return state

    def discard(self, state: RuntimeState) -> None:
        pass

    def _runtime(self, state: RuntimeState) -> CloudBurstingRuntime:
        return CloudBurstingRuntime(
            state.bundle.app,
            state.index,
            state.stores,
            self.compute,
            tuning=self.tuning,
            seed=state.seed,
            cache=ChunkCache(self.cache_bytes) if self.cache_bytes else None,
            prefetch=self.prefetch,
            sync=self.sync,
            slave_mode=self.slave_mode,
        )

    def _chunks(self, state: RuntimeState) -> list[memoryview]:
        """Every chunk, read past the WAN shaper (the oracle is not timed)."""
        cloud = state.stores[CLOUD_SITE]
        shaper, cloud.shaper = cloud.shaper, None
        try:
            return DatasetReader(state.index, state.stores).read_all_chunks()
        finally:
            cloud.shaper = shaper

    def _serial_pass(self, state: RuntimeState, chunks: list[memoryview]) -> Any:
        return run_serial(
            state.bundle.app, chunks,
            units_per_group=self.tuning.units_per_group,
        )

    def oracle(self, state: RuntimeState) -> list[Any]:
        """Pass ``i`` of a serial run over the same chunks, for every ``i``."""
        app = state.bundle.app
        chunks = self._chunks(state)
        if not self.iterative:
            return [self._serial_pass(state, chunks)] * self.passes
        values = []
        for _ in range(self.passes):
            values.append(self._serial_pass(state, chunks))
            app.update(values[-1])
        app.update(state.initial)
        return values

    def measure(
        self,
        state: RuntimeState,
        oracle: list[Any],
        reps: int,
        calib: Calibration,
        mark: Callable[[str], None] = lambda run: None,
    ) -> list[PassSample]:
        samples = []
        before = calib.read()
        for rep in range(reps):
            block = self._rep(state, oracle, rep, mark)
            after = calib.read()
            for sample in block:
                sample.factor = calib.factor(before, after)
            samples += block
            before = after
        return samples

    def _rep(
        self, state: RuntimeState, oracle: list[Any], rep: int,
        mark: Callable[[str], None],
    ) -> list[PassSample]:
        app = state.bundle.app
        runtime = self._runtime(state)
        app.update(state.initial)
        block = []
        for i in range(self.passes):
            mark(f"rep{rep}" if self.iterative else f"rep{rep}.pass{i}")
            started = time.perf_counter()
            try:
                result = runtime.run()
            except Exception as exc:  # noqa: BLE001 - a failed operation
                seconds = time.perf_counter() - started
                _report_failure(f"{self.name} rep {rep} pass {i}", exc)
                block.append(PassSample(i, seconds, False, None))
                break
            seconds = time.perf_counter() - started
            ok = same_value(oracle[i], result.value, state.spec.total_units)
            if not ok:
                _report_failure(f"{self.name} rep {rep} pass {i}", None)
            block.append(PassSample(i, seconds, ok, result.telemetry))
            if self.iterative:
                # Feed the oracle's value, not the runtime's own: pass i of
                # every rep then has exactly the oracle's inputs, so last-ulp
                # differences cannot compound across passes.
                app.update(oracle[i])
        return block

    def _seconds(self, samples: list[PassSample], calibrated: bool) -> list[float]:
        """Each pass's reported time. The cold pass of a workload with a
        shaped store stays in wall seconds either way: most of it is the
        modelled WAN wait, which runs in real time whatever the CPU does."""
        return [
            s.seconds * s.factor
            if calibrated and not (self.wan is not None and s.index == 0)
            else s.seconds
            for s in samples
        ]

    def job_mb(self, state: RuntimeState) -> float:
        passes = self.passes if self.iterative else 1
        return passes * state.spec.total_bytes / MB

    def end_to_end(
        self, state: RuntimeState, samples: list[PassSample], calibrated: bool
    ) -> Metrics:
        seconds = self._seconds(samples, calibrated)
        cold = [t for t, s in zip(seconds, samples) if s.index == 0]
        warm = [t for t, s in zip(seconds, samples) if s.index > 0]
        if self.iterative:
            makespan = statistics.median(cold) + (self.passes - 1) * (
                statistics.median(warm)
            )
        else:
            makespan = statistics.median(seconds)
        return {
            "makespan_s": (makespan, len(seconds)),
            "throughput_mb_s": (self.job_mb(state) / makespan, len(seconds)),
            "cold_pass_s": _median(cold),
            "warm_pass_s": _median(warm),
            "runs_per_s": (1.0 / makespan, len(seconds)),
            "latency_p50_ms": (1e3 * statistics.median(seconds), len(seconds)),
            # A pooled p95 of 28-66 passes has two or three samples beyond
            # it; the median over reps of the rep's own p95 (close to its
            # slowest pass) is the tail of a typical job.
            "latency_p95_ms": _median([
                1e3 * float(np.percentile(seconds[i : i + self.passes], 95))
                for i in range(0, len(seconds) - self.passes + 1, self.passes)
            ]),
        }

    def per_layer(
        self,
        state: RuntimeState,
        oracle: list[Any],
        samples: list[PassSample],
        jobs: int,
        tracer: Tracer,
        scale: Scale,
        calib: Calibration,
    ) -> Metrics:
        chunks = self._chunks(state)
        kernel = statistics.median(
            _timed(lambda: self._serial_pass(state, chunks))[0]
            for _ in range(ISOLATED_SAMPLES)
        )
        build = _median([
            _timed(lambda: build_dataset(
                state.spec, PlacementSpec(self.local_fraction),
                state.bundle.schema, state.bundle.block_fn, _fresh_stores(),
            ))[0]
            for _ in range(ISOLATED_SAMPLES)
        ])
        with tracer.installed():
            traced = self.measure(state, oracle, jobs, calib, mark=tracer.mark)
        passes = self.passes if self.iterative else 1
        out = layer_metrics(
            tracer.spans,
            jobs=len(traced) // passes,
            slaves=self.compute.total_cores,
            telemetries=[s.telemetry for s in traced if s.telemetry],
            job_seconds=sum(s.seconds for s in traced),
            untraced_job_seconds=self.end_to_end(state, samples, False)[
                "makespan_s"
            ][0],
            kernel_seconds=kernel * passes,
            input_mb=self.job_mb(state),
        )
        out["data.build_dataset_s"] = build
        # The contract wants every per-layer metric from every workload:
        # layers a workload does not execute read 0 with n = 0.
        for name in _SERVICE_ONLY:
            out[name] = (0.0, 0)
        return out


# -- service_burst -------------------------------------------------------------


@dataclass
class ServiceState:
    service: JobService
    specs: dict[str, DatasetSpec]
    config: RunConfig
    seed: int
    #: Runs per block of the closed loop, and per ``runs_per_s`` window.
    window: int


@dataclass
class RunSample:
    #: Runs the load generator kept outstanding when this one was submitted.
    outstanding: int
    submitted_at: float
    done_at: float
    queue_wait: float
    exec: float
    result_lag: float
    input_bytes: int
    ok: bool
    telemetry: Any
    #: The block (a window, or the one-at-a-time runs before it) this run
    #: belongs to, and the block's calibration factor.
    block: int = 0
    factor: float = 1.0

    @property
    def latency(self) -> float:
        return self.done_at - self.submitted_at


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of small runs through ``JobService``: one
    load-generator thread, results consumed in submission order, two runs
    outstanding, in windows that drain before the next starts. Before
    each window a few runs go through one at a time (the service
    otherwise idle); spread over the whole region like this they meet the
    same machine states as the loop's runs do."""

    name: str = "service_burst"
    apps: tuple[str, ...] = ("histogram", "wordcount", "knn", "kmeans")
    units: int = 16384
    chunks_per_file: int = 4
    workers: int = 2
    outstanding: int = 2
    warmup_runs: int = 50
    timed_runs: int = 650
    setup_builds: int = 15
    #: One-outstanding runs before each window, as a share of its runs.
    alone_share: float = 0.08
    window: int = 50
    traced_runs: int = 100
    direct_rounds: int = 5

    def counts(self, scale: Scale) -> tuple[int, int, int]:
        return (
            scale.count(self.warmup_runs),
            scale.count(self.timed_runs, floor=10 * self.window),
            scale.count(self.traced_runs),
        )

    def _config(self, seed: int, mode: str = "runtime") -> RunConfig:
        return RunConfig(
            mode=mode,
            placement=PlacementSpec(0.5),
            compute=ComputeSpec(1, 1),
            seed=seed,
        )

    def _specs(self, seed: int, scale: Scale) -> dict[str, DatasetSpec]:
        units = scale.size(self.units)
        return {
            app: _dataset_spec(
                units,
                make_bundle(app, units, seed=seed).schema.record_bytes,
                self.chunks_per_file,
            )
            for app in self.apps
        }

    def build(
        self, seed: int, scale: Scale, executor: Callable = run_direct
    ) -> ServiceState:
        specs = self._specs(seed, scale)
        config = self._config(seed)
        service = JobService(workers=self.workers, executor=executor)
        service.register(TenantSpec("a", weight=3))
        service.register(TenantSpec("b", weight=1))
        for i, app in enumerate(self.apps):
            handle = service.submit(app, specs[app], config, tenant="ab"[i % 2])
            handle.result(timeout=RESULT_TIMEOUT)
        window = max(2, scale.size(self.window)) if scale.smoke else self.window
        return ServiceState(service, specs, config, seed, window)

    def discard(self, state: ServiceState) -> None:
        state.service.shutdown()

    def oracle(self, state: ServiceState) -> dict[str, Any]:
        serial = self._config(state.seed, mode="serial")
        return {
            app: run_direct(app, state.specs[app], serial).value
            for app in self.apps
        }

    def measure(
        self,
        state: ServiceState,
        oracle: dict[str, Any],
        runs: int,
        calib: Calibration,
        mark: Callable[[str], None] = lambda run: None,
        alone: bool = True,
    ) -> list[RunSample]:
        samples: list[RunSample] = []
        blocks = 0
        before = calib.read()
        for n in _split(runs, state.window):
            # The one-at-a-time runs share their window's pair of readings:
            # 60 ms of runs between two 20 ms readings would report the
            # readings' noise.
            parts = [(n, self.outstanding)]
            if alone:
                parts.insert(0, (max(1, round(n * self.alone_share)), 1))
            first = len(samples)
            for size, outstanding in parts:
                block = self._closed_loop(
                    state, oracle, len(samples), size, outstanding, mark
                )
                for sample in block:
                    sample.block = blocks
                blocks += 1
                samples += block
            after = calib.read()
            for sample in samples[first:]:
                sample.factor = calib.factor(before, after)
            before = after
        return samples

    def _closed_loop(
        self,
        state: ServiceState,
        oracle: dict[str, Any],
        first: int,
        runs: int,
        outstanding: int,
        mark: Callable[[str], None],
    ) -> list[RunSample]:
        # The run id travels as the config's name; built before the loop so
        # the load generator only submits and waits.
        configs = [
            dataclasses.replace(state.config, name=f"run{first + i:05d}")
            for i in range(runs)
        ]
        pending: deque = deque()
        samples = []

        def submit() -> None:
            i = len(samples) + len(pending)
            app = self.apps[(first + i) % len(self.apps)]
            mark(configs[i].name)
            submitted = time.monotonic()
            handle = state.service.submit(
                app, state.specs[app], configs[i], tenant="ab"[i % 2]
            )
            pending.append((app, submitted, handle))

        for _ in range(min(outstanding, runs)):
            submit()
        while pending:
            app, submitted, handle = pending.popleft()
            sample = RunSample(
                outstanding, submitted, 0.0, 0.0, 0.0, 0.0,
                state.specs[app].total_bytes, False, None,
            )
            try:
                result = handle.result(timeout=RESULT_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                sample.done_at = time.monotonic()
                _report_failure(f"{self.name} {handle.run_id} ({app})", exc)
            else:
                # The service stamps runs with time.monotonic too.
                sample.done_at = time.monotonic()
                status = handle.status()
                sample.queue_wait = status.started_at - status.submitted_at
                sample.exec = status.finished_at - status.started_at
                sample.result_lag = sample.done_at - status.finished_at
                sample.telemetry = result.telemetry
                sample.ok = same_value(
                    oracle[app], result.value, state.specs[app].total_units
                )
                if not sample.ok:
                    _report_failure(f"{self.name} {handle.run_id} ({app})", None)
            samples.append(sample)
            if len(samples) + len(pending) < runs:
                submit()
        return samples

    def end_to_end(
        self, state: ServiceState, samples: list[RunSample], calibrated: bool
    ) -> Metrics:
        """Each window's own statistics, then the lower quartile over the
        windows (the upper one for the rate), not the median: what disturbs
        a closed loop of 30 ms runs is stalls that come in episodes of
        seconds, and the quieter windows of a run repeat where its typical
        window does not (README, "Calibrated seconds")."""
        blocks: dict[int, list[RunSample]] = {}
        for sample in samples:
            blocks.setdefault(sample.block, []).append(sample)
        alone = [b for b in blocks.values() if b[0].outstanding == 1]
        windows = [
            b for b in blocks.values()
            if b[0].outstanding > 1 and len(b) == state.window
        ]

        def over(some: list[list[RunSample]], of: Callable) -> tuple[float, int]:
            return _lower_quartile([
                of(b) * (b[0].factor if calibrated else 1.0) for b in some
            ])

        def p50(b: list[RunSample]) -> float:
            return statistics.median(s.latency for s in b)

        def p95(b: list[RunSample]) -> float:
            return float(np.percentile([s.latency for s in b], 95))

        def per_run(b: list[RunSample]) -> float:
            return (b[-1].done_at - b[0].submitted_at) / len(b)

        def engine(b: list[RunSample]) -> float:
            return statistics.median(s.exec for s in b)

        latency, n = over(windows, p50)
        runs_per_s = 1.0 / over(windows, per_run)[0]
        mean_mb = statistics.fmean(
            s.input_bytes for b in windows for s in b
        ) / MB
        return {
            "makespan_s": (latency, n),
            "throughput_mb_s": (mean_mb * runs_per_s, n),
            "cold_pass_s": over(alone, engine),
            "warm_pass_s": over(windows, engine),
            "runs_per_s": (runs_per_s, n),
            "latency_p50_ms": (1e3 * latency, n),
            "latency_p95_ms": (1e3 * over(windows, p95)[0], n),
        }

    def per_layer(
        self,
        state: ServiceState,
        oracle: dict[str, Any],
        samples: list[RunSample],
        jobs: int,
        tracer: Tracer,
        scale: Scale,
        calib: Calibration,
    ) -> Metrics:
        samples = [s for s in samples if s.outstanding > 1]
        units = scale.size(self.units)
        builds, kernels = [], []
        for app in self.apps:
            bundle = make_bundle(app, units, seed=state.seed)
            for _ in range(ISOLATED_SAMPLES):
                stores = _fresh_stores()
                seconds, index = _timed(lambda: build_dataset(
                    state.specs[app], state.config.placement, bundle.schema,
                    bundle.block_fn, stores,
                ))
                builds.append(seconds)
            chunks = DatasetReader(index, stores).read_all_chunks()
            kernels.append(statistics.median(
                _timed(lambda: run_serial(bundle.app, chunks))[0]
                for _ in range(ISOLATED_SAMPLES)
            ))
        direct = [
            _timed(lambda: run_direct(app, state.specs[app], state.config))[0]
            for _ in range(scale.count(self.direct_rounds))
            for app in self.apps
        ]

        def executor(app, dataset, config):
            # Service worker threads outlive runs: name the run they are on.
            tracer.mark(config.name)
            return run_direct(app, dataset, config)

        with tracer.installed():
            traced_state = self.build(state.seed, scale, executor=executor)
            tracer.spans.clear()  # the build's four first runs are not jobs
            try:
                traced = self.measure(
                    traced_state, oracle, jobs, calib,
                    mark=tracer.mark, alone=False,
                )
            finally:
                self.discard(traced_state)
        latency = statistics.median(s.latency for s in samples)
        exec_s = statistics.median(s.exec for s in samples)
        out = layer_metrics(
            tracer.spans,
            jobs=len(traced),
            slaves=state.config.compute.total_cores,
            telemetries=[s.telemetry for s in traced if s.telemetry],
            job_seconds=sum(s.latency for s in traced),
            untraced_job_seconds=latency,
            kernel_seconds=statistics.fmean(kernels),
            input_mb=statistics.fmean(s.input_bytes for s in samples) / MB,
        )
        out["data.build_dataset_s"] = _median(builds)
        out["service.queue_wait_s"] = _median([s.queue_wait for s in samples])
        out["service.exec_s"] = (exec_s, len(samples))
        out["service.result_lag_s"] = _median([s.result_lag for s in samples])
        out["service.ceremony_share"] = (1.0 - exec_s / latency, len(samples))
        out["facade.run_direct_s"] = _median(direct)
        out["facade.build_share"] = (
            statistics.median(builds) / statistics.median(direct), len(direct)
        )
        return out


_KMEANS_CPU = dict(
    app="kmeans", units=4_194_304, chunks_per_file=8, local_fraction=1.0,
    compute=ComputeSpec(2, 0), passes=2, iterative=False,
    warmup_reps=1, timed_reps=14,
    tuning=MiddlewareTuning(allow_stealing=False),
)

WORKLOADS = {
    w.name: w
    for w in (
        RuntimeWorkload(name="kmeans_cpu_thread", **_KMEANS_CPU),
        RuntimeWorkload(
            name="kmeans_cpu_process", slave_mode="process", **_KMEANS_CPU
        ),
        RuntimeWorkload(
            name="kmeans_wan_iter", app="kmeans", units=1_048_576,
            chunks_per_file=8, local_fraction=0.0, compute=ComputeSpec(2, 0),
            passes=4, iterative=True, warmup_reps=1, timed_reps=14,
            setup_builds=15,
            wan=TrafficShaper(request_latency=0.010, bandwidth=10e6),
            cache_bytes=256 * 1024 * 1024, prefetch=True,
        ),
        RuntimeWorkload(
            name="pagerank_sync", app="pagerank", units=2_097_152,
            app_params={"n_pages": 262_144}, chunks_per_file=4,
            local_fraction=0.5, compute=ComputeSpec(1, 1),
            passes=6, iterative=True, warmup_reps=1, timed_reps=11,
            setup_builds=11,
            sync=SyncSpec(encoding="delta", compress="zlib", topology="tree"),
        ),
        ServiceWorkload(),
    )
}


def run_workload(
    name: str, seed: int, scale: Scale, trace: bool, trace_out: str | None
) -> dict:
    """Run one workload's protocol in this process; returns its result.

    Order: one discarded build, the timed builds, the serial oracle,
    warm-up, ``gc.collect()``, the timed region, peak RSS — and only then
    the traced pass.
    """
    started = time.perf_counter()
    workload = WORKLOADS[name]
    calib = Calibration()
    warmup, timed, traced = workload.counts(scale)
    setup, setup_raw, state = [], [], None
    before = calib.read()
    for i in range(1 + scale.count(workload.setup_builds, floor=5)):
        if state is not None:
            workload.discard(state)
            state = None
            gc.collect()  # so peak RSS does not depend on when a cycle dies
            before = calib.read()
        seconds, state = _timed(lambda: workload.build(seed, scale))
        if i:
            setup_raw.append(seconds)
            setup.append(seconds * calib.factor(before, calib.read()))
    try:
        oracle = workload.oracle(state)
        workload.measure(state, oracle, warmup, calib)
        gc.collect()
        samples = workload.measure(state, oracle, timed, calib)
        rss_mb = _peak_rss_mb()
        readings = list(calib.readings)
        sections = {}
        for key, calibrated in (("end_to_end", True), ("end_to_end_raw", False)):
            metrics = workload.end_to_end(state, samples, calibrated)
            metrics["setup_s"] = _median(setup if calibrated else setup_raw)
            metrics["peak_rss_mb"] = (rss_mb, 1)
            sections[key] = metrics
        per_layer = None
        if trace:
            tracer = Tracer()
            per_layer = workload.per_layer(
                state, oracle, samples, traced, tracer, scale, calib
            )
            if trace_out:
                tracer.dump(trace_out)
    finally:
        workload.discard(state)
    failed = sum(not s.ok for s in samples)

    def plain(found: Metrics | None) -> dict | None:
        if found is None:
            return None
        return {k: {"value": float(v), "n": int(n)} for k, (v, n) in found.items()}

    return {
        "workload": name,
        "seed": seed,
        "seconds": scale.seconds,
        "smoke": scale.smoke,
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": plain(sections["end_to_end"]),
        "end_to_end_raw": plain(sections["end_to_end_raw"]),
        "per_layer": plain(per_layer),
        "calibration": {
            "reference_s": Calibration.REFERENCE_S,
            "median_s": statistics.median(readings),
            "n": len(readings),
        },
        "wall_s": time.perf_counter() - started,
    }
