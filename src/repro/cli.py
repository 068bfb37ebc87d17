"""Command-line interface.

`python -m repro <command>` drives the simulator and the harness without
writing any code:

.. code-block:: console

    python -m repro apps                      # list applications
    python -m repro simulate knn env-33/67    # one configuration
    python -m repro paper figure3 --app pagerank   # one sub-figure sweep
    python -m repro paper figure4 --app kmeans
    python -m repro paper table1              # all apps
    python -m repro paper table2
    python -m repro paper cost --app knn      # dollar costs per env
    python -m repro scorecard                 # grade the headline claims

`paper NAME` prints one artifact of ``repro.bench.artifacts.ARTIFACTS``
and its graded claims. ``--scale`` shrinks the dataset (same 960-job
structure) for quick looks; ``--seed`` reseeds the jitter models.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from . import facade, obs
from .apps import available_apps, make_bundle
from .apps.base import get_profile
from .bench.artifacts import ARTIFACTS, evaluate_claims, render_scorecard
from .bench.configs import ENV_NAMES, env_config
from .bench.reporting import render_table
from .config import CLOUD_SITE, LOCAL_SITE, ComputeSpec, DatasetSpec, PlacementSpec
from .core.index import DataIndex
from .core.sync import TOPOLOGIES, SyncSpec
from .core.wire import COMPRESSIONS, ENCODINGS
from .data.dataset import build_dataset
from .errors import ConfigurationError, ReproError
from .facade import RunConfig
from .options import CacheOptions, MonitorOptions, ResilienceOptions, ScaleOptions
from .resilience import RetryPolicy
from .runtime.driver import SLAVE_MODES
from .service import JobService, ServiceJournal, TenantSpec
from .sim.multisite import MultiSiteSimulation, load_multisite_config
from .sim.simulation import CloudBurstSimulation, simulate
from .storage.localfs import LocalStorage
from .units import fmt_seconds

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Framework for Data-Intensive Computing with "
            "Cloud Bursting' (CLUSTER 2011)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (1.0 = the paper's 120 GB)",
    )
    parser.add_argument("--seed", type=int, default=2011, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list registered applications")

    p = sub.add_parser("simulate", help="simulate one configuration")
    p.add_argument("app")
    p.add_argument("env", choices=ENV_NAMES)
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON (for scripting)")

    p = sub.add_parser(
        "paper", help="regenerate one paper artifact and grade its claims"
    )
    p.add_argument("name", choices=ARTIFACTS)
    p.add_argument("--app", help="run this app only (default: the apps the "
                   "artifact's bench runs)")

    sub.add_parser(
        "scorecard", help="run the full evaluation and grade every claim"
    )

    p = sub.add_parser(
        "generate", help="materialize a synthetic dataset + index on disk"
    )
    p.add_argument("app")
    p.add_argument("--out", required=True, help="output directory")
    _add_run_flags(p, "placement", units=65536)
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--chunks-per-file", type=int, default=4)

    p = sub.add_parser(
        "run", help="execute an app over a generated dataset (real runtime)"
    )
    p.add_argument("dataset", help="directory produced by `generate`")
    _add_run_flags(p, "compute", "cache", "slave_mode", "iterations", "sync",
                   "resilience", "scale")

    p = sub.add_parser(
        "trace",
        help="trace a run (simulated, or real with --runtime) and render "
        "a Gantt chart",
    )
    p.add_argument("app")
    p.add_argument("env", nargs="?", choices=ENV_NAMES,
                   help="simulator environment (omit with --runtime)")
    p.add_argument("--runtime", action="store_true",
                   help="trace a real CloudBurstingRuntime run instead of "
                   "the simulator")
    _add_run_flags(p, "compute", "placement", units=2048)
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--critical-path", action="store_true",
                   help="print the causal critical path through the makespan")
    p.add_argument("--out", metavar="TRACE.jsonl",
                   help="also write the event stream as JSONL")
    p.add_argument("--perfetto", metavar="TRACE.json",
                   help="also write a Perfetto/Chrome trace_event file")

    p = sub.add_parser(
        "report", help="render the run report from a JSONL trace file"
    )
    p.add_argument("trace", help="JSONL file written by `trace --out`")
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--critical-path", action="store_true",
                   help="print the causal critical path through the makespan")
    p.add_argument("--perfetto", metavar="TRACE.json",
                   help="also convert the trace to Perfetto JSON")

    p = sub.add_parser(
        "watch",
        help="execute an app in the real runtime with a live top-style "
        "health feed (pool depth, utilization, cache, ETA)",
    )
    p.add_argument("app")
    p.add_argument("--interval", type=float, default=0.2, metavar="SECONDS",
                   help="sampling interval for the health feed")
    _add_run_flags(p, "compute", "placement", "iterations", "scale", units=8192)

    p = sub.add_parser(
        "submit",
        help="submit one or more runs to a job service and execute them "
        "in fair-share order (multi-tenant scheduling demo; with "
        "--journal, `repro status`/`repro cancel` see the runs from "
        "other terminals)",
    )
    p.add_argument(
        "apps", nargs="+", metavar="APP",
        help="app registry keys; prefix with 'tenant:' to submit under a "
        "named tenant (e.g. analytics:kmeans adhoc:wordcount)",
    )
    _add_run_flags(p, "compute", "placement", units=4096)
    p.add_argument(
        "--weight", action="append", default=[], metavar="TENANT=W",
        help="fair-share weight for a tenant (repeatable; default 1)",
    )
    p.add_argument("--priority", type=int, default=0,
                   help="priority within each tenant (higher first)")
    p.add_argument("--workers", type=int, default=0,
                   help="service dispatcher threads (0 = inline)")
    p.add_argument("--journal", metavar="STATE.json",
                   help="persist run state for `repro status` / "
                   "`repro cancel`")

    p = sub.add_parser(
        "status",
        help="report runs recorded in a service journal file",
    )
    p.add_argument("journal", metavar="STATE.json",
                   help="journal written by `repro submit --journal` or a "
                   "JobService(journal=...)")
    p.add_argument("run_id", nargs="?",
                   help="show one run in detail instead of the table")

    p = sub.add_parser(
        "cancel",
        help="file a cancel request for a queued run in a service journal "
        "(honored at dispatch; running runs are never preempted)",
    )
    p.add_argument("journal", metavar="STATE.json")
    p.add_argument("run_id")

    p = sub.add_parser(
        "multisite", help="simulate an N-site experiment from a JSON config"
    )
    p.add_argument("config", help="path to a multisite JSON document")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    return parser


class _Flag(NamedTuple):
    """One run flag and the ``RunConfig`` field it sets. The argparse
    default, the type and ``store_true`` come from that field."""

    flag: str
    path: str | None  # dotted, from RunConfig; None: not a config field
    help: str | None = None
    metavar: str | None = None
    type: type | None = None  # for fields whose default is None
    choices: tuple[str, ...] | None = None  # the tuple the spec validates against

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


#: Every flag of the commands that execute the runtime (`run`, `trace
#: --runtime`, `watch`, `submit`), in --help order; `generate` takes its
#: dataset's size and placement from here too. A command installs the
#: families it supports with :func:`_add_run_flags`; :func:`_run_config`
#: carries them to the ``RunConfig`` by ``path``.
_RUN_FLAGS = (
    # Sizes the dataset (in memory, or on disk for `generate`); each
    # command passes its own default.
    _Flag("--units", None, "total data units in the dataset", type=int),
    _Flag("--local-cores", "compute.local_cores"),
    _Flag("--cloud-cores", "compute.cloud_cores"),
    _Flag("--local-fraction", "placement.local_fraction",
          "fraction of data stored locally"),
    _Flag("--cache-bytes", "cache.bytes",
          "chunk-cache byte budget for cross-site reads (0 = no cache; "
          "iterative passes then refetch nothing already seen)", "N"),
    _Flag("--prefetch", "cache.prefetch",
          "overlap each slave's next chunk fetches with its current "
          "reduction (a self-sizing window of 1-8 jobs)"),
    _Flag("--slave-mode", "slave_mode",
          "slave substrate: 'thread' (in-process, default) or 'process' "
          "(decode + local reduction in worker processes over shared memory "
          "— GIL-free compute for CPU-bound apps)", choices=SLAVE_MODES),
    _Flag("--iterations", "iterations",
          "run N passes, feeding each result back through the app's "
          "update() hook (kmeans, pagerank)", "N"),
    # Global-reduction sync knobs (wire encoding + aggregation topology).
    _Flag("--sync-encoding", "sync.encoding",
          "reduction-object wire encoding (delta ships the smallest of its "
          "diff, sparse and dense; diffs need --iterations > 1)", choices=ENCODINGS),
    _Flag("--sync-compress", "sync.compress",
          "compress reduction-object uploads on the wire",
          choices=COMPRESSIONS),
    _Flag("--sync-topology", "sync.topology",
          "aggregation shape for cluster uploads (star = everyone to the "
          "head; tree relays through other masters)", choices=TOPOLOGIES),
    _Flag("--sync-stream", "sync.stream",
          "merge partial reduction objects as they arrive instead of "
          "behind the end-of-pass barrier"),
    _Flag("--sync-watermark", "sync.watermark",
          "with --sync-stream, slaves flush a partial every N jobs", "N"),
    # Resilience knobs.
    _Flag("--faults", "resilience.faults",
          "fault-injection spec, e.g. 'transient=0.1,latency=0.05:0.02,"
          "seed=7' (see docs/RESILIENCE.md for the grammar)", "SPEC", str),
    _Flag("--retries", "resilience.retry.max_attempts",
          "max storage attempts per sub-range (default: 4 when --faults "
          "is given, else no retry layer)", "N", int),
    _Flag("--hedge-after", "resilience.retry.hedge_after",
          "race a duplicate request against any sub-range read slower "
          "than this (off by default)", "SECONDS", float),
    # Elastic-bursting knobs.
    _Flag("--autoscale", "scale.autoscale",
          "grow/shrink the cloud slave fleet mid-run to hit --deadline "
          "and --budget (see docs/SCALING.md)"),
    _Flag("--deadline", "scale.deadline",
          "with --autoscale, target wall-clock deadline the controller "
          "scales toward", "SECONDS", float),
    _Flag("--budget", "scale.budget",
          "with --autoscale, hard cloud-spend ceiling the controller "
          "never exceeds", "DOLLARS", float),
    _Flag("--min-slaves", "scale.min_slaves",
          "autoscaler floor for the cloud fleet (default 1)", "N"),
    _Flag("--max-slaves", "scale.max_slaves",
          "autoscaler ceiling for the cloud fleet (default 8)", "N"),
    _Flag("--revoke", "scale.revocation",
          "spot-revocation spec for cloud slaves, e.g. "
          "'rate=0.05,seed=7,provision=0.1' (results stay bit-identical; "
          "see docs/SCALING.md for the grammar)", "SPEC", str),
)


def _field_default(path: str) -> Any:
    """What a default ``RunConfig`` holds at a dotted path (``None`` below
    a family that is absent by default, as ``resilience.retry`` is)."""
    head, *rest = path.split(".")
    field = RunConfig.__dataclass_fields__[head]
    value = field.default_factory() if field.default is MISSING else field.default
    for name in rest:
        value = None if value is None else getattr(value, name)
    return value


def _add_run_flags(
    parser: argparse.ArgumentParser, *families: str, **own: Any
) -> None:
    """Install the :data:`_RUN_FLAGS` rows under the named ``RunConfig``
    fields, and those `own` gives a default of the command's own."""
    for row in _RUN_FLAGS:
        if row.dest in own:
            default = own[row.dest]
        elif row.path and row.path.partition(".")[0] in families:
            default = _field_default(row.path)
        else:
            continue
        if isinstance(default, bool):
            parser.add_argument(row.flag, action="store_true", help=row.help)
        else:
            parser.add_argument(
                row.flag, type=row.type or type(default), default=default,
                metavar=row.metavar, choices=row.choices, help=row.help,
            )


def _run_config(args: argparse.Namespace, **extra: Any) -> RunConfig:
    """The ``RunConfig`` a runtime command's flags spell (`extra` carries
    what is not a flag: hooks, the run name). A flag the command does not
    have reads as its field's default."""

    def fields(family: str) -> dict[str, Any]:
        found = {}
        for row in _RUN_FLAGS:
            parent, _, name = (row.path or "").rpartition(".")
            if name and parent == family:
                found[name] = getattr(args, row.dest, _field_default(row.path))
        return found

    scale = fields("scale")
    if not scale["autoscale"] and not scale["revocation"]:
        if scale["deadline"] is not None or scale["budget"] is not None:
            raise ConfigurationError(
                "--deadline/--budget are autoscaler targets; add --autoscale"
            )
        scale = {}
    # No retry layer unless asked for; an unset knob keeps the policy's own.
    retry = {k: v for k, v in fields("resilience.retry").items() if v is not None}
    return RunConfig(
        mode="runtime",
        placement=PlacementSpec(**fields("placement")),
        compute=ComputeSpec(**fields("compute")),
        seed=args.seed,
        cache=CacheOptions(**fields("cache")),
        sync=SyncSpec(**fields("sync")),
        resilience=ResilienceOptions(
            **fields("resilience"), retry=RetryPolicy(**retry) if retry else None
        ),
        scale=ScaleOptions(**scale),
        **fields(""),
        **extra,
    )


def _cmd_apps(args: argparse.Namespace) -> None:
    rows = []
    for key in available_apps():
        profile = get_profile(key)
        rows.append((key, profile.record_bytes, profile.robj_bytes,
                     profile.description))
    print(render_table(("app", "record B", "robj B", "description"), rows))


def _cluster_table(report, label: str, idle: bool = False) -> str:
    """A report's per-cluster breakdown (either engine's), each row keyed by
    ``label`` — the cluster's name or its site — optionally with idle time."""
    rows = [
        (c.name if label == "cluster" else c.site, c.slaves, c.jobs_processed,
         c.jobs_stolen, fmt_seconds(c.mean_processing), fmt_seconds(c.mean_retrieval),
         fmt_seconds(c.sync), *([fmt_seconds(c.idle)] if idle else []))
        for c in report.clusters.values()
    ]
    headers = (label, "slaves", "jobs", "stolen", "proc", "retr", "sync")
    return render_table(headers + (("idle",) if idle else ()), rows)


def _cmd_simulate(args: argparse.Namespace) -> None:
    config = env_config(args.app, args.env, scale=args.scale, seed=args.seed)
    report = simulate(config)
    if args.json:
        print(report.to_json())
        return
    print(config.describe())
    print(f"makespan: {fmt_seconds(report.makespan)} s")
    print(f"global reduction: {fmt_seconds(report.global_reduction)} s")
    print(_cluster_table(report, "cluster", idle=True))


def _cmd_paper(args: argparse.Namespace) -> None:
    artifact = ARTIFACTS[args.name]
    results = artifact.results(
        (args.app,) if args.app else None, scale=args.scale, seed=args.seed
    )
    print(artifact.render(results))
    print()
    print(render_scorecard(artifact.grade(results), title=artifact.name))


def _cmd_scorecard(args: argparse.Namespace) -> None:
    claims = evaluate_claims(scale=args.scale, seed=args.seed)
    print(render_scorecard(claims))


_DATASET_META = "dataset.json"


def _dataset(app: str, args: argparse.Namespace, files=4, chunks_per_file=4):
    """`app`'s bundle and the ``DatasetSpec`` of ``--units`` records in
    `files` x `chunks_per_file` chunks (4 x 4 for the in-memory datasets
    `trace --runtime`, `watch` and `submit` run over)."""
    chunks = files * chunks_per_file
    if args.units % chunks != 0:
        raise ConfigurationError(
            f"--units must be divisible by files*chunks ({chunks})"
        )
    bundle = make_bundle(app, args.units, seed=args.seed)
    record = bundle.schema.record_bytes
    return bundle, DatasetSpec(
        total_bytes=args.units * record,
        num_files=files,
        chunk_bytes=(args.units // chunks) * record,
        record_bytes=record,
    )


def _cmd_generate(args: argparse.Namespace) -> None:
    bundle, spec = _dataset(args.app, args, args.files, args.chunks_per_file)
    out = Path(args.out)
    stores = {
        LOCAL_SITE: LocalStorage(out / "local"),
        CLOUD_SITE: LocalStorage(out / "cloud"),
    }
    index = build_dataset(
        spec, PlacementSpec(args.local_fraction), bundle.schema,
        bundle.block_fn, stores,
    )
    index.save(out / "index.json")
    (out / _DATASET_META).write_text(
        json.dumps(
            {
                "app": args.app,
                "units": args.units,
                "seed": args.seed,
                "total_bytes": spec.total_bytes,
            },
            indent=2,
        )
    )
    print(f"wrote {spec.num_chunks} chunks ({spec.total_bytes} bytes) to {out}")
    print(f"index: {out / 'index.json'}")


def _cmd_run(args: argparse.Namespace) -> None:
    root = Path(args.dataset)
    meta_path = root / _DATASET_META
    if not meta_path.is_file():
        raise ConfigurationError(
            f"{root} does not look like a generated dataset (no {_DATASET_META})"
        )
    config = _run_config(args)
    meta = json.loads(meta_path.read_text())
    bundle = make_bundle(meta["app"], meta["units"], seed=meta["seed"])
    index = DataIndex.load(root / "index.json")
    stores = {
        LOCAL_SITE: LocalStorage(root / "local"),
        CLOUD_SITE: LocalStorage(root / "cloud"),
    }
    result = facade.execute_runtime(bundle, index, stores, config)
    value, t = result.value, result.telemetry
    print(f"app: {meta['app']}  wall: {result.wall_seconds:.3f}s"
          + (f"  passes: {result.passes}" if config.iterations > 1 else ""))
    if isinstance(value, np.ndarray):
        print(f"result: ndarray shape={value.shape} "
              f"head={np.asarray(value).ravel()[:4]}")
    elif isinstance(value, dict):
        head = sorted(value.items())[:4]
        print(f"result: dict of {len(value)} entries, head={head}")
    else:
        seq = list(value)[:4] if hasattr(value, "__iter__") else value
        print(f"result: {seq}")
    print(_cluster_table(t, "cluster", idle=True))
    print(
        f"data path ({config.slave_mode} slaves): {t.zero_copy_reads} zero-copy "
        f"reads, {t.bytes_copied} bytes copied"
    )
    _print_accounting(result, config)


def _print_accounting(result, config: RunConfig) -> None:
    """One line per option family `config` switched on, and the sync line
    (every runtime pass syncs), from the run's telemetry; every count is a
    whole-run total."""
    t = result.telemetry
    parts = []
    if config.cache.bytes > 0:
        parts.append(
            f"cache: {t.cache_hits} hits / {t.cache_misses} misses, "
            f"{t.bytes_saved} bytes saved, {t.cache_evictions} evictions"
        )
    if config.cache.prefetch:
        parts.append(f"prefetches: {t.prefetches}")
    if parts:
        print("  ".join(parts))
    sync = config.sync
    dense = t.sync_bytes_sent + t.sync_bytes_saved
    saved_pct = 100.0 * t.sync_bytes_saved / dense if dense else 0.0
    print(
        f"sync: {sync.topology}/{sync.encoding}/{sync.compress} "
        f"sent {t.sync_bytes_sent} wire bytes, saved {t.sync_bytes_saved} "
        f"({saved_pct:.1f}% off dense), "
        f"{t.sync_partial_merges} streamed partial merges"
    )
    if config.effective_retry is not None:
        print(
            f"resilience: {t.faults_injected} faults injected, "
            f"{t.retries} retries, {t.hedges} hedges "
            f"({t.hedge_wins} won), {t.timeouts} timeouts, "
            f"{t.circuit_opens} circuit opens"
        )
    scale = config.scale
    if scale.autoscale or scale.revocation is not None:
        targets = []
        if scale.deadline is not None:
            targets.append(f"deadline {scale.deadline}s")
        if scale.budget is not None:
            targets.append(f"budget ${scale.budget:.2f}")
        label = f" ({', '.join(targets)})" if targets else ""
        print(
            f"scaling{label}: {t.slaves_added} slaves added, "
            f"{t.slaves_revoked} revoked, ${t.dollars_spent:.4f} cloud spend"
        )


def _export_trace(trace, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        count = obs.write_jsonl(trace, args.out)
        print(f"\nwrote {count} events to {args.out}")
    if args.perfetto:
        count = obs.write_perfetto(trace, args.perfetto)
        print(f"\nwrote {count} trace events to {args.perfetto} "
              f"(open in https://ui.perfetto.dev)")


def _cmd_trace(args: argparse.Namespace) -> None:
    if args.runtime:
        _trace_runtime(args)
        return
    if args.env is None:
        raise ConfigurationError(
            "trace needs an environment (or --runtime for a real run)"
        )
    trace = obs.EventLog()
    config = env_config(args.app, args.env, scale=args.scale, seed=args.seed)
    report = CloudBurstSimulation(config, trace=trace).run()
    print(f"{config.describe()}\nmakespan {fmt_seconds(report.makespan)} s, "
          f"{len(trace)} trace events\n")
    print(obs.render_gantt(trace, report.makespan, width=args.width))
    util = obs.utilization(trace, report.makespan)
    mean_idle = sum(u["idle"] for u in util.values()) / len(util)
    print(f"\nmean worker idle fraction: {mean_idle * 100:.1f}%")
    if args.critical_path:
        print()
        print(obs.render_critical_path(obs.critical_path(trace, report.makespan)))
    _export_trace(trace, args)


def _trace_runtime(args: argparse.Namespace) -> None:
    trace = obs.EventLog()
    config = _run_config(args, trace=trace, metrics=obs.MetricsRegistry())
    bundle, spec = _dataset(args.app, args)
    telemetry = facade.run(bundle, spec, config).telemetry
    print(f"{args.app} (real runtime, {args.units} units, "
          f"{args.local_cores}+{args.cloud_cores} cores): "
          f"wall {telemetry.wall_seconds:.3f}s, "
          f"{telemetry.total_stolen} jobs stolen\n")
    print(obs.render_report(
        trace, width=args.width, show_critical_path=args.critical_path
    ))
    _export_trace(trace, args)


def _cmd_report(args: argparse.Namespace) -> None:
    trace = obs.read_jsonl(args.trace)
    print(obs.render_report(
        trace, width=args.width, show_critical_path=args.critical_path
    ))
    _export_trace(trace, args)


def _sample_line(sample) -> str:
    """One top-style feed line for a :class:`~repro.obs.live.RunSample`."""
    eta = f"{sample.eta_seconds:6.1f}s" if sample.eta_seconds is not None else "     --"
    return (
        f"{sample.time:7.2f}s  {sample.progress * 100:5.1f}%  "
        f"{sample.jobs_done:>5}/{sample.jobs_total:<5}  "
        f"pool {sample.pool_depth:>4}  run {sample.in_flight:>3}  "
        f"wkr {sample.workers:>3}  "
        f"steal {sample.steals:>3}  util {sample.utilization * 100:5.1f}%  "
        f"cache {sample.cache_hit_ratio * 100:5.1f}%  eta {eta}"
    )


def _cmd_watch(args: argparse.Namespace) -> None:
    if args.interval <= 0:
        raise ConfigurationError("--interval must be positive")
    config = _run_config(args, monitor=MonitorOptions(
        interval=args.interval,
        on_sample=lambda sample: print(_sample_line(sample), flush=True),
    ))
    bundle, spec = _dataset(args.app, args)
    print(f"{args.app} (real runtime, {args.units} units, "
          f"{args.local_cores}+{args.cloud_cores} cores, "
          f"sampling every {args.interval}s)")
    print(f"{'time':>8}  {'prog':>5}  {'done':>11}  pool       run  "
          f"wkr      steal      util         cache        eta")
    result = facade.run(bundle, spec, config)
    t = result.telemetry
    print(f"\ndone: wall {t.wall_seconds:.3f}s, {t.total_jobs} jobs "
          f"({t.total_stolen} stolen), {len(result.samples)} samples"
          + (f", {result.passes} passes" if result.passes > 1 else ""))
    _print_accounting(result, config)


def _cmd_submit(args: argparse.Namespace) -> None:
    weights: dict[str, float] = {}
    for item in args.weight:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigurationError(
                f"--weight takes TENANT=W (e.g. analytics=4), got {item!r}"
            )
        try:
            weights[name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"--weight {item!r}: {value!r} is not a number"
            ) from None

    submissions = []  # (tenant, app_key, dataset, config)
    for entry in args.apps:
        tenant, sep, app_key = entry.partition(":")
        if not sep:
            tenant, app_key = "default", entry
        _, dataset = _dataset(app_key, args)
        config = _run_config(args, name=f"{tenant}/{app_key}")
        submissions.append((tenant, app_key, dataset, config))

    with JobService(workers=args.workers, journal=args.journal) as service:
        # First appearance decides registration (and so reporting) order.
        for tenant in dict.fromkeys([t for t, *_ in submissions] + list(weights)):
            service.register(TenantSpec(tenant, weight=weights.get(tenant, 1.0)))
        handles = []
        for tenant, app_key, dataset, config in submissions:
            handle = service.submit(
                app_key, dataset, config,
                tenant=tenant, priority=args.priority,
            )
            print(f"submitted {handle.run_id}  tenant={tenant}  app={app_key}")
            handles.append((handle, app_key))
        rows = []
        for handle, app_key in handles:
            try:
                result = handle.result()
                outcome = f"ok ({result.wall_seconds:.3f}s wall)"
            except ReproError as exc:
                outcome = f"failed: {exc}"
            status = handle.status()
            rows.append((handle.run_id, status.tenant, app_key,
                         status.state.value, outcome))
        print()
        print(render_table(
            ("run", "tenant", "app", "state", "outcome"), rows
        ))
        stats = service.stats()
    dispatch = {
        name: t["dispatched"] for name, t in stats["tenants"].items()
    }
    print(f"\ndispatched per tenant: {dispatch}")
    print(f"datasets built: {stats['datasets']['builds']} for {len(handles)} runs")
    if args.journal:
        print(f"journal: {args.journal} (try `repro status {args.journal}`)")


def _cmd_status(args: argparse.Namespace) -> None:
    journal = ServiceJournal(args.journal)
    runs = journal.runs()
    if args.run_id is not None:
        run = runs.get(args.run_id)
        if run is None:
            raise ConfigurationError(
                f"run {args.run_id!r} not found in {args.journal}"
            )
        for key in ("tenant", "state", "priority", "app",
                    "submitted_at", "started_at", "finished_at", "error"):
            print(f"{key}: {run.get(key)}")
        return
    if not runs:
        print(f"no runs recorded in {args.journal}")
        return
    rows = [
        (run_id, run["tenant"], run["app"], run["state"],
         run["error"] or "")
        for run_id, run in sorted(runs.items())
    ]
    print(render_table(("run", "tenant", "app", "state", "error"), rows))
    pending = journal.cancel_requests()
    if pending:
        print(f"\noutstanding cancel requests: {sorted(pending)}")


def _cmd_cancel(args: argparse.Namespace) -> None:
    journal = ServiceJournal(args.journal)
    runs = journal.runs()
    run = runs.get(args.run_id)
    if run is not None and run["state"] not in ("queued", "running"):
        print(f"{args.run_id} is already {run['state']}; nothing to cancel")
        return
    journal.request_cancel(args.run_id)
    print(f"cancel requested for {args.run_id}; the service honors it "
          f"when (and if) the run reaches dispatch")


def _cmd_multisite(args: argparse.Namespace) -> None:
    config = load_multisite_config(Path(args.config).read_text())
    report = MultiSiteSimulation(config).run()
    if args.json:
        print(report.to_json())
        return
    print(f"{config.name}: app={config.app} sites={len(config.sites)} "
          f"head={config.head}")
    print(f"makespan {fmt_seconds(report.makespan)} s, "
          f"global reduction {fmt_seconds(report.global_reduction)} s")
    print(_cluster_table(report, "site"))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        globals()[f"_cmd_{args.command}"](args)
    except (ReproError, OSError) as exc:
        # OSError: an input file that is missing or cannot be read.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
