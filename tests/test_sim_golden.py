"""Golden net under the simulator: every report equal, field for field.

``tests/data/sim_golden.json`` holds the ``RunTelemetry.to_dict()`` of
each simulated run — the one record every engine reports, so it carries
the runtime-only counters too, at their defaults — for the
two-site matrix (knn/kmeans/pagerank x the five Figure-3 envs and the
four Figure-4 rungs at scale 0.05 x three sync specs), autoscale and
revocation runs on every env with cloud cores, a 2-pass cached run, a
``FaultSpec`` latency+slow run, a ``static_assignment`` run, the traced
event sequence of a small hybrid run, and the N-site bench configurations
(``bench_multisite.two_provider_config``, ``bench_sync.shared_trunk_config``
star and tree). The discrete-event simulator is seed-deterministic, so
the comparison is ``==`` — not ``approx`` — down to ``events_processed``.

Its values were generated at the commit *before* the two-site simulator
became a configuration of the N-site engine; the file was rewritten once
since, only to add the fields the record gained when the simulator began
returning ``RunTelemetry`` (no value moved). It was regenerated a second
time when both engines began filling the record's master-core counters
from one collector (``obs.record.pass_record``): 34 of 106 keys moved,
each in one field and nothing else — ``sync_partial_merges`` (0 before)
in the 27 ``two-site/*/*/ring+stream+sparse`` keys and
``jobs_reexecuted`` (0 before) in the 7 ``autoscale/*/budget+revoke``
keys other than ``(4,4)``, whose spot die revokes nobody. Regenerate it only for a
deliberate model change, and say so in the PR: list, per key, the fields
that differ between the committed file and the current engine, then
rewrite the file (CI prints the ``--diff`` when the suite fails)::

    PYTHONPATH=src python tests/test_sim_golden.py --diff
    PYTHONPATH=src python tests/test_sim_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import RunConfig
from repro.apps.base import get_profile
from repro.bench.configs import PaperConfig, figure3_configs, figure4_configs
from repro.cache import ChunkCache
from repro.config import ComputeSpec, DatasetSpec, PlacementSpec
from repro.core.sync import SyncSpec
from repro.obs import EventLog
from repro.options import ScaleOptions
from repro.resilience.faults import FaultSpec
from repro.sim.multisite import MultiSiteSimulation
from repro.units import MB

from conftest import bench_module, two_site

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "sim_golden.json"
SCALE = 0.05

SYNC_SPECS = {
    "default": None,
    "tree+delta+zlib": SyncSpec(
        topology="tree", encoding="delta", compress="zlib", sim_ratio=0.25
    ),
    # A fanout-1 tree is a chain; the key keeps its old name.
    "ring+stream+sparse": SyncSpec(
        topology="tree", fanout=1, encoding="sparse", stream=True, sim_ratio=0.5
    ),
}


def _envs(app: str) -> dict[str, PaperConfig]:
    return {**figure3_configs(app, scale=SCALE), **figure4_configs(app, scale=SCALE)}


def _small_hybrid() -> PaperConfig:
    """32 knn jobs, most of them in the cloud, so the trace has steals."""
    return DatasetSpec(
        total_bytes=8 * 4 * MB, num_files=8, chunk_bytes=1 * MB, record_bytes=4
    ), RunConfig(
        name="small-hybrid",
        placement=PlacementSpec(local_fraction=0.25),
        compute=ComputeSpec(local_cores=3, cloud_cores=2),
    )


def _traced(config: PaperConfig, **kwargs) -> list:
    trace = EventLog()
    two_site("knn", *config, trace=trace, **kwargs).run()
    return [[e.time, e.kind, e.worker, e.cluster] for e in trace.events]


def _cached_passes() -> list:
    sim = two_site("knn", *_envs("knn")["env-33/67"], cache=ChunkCache(1 << 34))
    return [sim.run().to_dict() for _ in range(2)]


def _shared_trunk(topology: str) -> dict:
    config = bench_module("bench_sync").shared_trunk_config()
    profile = replace(get_profile("kmeans"), robj_bytes=64 * MB)
    return MultiSiteSimulation(
        config, profile=profile, sync=SyncSpec(topology=topology)
    ).run().to_dict()


def _cases() -> dict:
    """Case name -> thunk producing the plain-data value to pin."""
    cases: dict = {}
    for app in ("knn", "kmeans", "pagerank"):
        for env, config in _envs(app).items():
            for label, spec in SYNC_SPECS.items():
                cases[f"two-site/{app}/{env}/{label}"] = (
                    lambda app=app, config=config, spec=spec: two_site(
                        app, *config, sync=spec
                    ).run().to_dict()
                )
    for env, config in _envs("kmeans").items():
        cloud = config[1].compute.cloud_cores
        if cloud == 0:
            continue
        scales = {
            "deadline": ScaleOptions(
                autoscale=True, deadline=100.0, max_slaves=cloud + 8, interval=0.5
            ),
            "budget+revoke": ScaleOptions(
                autoscale=True, budget=0.05, max_slaves=cloud + 8, interval=0.5,
                revocation="rate=0.05,seed=7,provision=1",
            ),
        }
        for label, scale in scales.items():
            cases[f"autoscale/{env}/{label}"] = (
                lambda config=config, scale=scale: two_site(
                    "kmeans", *config, scale=scale
                ).run().to_dict()
            )
    hybrid = _envs("knn")["env-33/67"]
    # A scale spec on a run with no cloud cores is a silent no-op: no
    # active site other than the head's, so no site bursts.
    cases["autoscale/env-local/no-cloud-cores"] = lambda: two_site(
        "kmeans", *_envs("kmeans")["env-local"],
        scale=ScaleOptions(autoscale=True, deadline=100.0),
    ).run().to_dict()
    cases["cached/2-pass"] = _cached_passes
    cases["faults/latency+slow"] = lambda: two_site(
        "knn", *hybrid,
        faults=FaultSpec(
            latency_rate=0.1, latency_seconds=0.5,
            slow_rate=0.05, slow_bandwidth=1 * MB, seed=11,
        ),
    ).run().to_dict()
    cases["static-assignment"] = lambda: two_site(
        "knn", *hybrid, static_assignment=True
    ).run().to_dict()
    cases["trace/default"] = lambda: _traced(_small_hybrid())
    cases["trace/ring+stream"] = lambda: _traced(
        _small_hybrid(), sync=SyncSpec(topology="tree", fanout=1, stream=True)
    )
    cases["multisite/two-provider"] = lambda: MultiSiteSimulation(
        bench_module("bench_multisite").two_provider_config()
    ).run().to_dict()
    for topology in ("star", "tree"):
        cases[f"multisite/shared-trunk/{topology}"] = (
            lambda topology=topology: _shared_trunk(topology)
        )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_these_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    # Through JSON so tuples/lists and int/float compare as stored.
    assert json.loads(json.dumps(CASES[name]())) == golden[name]


def diff(old, new, path: str = ""):
    """``(path, old, new)`` for every field at which two plain-data values
    differ: dicts and equal-length lists of dicts are walked, any other
    value is one field."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from diff(old.get(key), new.get(key), f"{path}.{key}".lstrip("."))
    elif (
        isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
        and all(isinstance(item, dict) for item in old + new)
    ):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from diff(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def _change(old, new) -> str:
    if isinstance(old, list) and isinstance(new, list):
        moved = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
        return f"{len(old)} -> {len(new)} items, {moved} differ"
    return f"{old!r} -> {new!r}"


def print_diff(golden: dict) -> int:
    """Print the fields of every key that differ from ``golden``; returns
    the number of keys that differ."""
    changed = 0
    for name in sorted(golden.keys() | CASES.keys()):
        if name not in CASES or name not in golden:
            where = "golden file" if name in golden else "engine"
            print(f"{name}: only in the {where}")
            changed += 1
            continue
        fields = list(diff(golden[name], json.loads(json.dumps(CASES[name]()))))
        if fields:
            changed += 1
            print(name)
        for path, old, new in fields:
            print(f"  {path or '<value>'}: {_change(old, new)}")
    print(f"{changed} of {len(golden.keys() | CASES.keys())} keys differ")
    return changed


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if print_diff(json.loads(GOLDEN_PATH.read_text())) else 0)
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: CASES[name]() for name in sorted(CASES)},
                   indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
