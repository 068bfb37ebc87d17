"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

SCALE = ["--scale", "0.02"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_apps_lists_all(capsys):
    code, out = run_cli(capsys, "apps")
    assert code == 0
    for app in ("knn", "kmeans", "pagerank", "wordcount", "histogram"):
        assert app in out


def test_simulate_prints_breakdown(capsys):
    code, out = run_cli(capsys, *SCALE, "simulate", "knn", "env-33/67")
    assert code == 0
    assert "makespan" in out
    assert "stolen" in out
    assert "local" in out and "cloud" in out


def test_simulate_unknown_app_fails_cleanly(capsys):
    code = main([*SCALE, "simulate", "nope", "env-local"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "nope" in err


def test_simulate_rejects_unknown_env():
    with pytest.raises(SystemExit):
        main(["simulate", "knn", "env-9/91"])


#: name -> (`paper` arguments after the name, text the output must hold)
PAPER_OUTPUT = {
    "figure3": (["--app", "kmeans"], ["Figure 3 (kmeans)"]),
    "figure4": (["--app", "knn"], ["Figure 4 (knn)", "paper speedup"]),
    "table1": ([], ["Table I"]),
    "table2": ([], ["Table II", "Average hybrid slowdown"]),
    "cost": (["--app", "knn"], ["cloud bill", "$0.00"]),  # $0.00: env-local
    "sweep": (["--app", "knn"],
              ["Data-skew continuum", "100% local", "0% local", "best placement"]),
    "stealing": ([], ["Work stealing", "env-17/83", "stealing gain"]),
    "iterative": ([], ["pagerank x 10 iterations", "robj exchange"]),
    "retrieval": ([], ["Retrieval-connection sweep (knn, env-cloud)"]),
    "robj": ([], ["Reduction-object size sweep (pagerank profile"]),
    "scheduling": ([], ["Scheduling-heuristic ablation (knn, env-17/83)"]),
    "loadbalance": (["--app", "knn"], ["Pooling vs static", "knn env-17/83"]),
}


def test_paper_output_covers_every_artifact():
    from repro.bench.artifacts import ARTIFACTS

    assert sorted(PAPER_OUTPUT) == sorted(ARTIFACTS)


@pytest.mark.parametrize("name", sorted(PAPER_OUTPUT))
def test_paper(capsys, name):
    """`paper NAME` prints the artifact's table, then a graded claim for
    each claim whose apps all ran."""
    from repro.bench.artifacts import ARTIFACTS

    argv, expected = PAPER_OUTPUT[name]
    code, out = run_cli(capsys, *SCALE, "paper", name, *argv)
    assert code == 0
    table, _, claims = out.partition(f"\n\n{name}: ")
    for text in expected:
        assert text in table
    lines = claims.splitlines()
    verdicts = [line.split()[:2] for line in lines
                if line.startswith(("PASS", "FAIL"))]
    passed = sum(verdict == "PASS" for verdict, _ in verdicts)
    assert lines[0] == f"{passed}/{len(verdicts)} claims hold"
    artifact = ARTIFACTS[name]
    ran = set(argv[1:] or artifact.apps)
    assert [claim for _, claim in verdicts] == [
        c.claim_id for c in artifact.claims if set(c.apps) <= ran
    ]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_seed_flag_changes_output(capsys):
    _, a = run_cli(capsys, *SCALE, "--seed", "1", "simulate", "knn", "env-50/50")
    _, b = run_cli(capsys, *SCALE, "--seed", "2", "simulate", "knn", "env-50/50")
    assert a != b


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--scale", "0.02", "apps"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "pagerank" in proc.stdout


def test_trace_sim_with_exports(capsys, tmp_path):
    import json

    jsonl = tmp_path / "t.jsonl"
    pft = tmp_path / "t.json"
    code, out = run_cli(
        capsys, *SCALE, "trace", "knn", "env-50/50",
        "--width", "30", "--out", str(jsonl), "--perfetto", str(pft),
    )
    assert code == 0
    assert "w000 |" in out
    assert f"wrote" in out and "t.jsonl" in out
    from repro.obs import read_jsonl

    back = read_jsonl(jsonl)
    assert len(back) > 0
    doc = json.loads(pft.read_text())
    assert doc["traceEvents"]


def test_trace_without_env_or_runtime_fails(capsys):
    code = main([*SCALE, "trace", "knn"])
    err = capsys.readouterr().err
    assert code == 1
    assert "environment" in err


def test_trace_runtime_and_report_round_trip(capsys, tmp_path):
    jsonl = tmp_path / "rt.jsonl"
    code, out = run_cli(
        capsys, "trace", "wordcount", "--runtime",
        "--units", "512", "--width", "30", "--out", str(jsonl),
    )
    assert code == 0
    assert "mean worker idle fraction" in out
    assert jsonl.exists()

    pft = tmp_path / "rt.json"
    code, out = run_cli(
        capsys, "report", str(jsonl), "--width", "30", "--perfetto", str(pft),
    )
    assert code == 0
    assert "mean worker idle fraction" in out
    assert pft.exists()


def test_report_rejects_bad_trace_file(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    code = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad trace line" in err


def test_run_flags_mirror_the_dataclasses():
    """Each row of the run-flag table names a real dataclass field, its
    argparse default is what ``RunConfig()`` holds there (``None`` below a
    family that is absent by default: ``--retries`` with no
    ``RetryPolicy``), and its choices are the validating tuple itself."""
    import argparse
    import dataclasses
    import typing

    from repro import RunConfig, cli
    from repro.core.sync import TOPOLOGIES
    from repro.core.wire import COMPRESSIONS, ENCODINGS
    from repro.runtime.driver import SLAVE_MODES

    validated = {
        "slave_mode": SLAVE_MODES, "sync.encoding": ENCODINGS,
        "sync.compress": COMPRESSIONS, "sync.topology": TOPOLOGIES,
    }
    parser = argparse.ArgumentParser()
    families = [field.name for field in dataclasses.fields(RunConfig)]
    cli._add_run_flags(parser, *families, units=1)
    actions = parser._option_string_actions
    assert len({row.flag for row in cli._RUN_FLAGS}) == len(cli._RUN_FLAGS)
    for row in cli._RUN_FLAGS:
        action = actions[row.flag]
        if row.path is None:
            assert row.flag == "--units"  # sizes the dataset, not the run
            continue
        cls, default = RunConfig, RunConfig()
        for name in row.path.split("."):
            assert cls is not None, row
            assert name in {field.name for field in dataclasses.fields(cls)}, row
            default = getattr(default, name, None)
            hint = typing.get_type_hints(cls)[name]
            cls = next(
                (c for c in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(c)),
                None,
            )
        assert action.default == default, row
        assert isinstance(action, argparse._StoreTrueAction) == (default is False), row
        assert action.choices is validated.get(row.path), row
    assert validated.keys() <= {row.path for row in cli._RUN_FLAGS}


def test_api_doc_lists_every_command():
    """docs/API.md "CLI" names each subcommand, and each has a handler."""
    import argparse
    from pathlib import Path

    from repro import cli

    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    doc = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
    section = doc.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = section.split("{", 1)[1].split("}", 1)[0].replace("\n", " ")
    assert sorted(name.strip() for name in listed.split(",")) == sorted(
        subcommands.choices
    )
    for name in subcommands.choices:
        assert callable(getattr(cli, f"_cmd_{name}")), name


def test_api_doc_opens_with_the_public_names():
    """docs/API.md opens with exactly the names ``repro.__all__`` exports."""
    from pathlib import Path

    import repro

    doc = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
    opening = doc.split("\n## ", 1)[0]
    listed = opening.split("{", 1)[1].split("}", 1)[0].replace("\n", " ")
    assert sorted(name.strip() for name in listed.split(",")) == sorted(
        repro.__all__
    )
