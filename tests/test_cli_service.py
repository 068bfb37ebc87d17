"""Characterisation of the CLI commands no other test runs: `watch`,
`submit`, `status`, `cancel` and `scorecard`. Written against the commit
before the run front-end was folded into one flag table, and unchanged
by it. Wall-clock values are matched by shape, never by value."""

from __future__ import annotations

import re

from repro.cli import main

SAMPLE = re.compile(
    r" *\d+\.\d{2}s +\d+\.\d% +\d+/\d+ +pool +\d+  run +\d+  wkr +\d+  "
    r"steal +\d+  util +\d+\.\d%  cache +\d+\.\d%  eta +(--|\d+\.\ds)"
)
DONE = r"done: wall \d+\.\d{3}s, \d+ jobs \(\d+ stolen\), (\d+) samples"
SYNC_DEFAULT = (
    r"sync: star/dense/none sent \d+ wire bytes, saved 0 \(0\.0% off dense\), "
    r"0 streamed partial merges"
)
SCALING = r"scaling: \d+ slaves added, \d+ revoked, \$\d+\.\d{4} cloud spend"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _line(lines: list[str], prefix: str) -> str:
    found = [line for line in lines if line.startswith(prefix)]
    assert len(found) == 1, (prefix, lines)
    return found[0]


def test_watch_prints_feed_done_and_scaling(capsys):
    code, out, err = run_cli(
        capsys, "watch", "kmeans", "--units", "4096",
        "--revoke", "rate=0.05,seed=7",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == (
        "kmeans (real runtime, 4096 units, 2+2 cores, sampling every 0.2s)"
    )
    assert lines[1].split() == [
        "time", "prog", "done", "pool", "run", "wkr", "steal", "util",
        "cache", "eta",
    ]
    samples = [line for line in lines if SAMPLE.fullmatch(line)]
    assert samples
    done = re.fullmatch(DONE, _line(lines, "done:"))
    assert done is not None and int(done.group(1)) == len(samples)
    assert re.fullmatch(SCALING, lines[-1])


def test_watch_without_scale_flags_prints_passes_and_no_scaling(capsys):
    code, out, err = run_cli(
        capsys, "watch", "kmeans", "--units", "512", "--iterations", "2",
        "--local-cores", "1", "--cloud-cores", "1",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert "512 units, 1+1 cores" in lines[0]
    assert re.fullmatch(DONE + ", 2 passes", lines[-2])
    # Every runtime run syncs, so the sync line always follows; a dense
    # upload saves nothing.
    assert re.fullmatch(SYNC_DEFAULT, lines[-1])
    assert "scaling" not in out


def _submit(capsys, journal) -> str:
    code, out, err = run_cli(
        capsys, "submit", "a:kmeans", "b:wordcount", "--weight", "a=2",
        "--journal", str(journal),
    )
    assert code == 0, err
    return out


def test_submit_prints_table_dispatch_and_journal_hint(capsys, tmp_path):
    journal = tmp_path / "J.json"
    lines = _submit(capsys, journal).splitlines()
    assert lines[0] == "submitted run-00001  tenant=a  app=kmeans"
    assert lines[1] == "submitted run-00002  tenant=b  app=wordcount"
    assert _line(lines, "      run").split() == [
        "run", "tenant", "app", "state", "outcome",
    ]
    for run_id, tenant, app in (
        ("run-00001", "a", "kmeans"), ("run-00002", "b", "wordcount"),
    ):
        assert re.fullmatch(
            rf"{run_id} +{tenant} +{app} +done +ok \(\d+\.\d{{3}}s wall\)",
            _line(lines, run_id),
        )
    dispatched = _line(lines, "dispatched per tenant:")
    assert "'a': 1" in dispatched and "'b': 1" in dispatched
    assert _line(lines, "datasets built:") == "datasets built: 2 for 2 runs"
    assert lines[-1] == f"journal: {journal} (try `repro status {journal}`)"


def test_submit_rejects_malformed_weight(capsys):
    code, out, err = run_cli(capsys, "submit", "kmeans", "--weight", "a")
    assert code == 1 and out == ""
    assert "--weight takes TENANT=W" in err


def test_status_table_detail_and_unknown_run(capsys, tmp_path):
    journal = tmp_path / "J.json"
    _submit(capsys, journal)

    code, out, err = run_cli(capsys, "status", str(journal))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].split() == ["run", "tenant", "app", "state", "error"]
    assert lines[2].split() == ["run-00001", "a", "kmeans", "done"]
    assert lines[3].split() == ["run-00002", "b", "wordcount", "done"]

    code, out, err = run_cli(capsys, "status", str(journal), "run-00001")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[:4] == ["tenant: a", "state: done", "priority: 0", "app: kmeans"]
    for line, key in zip(lines[4:7], ("submitted_at", "started_at", "finished_at")):
        assert re.fullmatch(rf"{key}: \d+\.\d+", line)
    assert lines[7] == "error: None"

    code, out, err = run_cli(capsys, "status", str(journal), "run-9")
    assert code == 1 and out == ""
    assert err == f"error: run 'run-9' not found in {journal}\n"


def test_status_on_an_absent_journal_reports_no_runs(capsys, tmp_path):
    journal = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "status", str(journal))
    assert code == 0, err
    assert out == f"no runs recorded in {journal}\n"


def test_cancel_finished_and_unknown_runs(capsys, tmp_path):
    journal = tmp_path / "J.json"
    _submit(capsys, journal)

    code, out, err = run_cli(capsys, "cancel", str(journal), "run-00001")
    assert code == 0, err
    assert out == "run-00001 is already done; nothing to cancel\n"

    code, out, err = run_cli(capsys, "cancel", str(journal), "run-9")
    assert code == 0, err
    assert out.startswith("cancel requested for run-9;")

    code, out, err = run_cli(capsys, "status", str(journal))
    assert code == 0, err
    assert out.splitlines()[-1] == "outstanding cancel requests: ['run-9']"


def test_scorecard_grades_every_claim(capsys):
    code, out, err = run_cli(capsys, "--scale", "0.02", "scorecard")
    assert code == 0, err
    lines = out.splitlines()
    graded = re.fullmatch(r"Reproduction scorecard: (\d+)/(\d+) claims hold", lines[0])
    assert graded is not None
    verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == int(graded.group(2))
    assert sum(v.startswith("PASS") for v in verdicts) == int(graded.group(1))
