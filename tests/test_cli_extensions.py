"""Edge paths of `repro paper`: unknown names and apps, and apps the
paper did not run."""

from __future__ import annotations

import pytest

from repro.cli import main

SCALE = ["--scale", "0.02"]


def test_paper_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["paper", "figure9"])


def test_unknown_app_propagates_as_error(capsys):
    code = main([*SCALE, "paper", "sweep", "--app", "not-an-app"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_paper_tables_leave_the_paper_columns_blank_for_other_apps(capsys):
    code = main([*SCALE, "paper", "table1", "--app", "wordcount"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("wordcount")]
    assert len(rows) == 3 and all(row[3::2] == ["-"] * 3 for row in rows)
    assert "table1: 0/0 claims hold" in out
