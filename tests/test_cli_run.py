"""`repro run` executes through the facade: every option family's flags
reach the runtime, and the accounting lines report whole-run totals."""

from __future__ import annotations

import re

import pytest

from repro.cli import main


def _generate(out, capsys, *extra: str) -> str:
    code = main([
        "generate", "kmeans", "--out", str(out), "--units", "4096",
        "--files", "4", "--chunks-per-file", "4", *extra,
    ])
    assert code == 0
    capsys.readouterr()
    return str(out)


def _run(dataset: str, capsys, *flags: str) -> list[str]:
    code = main(["run", dataset, *flags])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.splitlines()


def _line(lines: list[str], prefix: str) -> str:
    found = [line for line in lines if line.startswith(prefix)]
    assert len(found) == 1, (prefix, lines)
    return found[0]


def test_fault_count_covers_every_pass(tmp_path, capsys):
    """The resilience line is a whole-run total, like the cache and sync
    lines: one injected latency fault per chunk read, every pass."""
    # All 16 chunks local and no cloud cluster: every job is one local
    # read, so the count does not depend on who steals what.
    dataset = _generate(tmp_path / "ds", capsys, "--local-fraction", "1.0")
    faults = ("--faults", "latency=1.0:0.0001,seed=7", "--cloud-cores", "0")

    def injected(iterations: int) -> int:
        lines = _run(dataset, capsys, *faults, "--iterations", str(iterations))
        match = re.match(r"resilience: (\d+) faults injected", _line(lines, "resilience:"))
        assert match is not None
        return int(match.group(1))

    assert injected(1) == 16
    assert injected(3) == 48


@pytest.mark.parametrize(
    "flags, accounting",
    [
        pytest.param(
            ["--cache-bytes", "4194304", "--prefetch"], "cache:",
            id="cache+prefetch",
        ),
        pytest.param(
            ["--slave-mode", "process"], "data path (process slaves):",
            id="process-slaves",
        ),
        pytest.param(
            ["--retries", "3", "--hedge-after", "5.0"], "resilience:",
            id="retries+hedge",
        ),
        pytest.param(
            ["--autoscale", "--deadline", "30"], "scaling (deadline 30.0s):",
            id="autoscale",
        ),
        pytest.param(
            ["--revoke", "rate=0.05,seed=7,provision=0.01"], "scaling:",
            id="revoke",
        ),
    ],
)
def test_option_family_flags_reach_the_runtime(tmp_path, capsys, flags, accounting):
    dataset = _generate(tmp_path / "ds", capsys)
    plain = _run(dataset, capsys, "--iterations", "2")
    lines = _run(dataset, capsys, "--iterations", "2", *flags)
    _line(lines, accounting)
    assert _line(lines, "result:") == _line(plain, "result:")
    if "--prefetch" in flags:
        assert "prefetches: " in _line(lines, "cache:")


def test_global_seed_reaches_the_run_config(tmp_path, capsys, monkeypatch):
    from repro import facade

    seen = []
    execute = facade.execute_runtime

    def spy(bundle, index, stores, config):
        seen.append(config.seed)
        return execute(bundle, index, stores, config)

    monkeypatch.setattr(facade, "execute_runtime", spy)
    dataset = _generate(tmp_path / "ds", capsys)
    assert main(["--seed", "7", "run", dataset]) == 0
    assert seen == [7]
