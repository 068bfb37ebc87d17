"""Benchmark harness: the paper's configurations, experiment runners,
paper-vs-measured reporting, and the registry of the paper's artifacts
(``repro.bench.artifacts``) that `repro paper` and the scorecard read."""
