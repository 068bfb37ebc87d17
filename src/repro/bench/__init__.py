"""Benchmark harness: the paper's configurations, experiment runners, and
paper-vs-measured reporting."""
