"""Baselines: serial correctness oracles and the Map-Reduce comparison
engine from Section III-A's API discussion."""
