"""Shared benchmark helpers.

The simulator benches run at the paper's full scale (120 GB / 960 jobs —
simulated, so each configuration takes well under a second of wall time)
and print their tables in the paper's layout with paper-vs-measured
columns.
"""

from __future__ import annotations


def print_block(text: str) -> None:
    """Print a report block with surrounding whitespace so pytest -s output
    stays readable."""
    print()
    print(text)
    print()
