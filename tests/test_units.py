"""Tests for unit helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.units import (
    GB,
    KB,
    MB,
    TB,
    fmt_bytes,
    fmt_seconds,
    parse_size,
)


def test_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert TB == 1024 * GB


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, "0 B"),
        (999, "999 B"),
        (KB, "1.0 KB"),
        (128 * MB, "128.0 MB"),
        (120 * GB, "120.0 GB"),
        (2 * TB, "2.0 TB"),
        (-KB, "-1.0 KB"),
    ],
)
def test_fmt_bytes(value, expected):
    assert fmt_bytes(value) == expected


def test_fmt_seconds_matches_paper_precision():
    assert fmt_seconds(0.0721) == "0.072"
    assert fmt_seconds(96.067) == "96.1"
    assert fmt_seconds(9.9994) == "9.999"
    assert fmt_seconds(-3.5) == "-3.500"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("120GB", 120 * GB),
        ("128 MB", 128 * MB),
        ("1kb", KB),
        ("42", 42),
        ("1.5GB", int(1.5 * GB)),
        ("7B", 7),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


def test_parse_size_rejects_garbage():
    with pytest.raises(ValueError):
        parse_size("twelve parsecs")


@given(st.integers(min_value=0, max_value=10 * TB))
def test_fmt_bytes_parse_roundtrip_order_of_magnitude(n):
    """Formatting then parsing stays within the rounding error of 1 decimal."""
    parsed = parse_size(fmt_bytes(n))
    assert abs(parsed - n) <= max(64, n * 0.06)
