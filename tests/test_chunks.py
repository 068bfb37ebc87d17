"""Tests for chunk arithmetic (exact-cover invariants).

The unit-group cover property lives with the one splitter,
``GeneralizedReductionApp.unit_groups``, in ``tests/test_api.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.chunks import iter_chunk_slices
from repro.errors import DataFormatError


def test_chunk_slices_cover_file():
    slices = list(iter_chunk_slices(100, 25))
    assert [s.offset for s in slices] == [0, 25, 50, 75]
    assert all(s.nbytes == 25 for s in slices)
    assert [s.index for s in slices] == [0, 1, 2, 3]


def test_chunk_slices_reject_ragged():
    with pytest.raises(DataFormatError):
        list(iter_chunk_slices(100, 33))
    with pytest.raises(DataFormatError):
        list(iter_chunk_slices(0, 10))


@given(chunks=st.integers(1, 50), chunk_bytes=st.integers(1, 1000))
def test_chunk_cover_property(chunks, chunk_bytes):
    file_bytes = chunks * chunk_bytes
    slices = list(iter_chunk_slices(file_bytes, chunk_bytes))
    assert len(slices) == chunks
    covered = 0
    for i, s in enumerate(slices):
        assert s.offset == covered
        covered += s.nbytes
    assert covered == file_bytes
