"""Tests for the global-reduction combiner library."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.combiners import get_combiner, register_combiner
from repro.errors import ReductionError


def test_builtins_registered():
    for expected in ("sum", "min", "max", "concat", "count", "mean_pair"):
        assert callable(get_combiner(expected))


def test_get_unknown_raises():
    with pytest.raises(ReductionError):
        get_combiner("no-such-combiner")


def test_register_duplicate_rejected():
    with pytest.raises(ReductionError):
        register_combiner("sum", lambda a, b: a + b)


def test_register_and_overwrite():
    register_combiner("test-xor", lambda a, b: a ^ b, overwrite=True)
    assert get_combiner("test-xor")(0b1010, 0b0110) == 0b1100
    register_combiner("test-xor", lambda a, b: a | b, overwrite=True)
    assert get_combiner("test-xor")(0b1010, 0b0110) == 0b1110


def test_register_empty_name_rejected():
    with pytest.raises(ReductionError):
        register_combiner("", lambda a, b: a)


def test_mean_pair():
    combine = get_combiner("mean_pair")
    total = combine((10.0, 2), (20.0, 3))
    assert total == (30.0, 5)


def test_concat_canonicalizes():
    combine = get_combiner("concat")
    assert combine("b", "a") == ("a", "b")
    assert combine(("b", "c"), "a") == ("a", "b", "c")


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_builtin_scalar_combiners_commutative_associative(a, b, c):
    for name in ("sum", "min", "max", "count"):
        f = get_combiner(name)
        assert f(a, b) == f(b, a)
        assert f(f(a, b), c) == f(a, f(b, c))


@given(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=2), min_size=1, max_size=4),
    st.lists(st.text(alphabet="abc", min_size=1, max_size=2), min_size=1, max_size=4),
)
def test_concat_commutative(xs, ys):
    f = get_combiner("concat")
    assert f(tuple(xs), tuple(ys)) == f(tuple(ys), tuple(xs))
