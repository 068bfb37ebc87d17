"""Tests for the reproduction scorecard."""

from __future__ import annotations

import pytest

from repro.bench.artifacts import Claim, evaluate_claims, render_scorecard

SCALE = 0.03


@pytest.fixture(scope="module")
def claims():
    return evaluate_claims(scale=SCALE)


def test_claims_cover_the_evaluation(claims):
    ids = {c.claim_id for c in claims}
    for expected in (
        "headline-slowdown",
        "headline-speedup",
        "pagerank-robj-cost",
        "small-robj-cost",
        "5050-balanced",
        "stealing-monotone",
        "kmeans-scales-best",
        "pagerank-fixed-cost",
    ):
        assert expected in ids
    for app in ("knn", "kmeans", "pagerank"):
        assert f"{app}-skew-ramp" in ids
        assert f"{app}-monotone-scaling" in ids
    assert len(claims) >= 15


def test_claims_are_graded(claims):
    for claim in claims:
        assert isinstance(claim.passed, bool)
        assert claim.paper and claim.measured and claim.description


def test_most_claims_hold_at_reduced_scale(claims):
    """At 3% scale the absolute bands still hold for the structural claims;
    allow a couple of scale-sensitive misses (e.g. robj-vs-runtime ratios
    shift when the data shrinks 30x but the object does not)."""
    failed = [c.claim_id for c in claims if not c.passed]
    assert len(failed) <= 4, failed


def test_render_scorecard(claims):
    text = render_scorecard(claims)
    assert "Reproduction scorecard" in text
    assert "headline-slowdown" in text
    assert "PASS" in text


def test_render_marks_failures():
    bad = [Claim("x", "d", "p", "m", False)]
    text = render_scorecard(bad)
    assert "0/1" in text
    assert "FAIL" in text
