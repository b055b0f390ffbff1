import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotogo.formula import (
    And,
    BinOp,
    Const,
    Interval,
    Not,
    Or,
    Pow,
    Pred,
    TOP,
    Until,
    Var,
    horizon,
    is_bounded,
    node_count,
    to_seconds,
    to_ticks,
)
from rotogo.parser import parse_formula

SEC = 1_000_000


def test_tick_round_trip_is_exact_for_microsecond_multiples():
    for seconds in (0.0, 0.1, 1.5, 19.9, 0.000001, 123.456789):
        assert to_seconds(to_ticks(seconds)) == pytest.approx(seconds, abs=0)


def test_seconds_round_to_nearest_tick():
    assert to_ticks(1e-7) == 0
    assert to_ticks(6e-7) == 1
    assert to_ticks(-0.0000015) == -2  # banker-free nearest for .5 below zero magnitude


# ---------------------------------------------------------------------------
# Intervals


def test_shift_truncate_pure_shift():
    assert Interval(0, 5 * SEC).shift_truncate(1 * SEC) == Interval(0, 4 * SEC)


def test_shift_truncate_clips_lower_to_closed_zero():
    out = Interval(2 * SEC, 3 * SEC, False, True).shift_truncate(int(2.5 * SEC))
    assert out == Interval(0, SEC // 2, True, True)
    for probe, inside in [(0, True), (SEC // 4, True), (SEC // 2, True), (int(0.6 * SEC), False)]:
        assert out.contains(probe) == inside


def test_shift_truncate_below_zero_is_empty():
    assert Interval(0, 2 * SEC).shift_truncate(3 * SEC).is_empty()


def test_shift_truncate_requires_positive_delta():
    with pytest.raises(ValueError):
        Interval(0, SEC).shift_truncate(0)


def test_zero_membership_split():
    assert Interval(0, 5 * SEC).contains_zero()
    assert Interval(0, 5 * SEC, False, True).strictly_positive()
    assert Interval(SEC, 2 * SEC).strictly_positive()


def test_exactly_one_of_contains_zero_or_strictly_positive():
    cases = [Interval(0, SEC), Interval(0, SEC, False, True), Interval(1, SEC), Interval(0, 0)]
    for interval in cases:
        if interval.is_empty():
            continue
        assert interval.contains_zero() != interval.strictly_positive()


def test_infinite_upper_must_be_open():
    with pytest.raises(ValueError):
        Interval(0, math.inf, True, True)
    assert not Interval(0, math.inf, True, False).is_empty()


def test_degenerate_point_interval():
    point = Interval(3, 3, True, True)
    assert not point.is_empty()
    assert point.contains(3) and not point.contains(2)
    assert Interval(3, 3, True, False).is_empty()


@st.composite
def intervals(draw):
    lower = draw(st.integers(0, 10 * SEC))
    upper = draw(st.one_of(st.integers(lower + 1, 12 * SEC), st.just(math.inf)))
    lower_closed = draw(st.booleans())
    upper_closed = draw(st.booleans()) if upper != math.inf else False
    return Interval(lower, upper, lower_closed, upper_closed)


@settings(max_examples=300, deadline=None)
@given(intervals(), st.integers(1, 6 * SEC), st.integers(1, 6 * SEC))
def test_shift_truncate_composes(interval, d1, d2):
    once = interval.shift_truncate(d1)
    if once.is_empty():
        return
    twice = once.shift_truncate(d2)
    combined = interval.shift_truncate(d1 + d2)
    assert twice.is_empty() == combined.is_empty()
    if not twice.is_empty():
        assert twice == combined


@settings(max_examples=300, deadline=None)
@given(intervals(), st.integers(1, 20 * SEC))
def test_shift_truncate_lower_stays_nonnegative(interval, delta):
    out = interval.shift_truncate(delta)
    assert out.lower >= 0


# ---------------------------------------------------------------------------
# Horizon


def test_horizon_of_predicate_is_zero():
    assert horizon(Pred(BinOp("-", Var("x"), Const(4.0)))) == 0
    assert horizon(TOP) == 0


def test_horizon_of_always_twenty_seconds():
    assert horizon(parse_formula("G[0,20] (x > 4)")) == 20 * SEC


def test_horizon_of_nested_until():
    f = parse_formula("(x>0) U[2,5] ((x>0) U[0,3] (y>0))")
    assert horizon(f) == 8 * SEC


def test_horizon_algebra_matches_definition():
    a = parse_formula("F[0,3] (x>0)")
    b = parse_formula("G[0,7] (y>0)")
    assert horizon(And(a, b)) == max(horizon(a), horizon(b))
    assert horizon(Or(a, b)) == max(horizon(a), horizon(b))
    assert horizon(Not(a)) == horizon(a)


def test_unbounded_until_propagates():
    f = parse_formula("F[0,inf) (x>0)")
    assert horizon(f) == math.inf
    assert not is_bounded(f)
    assert horizon(And(f, TOP)) == math.inf


def test_node_count():
    f = parse_formula("(x>0) U[0,1] (y>0)")
    assert node_count(f) == 3
    assert node_count(Until(TOP, Interval(0, SEC), Not(TOP))) == 4


def test_negative_exponent_rejected_when_built():
    # Exponentiation by squaring never terminates for n < 0 (n >>= 1 stays -1),
    # so the node refuses to exist instead of hanging every evaluator.
    with pytest.raises(ValueError, match="-1"):
        Pow(Var("x"), -1)
    assert Pow(Var("x"), 0).eval({"x": 2.0}) == 1.0
