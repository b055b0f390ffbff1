import math
import struct

import numpy as np
import pytest

from rotogo import semantics
from rotogo.formula import And, Interval, Not, Or, Pred, TOP, BOTTOM, Top, Bottom, Until, Var, to_ticks
from rotogo.parser import parse_formula
from rotogo.semantics import (
    inf_sign,
    robustness,
    robustness_witness,
    rotogo,
    sat,
)
from rotogo.signals import NoSampleError, Signal
from rotogo.testgen import random_instance

SEC = 1_000_000


def make_signal(times_s, **comps):
    times = np.array([to_ticks(t) for t in times_s], dtype=np.int64)
    return Signal(times, {k: np.asarray(v, dtype=float) for k, v in comps.items()})


def brute_until_sat(signal, t, left, interval, right):
    """Independent enumeration of the until clause, straight off the definition."""
    candidates = [tp for tp in signal.times.tolist() if interval.contains(tp - t)]
    for tp in candidates:
        if not sat(signal, tp, right):
            continue
        between = [tq for tq in signal.times.tolist() if t <= tq < tp]
        if all(sat(signal, tq, left) for tq in between):
            return True
    return False


def brute_until_robustness(signal, t, left, interval, right):
    best = -math.inf
    for tp in signal.times.tolist():
        if not interval.contains(tp - t):
            continue
        value = robustness(signal, tp, right)
        for tq in signal.times.tolist():
            if t <= tq < tp:
                value = min(value, robustness(signal, tq, left))
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# Boolean satisfaction


def test_true_always_satisfied():
    s = make_signal([0], x=[0.0])
    assert sat(s, 0, TOP) is True
    assert sat(s, 0, BOTTOM) is False


def test_predicate_at_single_sample():
    s = make_signal([0], x=[4.5])
    assert sat(s, 0, parse_formula("(x > 4)")) is True
    assert robustness(s, 0, parse_formula("(x > 4)")) == 0.5


def test_until_window_controls_satisfaction():
    # p true at {0,1}, q true only at {2}
    s = make_signal([0, 1, 2], x=[1.0, 1.0, -1.0], y=[-1.0, -1.0, 1.0])
    p, q = Pred(Var("x")), Pred(Var("y"))
    u2 = Until(p, Interval(0, 2 * SEC), q)
    u1 = Until(p, Interval(0, 1 * SEC), q)
    assert sat(s, 0, u2) is True
    assert sat(s, 0, u1) is False
    assert sat(s, 0, u2) == brute_until_sat(s, 0, p, u2.interval, q)
    assert sat(s, 0, u1) == brute_until_sat(s, 0, p, u1.interval, q)


def test_sat_requires_sample_time():
    s = make_signal([0, 1], x=[1.0, 1.0])
    with pytest.raises(NoSampleError):
        sat(s, SEC // 2, TOP)


def test_boundary_value_zero_is_violation():
    s = make_signal([0], x=[3.0])
    f = parse_formula("(x > 3)")
    assert sat(s, 0, f) is False
    assert robustness(s, 0, f) == 0.0


# ---------------------------------------------------------------------------
# Robustness


def test_true_has_infinite_robustness():
    s = make_signal([0], x=[0.0])
    assert robustness(s, 0, TOP) == math.inf
    assert robustness(s, 0, BOTTOM) == -math.inf


def test_until_robustness_worked_example():
    # samples {0,1,2}; p values {2,1,-3}; q values {-1,-1,4}
    s = make_signal([0, 1, 2], x=[2.0, 1.0, -3.0], y=[-1.0, -1.0, 4.0])
    u = Until(Pred(Var("x")), Interval(0, 2 * SEC), Pred(Var("y")))
    # max(min(-1, empty-inf), min(-1, 2), min(4, min(2, 1))) = 1
    assert robustness(s, 0, u) == 1.0
    assert brute_until_robustness(s, 0, u.left, u.interval, u.right) == 1.0


def test_empty_quantifier_domains():
    s = make_signal([0], x=[1.0])
    never = Until(TOP, Interval(SEC, 2 * SEC), Pred(Var("x")))
    assert robustness(s, 0, never) == -math.inf  # sup over empty set
    # until at t'=t: inner inf over [t, t) is empty, so +inf absorbs into min
    now = Until(BOTTOM, Interval(0, SEC), Pred(Var("x")))
    assert robustness(s, 0, now) == 1.0


def test_negation_duality_and_demorgan_random():
    rng = np.random.default_rng(11)
    for _ in range(150):
        f, s = random_instance(rng)
        g, _ = random_instance(rng)
        t0 = s.t0
        assert robustness(s, t0, Not(f)) == -robustness(s, t0, f)
        direct = robustness(s, t0, Or(f, g))
        assert direct == robustness(s, t0, Not(And(Not(f), Not(g))))
        assert direct == max(robustness(s, t0, f), robustness(s, t0, g))


# ---------------------------------------------------------------------------
# Robustness-to-go


def test_masked_predicate_contributes_only_sign():
    s = make_signal([0], x=[1.0])
    f = parse_formula("(x > 4)")
    assert rotogo(s, 0, 0, f) == -math.inf  # value 1 - 4 < 0 at a masked time
    s2 = make_signal([0], x=[9.0])
    assert rotogo(s2, 0, 0, f) == math.inf


def test_inf_sign_of_zero_is_negative():
    assert inf_sign(0.0) == -math.inf
    assert inf_sign(-1.0) == -math.inf
    assert inf_sign(1e-300) == math.inf


def test_cut_before_signal_equals_robustness():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f, s = random_instance(rng)
        assert rotogo(s, s.t0, s.t0 - to_ticks(1.0), f) == robustness(s, s.t0, f)


def test_always_with_masked_violation_collapses():
    # Oracle-decided frozen value: x(0) = -5 violates before the cut, and a
    # violated always can never recover, so the value is -inf (not 0.3).
    s = make_signal([0, 1, 2], x=[-5.0, 0.3, 0.7])
    g = parse_formula("G[0,2] (x > 0)")
    assert rotogo(s, 0, 0, g) == -math.inf
    # Consistency: satisfaction is also false, and progression agrees.
    assert sat(s, 0, g) is False
    from rotogo.progression import rotogo_via_progression

    assert rotogo_via_progression(s, 0, g) == -math.inf


def test_masked_satisfied_always_keeps_future_margin():
    # Same formula, but the pre-cut sample satisfies the predicate: its
    # contribution masks to +inf and the future margin 0.3 survives.
    s = make_signal([0, 1, 2], x=[5.0, 0.3, 0.7])
    g = parse_formula("G[0,2] (x > 0)")
    assert rotogo(s, 0, 0, g) == 0.3


def sign_consistent(signal, f, t_hat):
    """Satisfaction at the first sample agrees with positive robustness-to-go."""
    return (rotogo(signal, signal.t0, t_hat, f) > 0) == sat(signal, signal.t0, f)


def test_sign_consistency_check_basics():
    s = make_signal([0], x=[1.0])
    assert sign_consistent(s, TOP, -SEC)
    zero = make_signal([0], x=[3.0])
    f = parse_formula("(x > 3)")
    # value exactly 0 at an unmasked time: not satisfied, rotogo 0, consistent
    assert sign_consistent(zero, f, -SEC)


def test_sign_consistency_random_cuts():
    rng = np.random.default_rng(13)
    for _ in range(200):
        f, s = random_instance(rng)
        for t_hat in (s.t0 - to_ticks(1.0), s.t0, s.t(int(rng.integers(0, len(s))))):
            assert sign_consistent(s, f, t_hat)


# ---------------------------------------------------------------------------
# Witness


def test_finite_robustness_has_reevaluable_witness():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(200):
        f, s = random_instance(rng)
        value, witness = robustness_witness(s, s.t0, f)
        assert value == robustness(s, s.t0, f)
        if math.isinf(value):
            continue
        checked += 1
        assert witness is not None
        assert witness.value(s) == value
    assert checked > 50


def test_witness_sign_flips_under_negation():
    s = make_signal([0], x=[1.5])
    f = parse_formula("(x > 0)")
    value, witness = robustness_witness(s, 0, Not(f))
    assert value == -1.5 and witness.sign == -1


# ---------------------------------------------------------------------------
# F and G: an until whose left operand is Top takes no left-operand sweep


def _count_calls(monkeypatch, name: str) -> list:
    """Count every call of ``semantics.<name>``, recursive ones included."""
    calls = [0]
    inner = getattr(semantics, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(semantics, name, counted)
    return calls


@pytest.mark.parametrize(
    "text, x, nodes",
    [("F[0,20] (x > 0)", -1.0, 1), ("G[0,20] (x > 0)", 1.0, 2)],  # sat reads every sample of both
    ids=["eventually", "always"],
)
def test_top_left_until_takes_linear_calls(monkeypatch, text, x, nodes):
    n = 201
    s = Signal(np.arange(n, dtype=np.int64) * to_ticks(0.1), {"x": np.full(n, x)})
    f = parse_formula(text)
    t_hat = s.t(n // 2)
    calls = {name: _count_calls(monkeypatch, name) for name in ("_sat", "_rob", "_rtg")}
    sat(s, 0, f)
    robustness(s, 0, f)
    rotogo(s, 0, t_hat, f)
    # F makes one call for the until at t and one for its predicate at each
    # of the n samples in its window, n + 1; G, that is !F!, makes two of
    # each, 2n + 2.  Sweeping Top at every sample before each of the n
    # candidates would add n (n - 1) / 2 calls per Top: 20 100 here.
    assert {name: c[0] for name, c in calls.items()} == {name: nodes * (n + 1) for name in calls}


def _times_in(signal, interval, offset):
    lo, hi = signal.index_range_in(interval, offset)
    return signal.times[lo:hi].tolist()


def _times_between(signal, start, stop):
    return [t for t in signal.times.tolist() if start <= t < stop]


def _head_sat(signal, t, f):
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Pred):
        return f.fn.eval(signal.value_at(t)) > 0
    if isinstance(f, Not):
        return not _head_sat(signal, t, f.child)
    if isinstance(f, And):
        return _head_sat(signal, t, f.left) and _head_sat(signal, t, f.right)
    if isinstance(f, Or):
        return _head_sat(signal, t, f.left) or _head_sat(signal, t, f.right)
    for tp in _times_in(signal, f.interval, t):
        if _head_sat(signal, tp, f.right) and all(
            _head_sat(signal, tpp, f.left) for tpp in _times_between(signal, t, tp)
        ):
            return True
    return False


def _head_rob(signal, t, f, t_hat=None):
    """Robustness, or robustness-to-go when ``t_hat`` is given, with every
    until sweeping its left operand, Top included."""
    if isinstance(f, Top):
        return math.inf
    if isinstance(f, Bottom):
        return -math.inf
    if isinstance(f, Pred):
        value = f.fn.eval(signal.value_at(t))
        return value if t_hat is None or t > t_hat else inf_sign(value)
    if isinstance(f, Not):
        return -_head_rob(signal, t, f.child, t_hat)
    if isinstance(f, And):
        return min(_head_rob(signal, t, f.left, t_hat), _head_rob(signal, t, f.right, t_hat))
    if isinstance(f, Or):
        return max(_head_rob(signal, t, f.left, t_hat), _head_rob(signal, t, f.right, t_hat))
    best = -math.inf
    for tp in _times_in(signal, f.interval, t):
        v = _head_rob(signal, tp, f.right, t_hat)
        for tpp in _times_between(signal, t, tp):
            v = min(v, _head_rob(signal, tpp, f.left, t_hat))
        best = max(best, v)
    return best


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def assert_evaluators_match_sweeping_loops(s, f):
    ticks = s.times.tolist()
    cuts = [ticks[0] - SEC, ticks[-1] + SEC, *ticks, *((a + b) // 2 for a, b in zip(ticks, ticks[1:]))]
    for t in ticks:
        assert sat(s, t, f) is _head_sat(s, t, f)
        assert _bits(robustness(s, t, f)) == _bits(_head_rob(s, t, f))
        value, witness = robustness_witness(s, t, f)
        assert _bits(value) == _bits(_head_rob(s, t, f))
        assert witness is None if math.isinf(value) else _bits(witness.value(s)) == _bits(value)
        for t_hat in cuts:
            assert _bits(rotogo(s, t, t_hat, f)) == _bits(_head_rob(s, t, f, t_hat))


def test_evaluators_byte_equal_to_sweeping_loops_random():
    rng = np.random.default_rng(15)
    for _ in range(120):
        f, s = random_instance(rng)
        assert_evaluators_match_sweeping_loops(s, f)


@pytest.mark.parametrize(
    "text",
    [
        "F[0,0.2] !(x > 0)",
        "F(0,0.2) !(x > 0)",
        "F(0.1,inf) !(x > 0)",
        "F[0.1,0.3) ((x > 0) | !(x > 0))",
        "G[0,0.2] (x > 0)",
        "G(0,0.3] !(x > 0)",
        "G[0.1,inf) (x > 0)",
        "!F[0,inf) !(x > 0) & F[0,0.1] G(0,0.2) !(x > 0)",
        "(x > 0) U(0,0.2] !F[0,0.1] (x > 0)",
    ],
)
@pytest.mark.parametrize(
    "xs", [[0.0, 0.0, 1.0, 0.0, -1.0], [-0.0, 0.0, -0.0, 0.0, -0.0], [0.0, -2.0, 0.0, 2.0, 0.0]]
)
def test_evaluators_byte_equal_to_sweeping_loops_on_zeros(text, xs):
    # Predicates exactly 0 under Not give -0.0, whose sign only a byte
    # comparison sees.
    s = make_signal([0.1 * i for i in range(len(xs))], x=xs)
    assert_evaluators_match_sweeping_loops(s, parse_formula(text))
