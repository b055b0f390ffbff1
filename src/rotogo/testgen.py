"""Randomized formulas and signals for the property suites.

Signals carry x/y components drawn from a mixture of broad uniforms and
values parked just next to predicate thresholds, so that robustness values
land near zero and sign boundaries get stressed.  Generated predicate values
are never exactly zero at a sample (instances that produce one are
redrawn): strict satisfaction makes zero a violation, and an exact zero
under an odd number of negations is the one measure-zero point where sign
consistency cannot hold.

Every draw here is part of the corpus of every seed: `rotogo selftest`,
the acceptance checks and the random-corpus tests all read their instances
from this module, so a seed must keep drawing the same formulas and signals
and leave the generator in the same state.  Draws therefore go through the
cheapest numpy call that consumes the stream exactly as the natural one
would (``integers(0, k)`` for a uniform choice among k, ``standard_normal``
and ``random`` with numpy's own ``loc + scale * z`` and ``low + (high - low)
* u`` for scalar normals and uniforms), and `tests/test_testgen.py` pins
the stream with digests: a change that moves any draw fails there.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .formula import (
    And,
    BinOp,
    BOTTOM,
    Const,
    Formula,
    Interval,
    Not,
    Or,
    Pow,
    Pred,
    TOP,
    Until,
    Var,
    formula_predicates,
    to_ticks,
)
from .signals import Signal

_VARS = ("x", "y")

#: Sample periods of grid-aligned signals, indexed by one integers(0, 3) draw.
_PERIODS = (to_ticks(0.1), to_ticks(0.5), to_ticks(1.0))
#: Gap and start-time draw bounds of irregularly sampled signals, in ticks.
_GAP_LOW, _GAP_HIGH, _START_HIGH = to_ticks(0.05), to_ticks(3.0), to_ticks(2.0)
#: Random intervals: a lower bound below 8 s, a finite upper bound of at most 10 s.
_LOWER_HIGH, _UPPER_MAX = to_ticks(8.0), to_ticks(10.0)


def random_interval(rng: np.random.Generator) -> Interval:
    if rng.random() < 0.25:
        lower = 0
    else:
        lower = int(rng.integers(0, _LOWER_HIGH))
    if rng.random() < 0.05:
        upper: float = math.inf
    else:
        upper = int(rng.integers(lower + 1, _UPPER_MAX + 1))
    lower_closed = bool(rng.random() < 0.7)
    upper_closed = upper != math.inf and bool(rng.random() < 0.7)
    return Interval(lower, upper, lower_closed, upper_closed)


def _normal(rng: np.random.Generator) -> float:
    """What ``rng.normal(0.0, 1.0)`` computes, ``loc + scale * z``, without its
    argument handling; ``0.0 +`` turns a drawn -0.0 into 0.0 as numpy does."""
    return 0.0 + rng.standard_normal()


def random_predicate(rng: np.random.Generator) -> Pred:
    kind = rng.random()
    var = Var(_VARS[int(rng.integers(0, 2))])
    if kind < 0.5:
        c = Const(_normal(rng))
        return Pred(BinOp("-", var, c) if rng.random() < 0.5 else BinOp("-", c, var))
    if kind < 0.8:
        other = Var(_VARS[int(rng.integers(0, 2))])
        a = Const(_normal(rng))
        return Pred(BinOp("-", BinOp("+", var, BinOp("*", a, other)), Const(_normal(rng))))
    # quadratic ring predicate, exercises integer powers
    cx = Const(_normal(rng))
    r2 = Const(0.05 + (2.0 - 0.05) * rng.random())  # what rng.uniform(0.05, 2.0) computes
    return Pred(BinOp("-", r2, Pow(BinOp("-", var, cx), 2)))


def random_formula(rng: np.random.Generator, max_depth: int = 4, max_temporal: int = 3) -> Formula:
    budget = [max_temporal]

    def build(depth: int) -> Formula:
        if depth >= max_depth:
            roll = rng.random()
            if roll < 0.85:
                return random_predicate(rng)
            return TOP if roll < 0.925 else BOTTOM
        roll = rng.random()
        if roll < 0.30:
            return random_predicate(rng)
        if roll < 0.45:
            return Not(build(depth + 1))
        if roll < 0.60:
            return And(build(depth + 1), build(depth + 1))
        if roll < 0.72:
            return Or(build(depth + 1), build(depth + 1))
        if budget[0] > 0:
            budget[0] -= 1
            interval = random_interval(rng)
            kind = rng.random()
            if kind < 0.4:
                return Until(build(depth + 1), interval, build(depth + 1))
            if kind < 0.7:
                return Until(TOP, interval, build(depth + 1))
            return Not(Until(TOP, interval, Not(build(depth + 1))))
        if roll < 0.86:
            return random_predicate(rng)
        return Not(build(depth + 1))

    return build(0)


def random_times(rng: np.random.Generator, length: int) -> np.ndarray:
    if rng.random() < 0.5:
        # grid-aligned: multiples of a fixed period
        period = _PERIODS[int(rng.integers(0, 3))]
        start = int(rng.integers(0, 3)) * period
        return np.arange(start, start + period * length, period, dtype=np.int64)
    # the gaps are drawn before the start: times = cumsum([start, *gaps])
    times = np.empty(length, dtype=np.int64)
    if length > 1:
        times[1:] = rng.integers(_GAP_LOW, _GAP_HIGH, size=length - 1)
    times[0] = rng.integers(0, _START_HIGH)
    return times.cumsum(out=times)


def random_signal(rng: np.random.Generator, min_len: int = 3, max_len: int = 10) -> Signal:
    length = int(rng.integers(min_len, max_len + 1))
    times = random_times(rng, length)
    comps = {}
    for name in _VARS:
        broad = rng.uniform(-5.0, 5.0, size=length)
        near = rng.normal(0.0, 0.05, size=length)
        pick = rng.random(size=length) < 0.5
        comps[name] = np.where(pick, near, broad)
    return Signal(times, comps)


def random_instance(
    rng: np.random.Generator,
    max_depth: int = 4,
    max_temporal: int = 3,
    min_len: int = 3,
    max_len: int = 10,
) -> tuple[Formula, Signal]:
    """A (formula, signal) pair with no predicate hitting exactly zero."""
    while True:
        f = random_formula(rng, max_depth=max_depth, max_temporal=max_temporal)
        s = random_signal(rng, min_len=min_len, max_len=max_len)
        if not has_exact_zero(f, s):
            return f, s


def has_exact_zero(f: Formula, s: Signal) -> bool:
    """Whether a predicate of ``f`` is exactly zero at a sample of ``s``."""
    for p in formula_predicates(f):
        values = p.fn.eval(s.components)
        # ``in`` compares Python floats with ==, as ``values == 0.0`` does
        # (-0.0 counts, NaN does not), at a fraction of numpy's reduction cost.
        if 0.0 in (values.tolist() if isinstance(values, np.ndarray) else [values]):
            return True
    return False


# ---------------------------------------------------------------------------
# Counterexample shrinking: greedy subtree replacement with true/false plus
# signal truncation from the end.


def _one_subtree_replaced(f: Formula) -> Iterator[Formula]:
    """``f`` with one proper subtree replaced by TOP, then by BOTTOM, the
    subtrees taken in pre-order."""
    if isinstance(f, Not):
        children, rebuild = (f.child,), Not
    elif isinstance(f, (And, Or)):
        children, rebuild = (f.left, f.right), type(f)
    elif isinstance(f, Until):
        children, rebuild = (f.left, f.right), lambda left, right: Until(left, f.interval, right)
    else:
        return
    for k, child in enumerate(children):
        for new in chain((TOP, BOTTOM), _one_subtree_replaced(child)):
            yield rebuild(*children[:k], new, *children[k + 1 :])


def shrink_instance(
    f: Formula,
    s: Signal,
    still_failing: Callable[[Formula, Signal], bool],
) -> tuple[Formula, Signal]:
    """Greedy minimization of a failing (formula, signal) instance; the
    signal keeps at least two samples."""
    changed = True
    while changed:
        changed = False
        while len(s) > 2:
            shorter = s.prefix(len(s) - 2)
            if still_failing(f, shorter):
                s = shorter
                changed = True
            else:
                break
        for candidate in _one_subtree_replaced(f):
            if candidate != f and still_failing(candidate, s):
                f = candidate
                changed = True
                break
    return f, s
