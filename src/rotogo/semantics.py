"""Reference evaluators: boolean satisfaction, robustness, robustness-to-go.

All three recurse directly over the formula tree with quantifiers ranging
over the signal's samples, one subterm at a time.  The recursion carries a
sample index: an until locates its window once, with one
:meth:`~rotogo.signals.Signal.index_range_in`, and its quantifiers range
over index ranges; a predicate reads its sample's cached row by index.
This module is deliberately naive (no memoization or vectorization): it
doubles as the brute-force oracle that the fast evaluator in
:mod:`rotogo.fasteval` is checked against, bit for bit.  Next to the three
recursions, :func:`robustness_witness` reads a finite robustness value off
the robustness oracle and searches the formula's predicates for a sample
and sign that reproduce it, so the witness checks the oracle itself.

Values are extended reals represented as Python floats: ``-inf`` and
``+inf`` are ordinary IEEE infinities, which already satisfy the required
algebra (total order, exact negation, min/max absorption).  The supremum
over an empty set is ``-inf`` and the infimum over an empty set is ``+inf``.

An until whose left operand is ``Top`` (``F``, and ``G`` as ``!F!``) skips
the sweep of its left operand, which makes ``F``/``G`` linear in the window
instead of quadratic.  The sweep would fold ``min(v, +inf)`` for
robustness and robustness-to-go, and ``all`` of ``True``s for
satisfaction: Python's ``min`` keeps its first argument unless a later one
is strictly smaller, so each fold returns ``v`` for every float, ``-0.0``,
``-inf`` and NaN included, and ``Top`` reads no variable, so no error is
skipped either.  The shortcut is therefore exact, not equal up to
rounding, and the evaluators stay naive oracles: every other node keeps its
quantifier ranges and fold order, and nothing is memoized or shared between
calls or evaluators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formula import (
    And,
    Bottom,
    Expr,
    Formula,
    Interval,
    Not,
    Or,
    Pred,
    TimePoint,
    Top,
    Until,
    formula_predicates,
    horizon,
)
from .signals import Signal

NEG_INF = -math.inf
POS_INF = math.inf


def inf_sign(value: float) -> float:
    """``+inf`` for positive values, else ``-inf``.

    Used to mask predicate contributions at or before the cut time: a zero
    value counts as a violation, consistent with strict satisfaction
    ``f(state) > 0``, so it maps to ``-inf``.
    """
    return POS_INF if value > 0 else NEG_INF


# ---------------------------------------------------------------------------
# Boolean satisfaction


def sat(signal: Signal, t: TimePoint, f: Formula) -> bool:
    """Pointwise boolean satisfaction of ``f`` over ``signal`` at time ``t``."""
    return _sat(signal, signal.index_of(t), f)  # NoSampleError when t is not a sample time


def _sat(signal: Signal, i: int, f: Formula) -> bool:
    if isinstance(f, Pred):
        return f.fn.eval(signal.row(i)) > 0
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _sat(signal, i, f.child)
    if isinstance(f, And):
        return _sat(signal, i, f.left) and _sat(signal, i, f.right)
    if isinstance(f, Or):
        return _sat(signal, i, f.left) or _sat(signal, i, f.right)
    if isinstance(f, Until):
        lo, hi = signal.index_range_in(f.interval, offset=signal.t(i))
        if isinstance(f.left, Top):  # F: every left value is True
            return any(_sat(signal, j, f.right) for j in range(lo, hi))
        for j in range(lo, hi):
            if _sat(signal, j, f.right) and all(_sat(signal, k, f.left) for k in range(i, j)):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Robustness


def robustness(signal: Signal, t: TimePoint, f: Formula) -> float:
    """Robust satisfaction value of ``f`` over ``signal`` at time ``t``."""
    return _rob(signal, signal.index_of(t), f)


def _rob(signal: Signal, i: int, f: Formula) -> float:
    if isinstance(f, Pred):
        return f.fn.eval(signal.row(i))
    if isinstance(f, Top):
        return POS_INF
    if isinstance(f, Bottom):
        return NEG_INF
    if isinstance(f, Not):
        return -_rob(signal, i, f.child)
    if isinstance(f, And):
        return min(_rob(signal, i, f.left), _rob(signal, i, f.right))
    if isinstance(f, Or):
        return max(_rob(signal, i, f.left), _rob(signal, i, f.right))
    if isinstance(f, Until):
        sweep = not isinstance(f.left, Top)  # F: min(v, +inf) is v
        best = NEG_INF
        lo, hi = signal.index_range_in(f.interval, offset=signal.t(i))
        for j in range(lo, hi):
            v = _rob(signal, j, f.right)
            if sweep:
                for k in range(i, j):
                    v = min(v, _rob(signal, k, f.left))
            best = max(best, v)
        return best
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Robustness-to-go


def rotogo(signal: Signal, t: TimePoint, t_hat: TimePoint, f: Formula) -> float:
    """Robustness-to-go of ``f`` from cut time ``t_hat``, evaluated at ``t``.

    Identical to :func:`robustness` except at predicate leaves: a predicate
    evaluated at a time at or before ``t_hat`` contributes only its sign,
    scaled to infinity, so the value isolates the suffix's contribution.
    """
    return _rtg(signal, signal.index_of(t), t_hat, f)


def _rtg(signal: Signal, i: int, t_hat: TimePoint, f: Formula) -> float:
    if isinstance(f, Pred):
        value = f.fn.eval(signal.row(i))
        return value if signal.t(i) > t_hat else inf_sign(value)
    if isinstance(f, Top):
        return POS_INF
    if isinstance(f, Bottom):
        return NEG_INF
    if isinstance(f, Not):
        return -_rtg(signal, i, t_hat, f.child)
    if isinstance(f, And):
        return min(_rtg(signal, i, t_hat, f.left), _rtg(signal, i, t_hat, f.right))
    if isinstance(f, Or):
        return max(_rtg(signal, i, t_hat, f.left), _rtg(signal, i, t_hat, f.right))
    if isinstance(f, Until):
        sweep = not isinstance(f.left, Top)  # F: min(v, +inf) is v
        best = NEG_INF
        lo, hi = signal.index_range_in(f.interval, offset=signal.t(i))
        for j in range(lo, hi):
            v = _rtg(signal, j, t_hat, f.right)
            if sweep:
                for k in range(i, j):
                    v = min(v, _rtg(signal, k, t_hat, f.left))
            best = max(best, v)
        return best
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Witness-reporting robustness
#
# Robustness only selects (min, max and negation), so a finite value is
# always some predicate's value at some sample, possibly negated.  The
# witness is found by searching for it, so that tests can re-evaluate it
# independently of the recursion that produced the value.


@dataclass(frozen=True)
class Witness:
    fn: Expr
    time: TimePoint
    sign: int  # +1 or -1

    def value(self, signal: Signal) -> float:
        raw = self.fn.eval(signal.value_at(self.time))
        return raw if self.sign > 0 else -raw


def robustness_witness(signal: Signal, t: TimePoint, f: Formula) -> tuple[float, Optional[Witness]]:
    """:func:`robustness` at ``t`` and, when it is finite, the first
    predicate of ``f``, sample in [t, t + horizon(f)] and sign whose value
    equals it bit for bit (signed zeros included); else no witness."""
    value = robustness(signal, t, f)
    if not math.isfinite(value):
        return value, None
    h = horizon(f)
    lo, hi = signal.index_range_in(Interval(0, h, True, h != POS_INF), offset=t)
    for p in formula_predicates(f):
        column = p.fn.eval(signal.components)
        column = column.tolist() if isinstance(column, np.ndarray) else [column] * len(signal)
        for j in range(lo, hi):
            for sign, v in ((+1, column[j]), (-1, -column[j])):
                if v == value and math.copysign(1.0, v) == math.copysign(1.0, value):
                    return value, Witness(p.fn, signal.t(j), sign)
    return value, None
