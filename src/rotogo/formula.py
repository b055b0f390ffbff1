"""STL formula trees, time intervals, and integer-microsecond time arithmetic.

Time is represented as a signed integer count of microsecond ticks so that
interval membership tests are bit-exact.  Floating-point time would make the
case analysis in progression (which hinges on whether 0 lies inside a shifted
interval) fragile near boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

TICKS_PER_SECOND = 1_000_000

#: A time point is an integer count of microseconds.
TimePoint = int

#: Interval upper bounds may be ``math.inf``.
TimeBound = Union[int, float]


def to_ticks(seconds: float) -> int:
    """Convert seconds to microsecond ticks, rounding to the nearest tick."""
    if seconds == math.inf:
        raise ValueError("infinite time has no tick representation")
    return round(seconds * TICKS_PER_SECOND)


def to_seconds(ticks: TimeBound) -> float:
    if ticks == math.inf:
        return math.inf
    return ticks / TICKS_PER_SECOND


# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True)
class Interval:
    """A time interval with open or closed endpoints, in ticks.

    ``upper`` may be ``math.inf``, in which case the upper endpoint must be
    open.  Intervals produced by :meth:`shift_truncate` may be empty or
    degenerate (``lower == upper``); use :meth:`is_empty` to test.
    """

    lower: int
    upper: TimeBound
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError(f"interval lower bound must be >= 0, got {self.lower}")
        if self.upper == math.inf and self.upper_closed:
            raise ValueError("an infinite upper bound must be open")

    def is_empty(self) -> bool:
        if self.lower < self.upper:
            return False
        if self.lower == self.upper:
            return not (self.lower_closed and self.upper_closed)
        return True

    def contains(self, t: TimeBound) -> bool:
        above = t > self.lower or (t == self.lower and self.lower_closed)
        below = t < self.upper or (t == self.upper and self.upper_closed)
        return above and below

    def contains_zero(self) -> bool:
        return self.contains(0)

    def shift_truncate(self, delta: int) -> "Interval":
        """Shift the interval earlier by ``delta`` and clip at zero.

        Subtracts ``delta`` from both endpoints and intersects the result
        with [0, inf); a lower endpoint that falls below zero becomes a
        closed bound at 0.  The result may be empty.
        """
        if delta <= 0:
            raise ValueError("shift_truncate requires delta > 0")
        lo = self.lower - delta
        up = self.upper if self.upper == math.inf else self.upper - delta
        lo_closed = self.lower_closed
        if lo < 0:
            lo, lo_closed = 0, True
        if up < 0:
            # Entirely below zero: canonical empty interval.
            return Interval(0, 0, False, False)
        return Interval(lo, up, lo_closed, False if up == math.inf else self.upper_closed)

    def __str__(self) -> str:
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        return f"{lo}{_fmt_seconds(self.lower)},{_fmt_seconds(self.upper)}{hi}"


def _fmt_seconds(ticks: TimeBound) -> str:
    if ticks == math.inf:
        return "inf"
    seconds = to_seconds(ticks)
    if seconds == int(seconds):
        return str(int(seconds))
    return repr(seconds)


# ---------------------------------------------------------------------------
# Predicate expressions
#
# A predicate is kept in the canonical form f(state) > 0, where f is an
# arithmetic expression over named state components.  The expression
# evaluators accept plain floats or numpy arrays interchangeably; both paths
# perform the identical sequence of IEEE operations, so scalar and vectorized
# evaluation agree bit for bit.


class Expr:
    __slots__ = ()

    def eval(self, env):
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        return env[self.name]


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, env):
        return self.value


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def eval(self, env):
        return -self.child.eval(env)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+", "-", "*"
    left: Expr
    right: Expr

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(f"negative exponent {self.exponent} in a power")

    def eval(self, env):
        return _int_pow(self.base.eval(env), self.exponent)


def _int_pow(x, n: int):
    # Exponentiation by squaring with a fixed multiplication order, so the
    # scalar and array evaluation paths produce identical floats.
    if n == 0:
        return x * 0 + 1.0
    result = None
    base = x
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n == 0:
            return result
        base = base * base


def expr_variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Neg):
        return expr_variables(expr.child)
    if isinstance(expr, BinOp):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Pow):
        return expr_variables(expr.base)
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for formula tree nodes.  Nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Pred(Formula):
    """Atomic predicate, satisfied when ``fn(state) > 0``."""

    fn: Expr


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    interval: Interval
    right: Formula


TOP = Top()
BOTTOM = Bottom()


def eventually(interval: Interval, phi: Formula) -> Formula:
    return Until(TOP, interval, phi)


def always(interval: Interval, phi: Formula) -> Formula:
    return Not(Until(TOP, interval, Not(phi)))


def implies(phi: Formula, psi: Formula) -> Formula:
    return Or(Not(phi), psi)


def horizon(f: Formula) -> TimeBound:
    """Farthest future offset (ticks) at which a signal can still affect ``f``.

    Infinite upper until-bounds propagate absorbingly; a formula is bounded
    iff its horizon is finite.
    """
    if isinstance(f, (Top, Bottom, Pred)):
        return 0
    if isinstance(f, Not):
        return horizon(f.child)
    if isinstance(f, (And, Or)):
        return max(horizon(f.left), horizon(f.right))
    if isinstance(f, Until):
        sub = max(horizon(f.left), horizon(f.right))
        if f.interval.upper == math.inf or sub == math.inf:
            return math.inf
        return f.interval.upper + sub
    raise TypeError(f"not a formula: {f!r}")


def is_bounded(f: Formula) -> bool:
    return horizon(f) != math.inf


def node_count(f: Formula) -> int:
    if isinstance(f, (Top, Bottom, Pred)):
        return 1
    if isinstance(f, Not):
        return 1 + node_count(f.child)
    if isinstance(f, (And, Or)):
        return 1 + node_count(f.left) + node_count(f.right)
    if isinstance(f, Until):
        return 1 + node_count(f.left) + node_count(f.right)
    raise TypeError(f"not a formula: {f!r}")


def formula_predicates(f: Formula) -> list[Pred]:
    """All predicate leaves, left to right."""
    out: list[Pred] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Pred):
            out.append(g)
        elif isinstance(g, Not):
            walk(g.child)
        elif isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Until):
            walk(g.left)
            walk(g.right)

    walk(f)
    return out
