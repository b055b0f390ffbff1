"""Formula progression: rewrite a formula after observing one sample.

Progressing a formula by a time step consumes the current observation, so
that evaluating the progressed formula over the remaining suffix is
equivalent to evaluating the original formula over the whole signal.
Quantitatively, the robustness of the progressed formula at the next sample
time equals the robustness-to-go of the original formula with the cut placed
at the consumed sample; the self-test suite checks this identity exactly on
randomized corpora.

Until operators are rewritten by shifting their interval earlier by the step
and clipping at zero; an until whose interval becomes empty resolves to
false.  Without simplification the rewritten formula grows by a constant
factor per step, so every node a step builds goes through the same smart
constructors that :func:`simplify` uses (``_not``, ``_and``, ``_or``,
``_until``): one walk per step progresses, simplifies and counts nodes, and
its result equals ``simplify`` of the plain rewrite.  Each constructor
returns the node with its size, so the size guard needs no further walk.

The operands of an until that the rewrite keeps untouched are simplified
again only when the input may be unsimplified: in :func:`progress`, and at
a monitor's first step.  From then on a step's input is the previous step's
output, already simplified, and simplifying it again would return it as is.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .formula import (
    And,
    BOTTOM,
    Bottom,
    Formula,
    Interval,
    Not,
    Or,
    Pred,
    TOP,
    TimePoint,
    Top,
    Until,
    node_count,
)
from .semantics import robustness
from .signals import Signal

#: Hard cap on progressed-formula size, guarding against pathological nesting.
MAX_PROGRESSED_NODES = 10_000


class FormulaSizeError(RuntimeError):
    pass


def progress(f: Formula, delta: TimePoint, state: Mapping[str, float]) -> Formula:
    """Progress ``f`` by ``delta`` ticks given the observed ``state``.

    The result is simplified.  ``delta`` must be positive.
    """
    return _progress_checked(f, delta, state, True)


def _progress_checked(f: Formula, delta: TimePoint, state: Mapping[str, float], fresh: bool) -> Formula:
    """:func:`progress`; ``fresh`` is False only when ``f`` is known to be
    simplified already, a previous step's result."""
    if delta <= 0:
        raise ValueError("progression requires delta > 0")
    out, size, _ = _step(f, delta, state, fresh)
    if size > MAX_PROGRESSED_NODES:
        raise FormulaSizeError(f"progressed formula exceeds {MAX_PROGRESSED_NODES} nodes")
    return out


def _step(f: Formula, delta: TimePoint, state: Mapping[str, float], fresh: bool) -> tuple[Formula, int, int]:
    """``simplify`` of ``f`` progressed, its size, and the size of ``f``.

    Predicates are evaluated in the order of a plain rewrite followed by
    :func:`simplify`: both operands of ``And`` and ``Or`` even when the
    left one decides it, and an until's left operand before its right one,
    so a missing variable raises where that form raises.
    """
    if isinstance(f, Pred):
        return (TOP if f.fn.eval(state) > 0 else BOTTOM), 1, 1
    if isinstance(f, Not):
        c, n, m = _step(f.child, delta, state, fresh)
        return (*_not(c, n), m + 1)
    if isinstance(f, And):
        l, nl, ml = _step(f.left, delta, state, fresh)
        r, nr, mr = _step(f.right, delta, state, fresh)
        return (*_and(l, nl, r, nr), ml + mr + 1)
    if isinstance(f, Or):
        l, nl, ml = _step(f.left, delta, state, fresh)
        r, nr, mr = _step(f.right, delta, state, fresh)
        return (*_or(l, nl, r, nr), ml + mr + 1)
    if isinstance(f, Until):
        interval = f.interval
        if interval.is_empty():  # no time in the window: false, reading nothing
            return BOTTOM, 1, node_count(f)
        left_now, n_now, ml = _step(f.left, delta, state, fresh)
        now = interval.contains_zero()
        if now:  # the right operand may already hold now
            right_now, n_right, mr = _step(f.right, delta, state, fresh)
        else:
            mr = node_count(f.right)
        if isinstance(left_now, Bottom):
            out = BOTTOM, 1  # the left operand fails now: nothing is left to hold later
        else:
            # The rest of the obligation: the same operands over the
            # shifted window, simplified again only if the input may not be.
            if fresh:
                l, nl = _simplified(f.left)
                r, nr = _simplified(f.right)
            else:
                l, nl, r, nr = f.left, ml, f.right, mr
            out = _and(left_now, n_now, *_until(l, nl, interval.shift_truncate(delta), r, nr))
        if now:
            out = _or(right_now, n_right, *out)
        return (*out, ml + mr + 1)
    if isinstance(f, (Top, Bottom)):
        return f, 1, 1
    raise TypeError(f"not a formula: {f!r}")


def simplify(f: Formula) -> Formula:
    """Remove true/false constants and double negations, bottom-up.

    Rewrites preserve robustness (and robustness-to-go) exactly on every
    signal: each rule only discards operands that are absorbed by min/max
    against an infinity.
    """
    return _simplified(f)[0]


def _simplified(f: Formula) -> tuple[Formula, int]:
    """:func:`simplify` of ``f`` and its size."""
    if isinstance(f, Not):
        return _not(*_simplified(f.child))
    if isinstance(f, And):
        return _and(*_simplified(f.left), *_simplified(f.right))
    if isinstance(f, Or):
        return _or(*_simplified(f.left), *_simplified(f.right))
    if isinstance(f, Until):
        return _until(*_simplified(f.left), f.interval, *_simplified(f.right))
    return f, 1


# Smart constructors: the simplification rules for one node whose operands
# are simplified already.  Each takes and returns (node, size) pairs, flat.


def _not(c: Formula, n: int) -> tuple[Formula, int]:
    if isinstance(c, Top):
        return BOTTOM, 1
    if isinstance(c, Bottom):
        return TOP, 1
    if isinstance(c, Not):
        return c.child, n - 1
    return Not(c), n + 1


def _and(l: Formula, nl: int, r: Formula, nr: int) -> tuple[Formula, int]:
    if isinstance(l, Bottom) or isinstance(r, Bottom):
        return BOTTOM, 1
    if isinstance(l, Top):
        return r, nr
    if isinstance(r, Top):
        return l, nl
    return And(l, r), nl + nr + 1


def _or(l: Formula, nl: int, r: Formula, nr: int) -> tuple[Formula, int]:
    if isinstance(l, Top) or isinstance(r, Top):
        return TOP, 1
    if isinstance(l, Bottom):
        return r, nr
    if isinstance(r, Bottom):
        return l, nl
    return Or(l, r), nl + nr + 1


def _until(l: Formula, nl: int, interval: Interval, r: Formula, nr: int) -> tuple[Formula, int]:
    if interval.is_empty():
        return BOTTOM, 1
    if isinstance(l, Bottom) and not interval.contains_zero():
        return BOTTOM, 1
    return Until(l, interval, r), nl + nr + 1


# ---------------------------------------------------------------------------
# Incremental monitor


@dataclass(frozen=True, slots=True)
class MonitorState:
    """A progressed formula together with the time it is anchored at.

    ``current`` is the fold of :func:`progress` over all consumed samples,
    and ``anchor_time`` is the timestamp the next observation is expected
    at.  Once ``current`` reaches true or false the verdict is absorbing.
    """

    current: Formula
    anchor_time: TimePoint
    step_count: int = 0

    @property
    def verdict(self) -> str:
        if isinstance(self.current, Top):
            return "satisfied"
        if isinstance(self.current, Bottom):
            return "violated"
        return "undecided"


def start_monitor(f: Formula, t0: TimePoint) -> MonitorState:
    return MonitorState(current=f, anchor_time=t0)


def monitor_step(m: MonitorState, next_sample_time: TimePoint, state: Mapping[str, float]) -> MonitorState:
    """Consume the observation at ``m.anchor_time`` and advance the anchor."""
    if next_sample_time <= m.anchor_time:
        raise ValueError("monitor time must be strictly increasing")
    if isinstance(m.current, (Top, Bottom)):
        progressed = m.current  # absorbing verdict, skip the recursion
    else:
        # After the first step, ``current`` is a previous step's result.
        fresh = m.step_count == 0
        progressed = _progress_checked(m.current, next_sample_time - m.anchor_time, state, fresh)
    return MonitorState(progressed, next_sample_time, m.step_count + 1)


def progress_along(f0: Formula, signal: Signal, upto_index: int) -> Formula:
    """Fold :func:`monitor_step` over samples 0..upto_index of ``signal``,
    from ``start_monitor(f0, signal.t0)``; the formula it reaches."""
    m = start_monitor(f0, signal.t0)
    for k in range(upto_index + 1):
        m = monitor_step(m, signal.t(k + 1), signal.state(k))
    return m.current


def rotogo_via_progression(signal: Signal, cut_index: int, f0: Formula) -> float:
    """Robustness-to-go with the cut at sample ``cut_index``, via progression.

    Progresses ``f0`` through samples 0..cut_index and evaluates the result's
    robustness at the following sample time.  Equals the direct
    robustness-to-go of ``f0`` from the signal start with the cut at
    ``t(cut_index)``.
    """
    if not 0 <= cut_index < len(signal) - 1:
        raise IndexError(f"cut_index {cut_index} out of range for {len(signal)} samples")
    progressed = progress_along(f0, signal, cut_index)
    return robustness(signal, signal.t(cut_index + 1), progressed)
