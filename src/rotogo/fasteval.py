"""Vectorized robustness evaluation over whole signals.

The reference evaluator in :mod:`rotogo.semantics` recurses per time point;
this module instead computes, for each subformula, the robustness at every
sample index in one numpy pass, optionally batched over many candidate
signals that share the same timestamps.  That is what makes the planner's
inner loop affordable: one model-predictive replan evaluates hundreds of
candidate trajectories against the same formula.

The fast and reference evaluators agree bit for bit: boolean connectives
are pure min/max selections, and predicate expressions execute the
identical sequence of IEEE-754 operations whether applied to scalars or
arrays.  The equivalence is enforced on randomized corpora by the test
suite.

The planner reads the robustness at the first sample only.
:func:`eval_robustness_start` computes just that, demand-driven: each node
is asked for a contiguous index range and works on slice views, so an
eventually at one index is one maximum over a slice, and a nested temporal
operator builds its windowed maxima over its sub-range only (robustness
over the index ranges a query needs, as in Donze, Ferrere and Maler,
"Efficient Robust Monitoring for STL", CAV 2013).  Its result equals the
first column of the full table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formula import (
    And,
    Bottom,
    Formula,
    Interval,
    Not,
    Or,
    Pred,
    Top,
    Until,
)
from .signals import Signal

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass
class TouchCounter:
    """Counts how much signal an evaluation had to look at.

    ``samples`` is the number of distinct sample slots visited (the whole
    signal for a full table, the slots a start-only evaluation read);
    ``reads`` counts individual predicate-sample evaluations.
    """

    samples: int = 0
    reads: int = 0

    def visit(self, n_samples: int, n_reads: int) -> None:
        self.samples = max(self.samples, n_samples)
        self.reads += n_reads


def eval_robustness_all(signal: Signal, f: Formula, counter: TouchCounter | None = None) -> np.ndarray:
    """Robustness of ``f`` at every sample time of ``signal``; shape (n,)."""
    comps = {name: col[np.newaxis, :] for name, col in signal.components.items()}
    return eval_robustness_arrays(signal.times, comps, f, counter)[0]


def eval_robustness(signal: Signal, t, f: Formula, counter: TouchCounter | None = None) -> float:
    """Robustness of ``f`` at sample time ``t``; matches the reference evaluator."""
    return float(eval_robustness_all(signal, f, counter)[signal.index_of(t)])


def eval_robustness_arrays(
    times: np.ndarray,
    components: dict[str, np.ndarray],
    f: Formula,
    counter: TouchCounter | None = None,
) -> np.ndarray:
    """Batched robustness table.

    ``times`` has shape (n,) and every component array shape (B, n), one row
    per candidate signal sharing those timestamps.  Returns a (B, n) array of
    robustness values, value[b, j] being the robustness of ``f`` over
    candidate b at sample j.
    """
    times = np.ascontiguousarray(times, dtype=np.int64)
    return _Evaluator(times, components, counter).run(f)


class _Evaluator:
    def __init__(self, times, components, counter):
        self.times = times
        self.components = components
        self.counter = counter
        self.n = times.shape[0]
        self.batch = next(iter(components.values())).shape[0]

    def run(self, f: Formula) -> np.ndarray:
        if isinstance(f, Top):
            return np.full((self.batch, self.n), POS_INF)
        if isinstance(f, Bottom):
            return np.full((self.batch, self.n), NEG_INF)
        if isinstance(f, Pred):
            if self.counter is not None:
                self.counter.visit(self.n, self.batch * self.n)
            return _predicate(f, self.components, self.batch, self.n)
        if isinstance(f, Not):
            return -self.run(f.child)
        if isinstance(f, And):
            return np.minimum(self.run(f.left), self.run(f.right))
        if isinstance(f, Or):
            return np.maximum(self.run(f.left), self.run(f.right))
        if isinstance(f, Until):
            return self._until(f)
        raise TypeError(f"not a formula: {f!r}")

    def _until(self, f: Until) -> np.ndarray:
        right = self.run(f.right)
        lo, hi = _window(self.times, f.interval, self.times)
        if isinstance(f.left, Top):
            # The inner infimum over the left operand is +inf everywhere, so
            # this reduces to a windowed maximum of the right operand.
            return _windowed_max(right, lo, hi)
        left = self.run(f.left)
        return _until_general(left, right, lo, hi)


def eval_robustness_start(
    times: np.ndarray,
    components: dict[str, np.ndarray],
    f: Formula,
    counter: TouchCounter | None = None,
) -> np.ndarray:
    """Robustness of ``f`` at the first sample of every candidate; shape (B,).

    Takes the arguments of :func:`eval_robustness_arrays` and returns its
    first column, computing only the index ranges that column depends on.
    An until with a left operand other than ``true`` is evaluated through
    the full table.  ``counter`` records the distinct samples actually read.
    """
    times = np.ascontiguousarray(times, dtype=np.int64)
    ev = _StartEvaluator(times, components)
    out = ev.run(f, 0, 1)[:, 0]
    if counter is not None and ev.spans:
        counter.visit(_covered(ev.spans), ev.reads)
    return out


class _StartEvaluator:
    """Robustness over contiguous index ranges [a, b) of the signal."""

    def __init__(self, times, components):
        self.times = times
        self.components = components
        self.n = times.shape[0]
        self.batch = next(iter(components.values())).shape[0]
        self.spans: list[tuple[int, int]] = []  # index ranges predicates read
        self.reads = 0
        self._views: dict[tuple[int, int], dict[str, np.ndarray]] = {}

    def visit(self, n_samples: int, n_reads: int) -> None:
        """TouchCounter interface, for the full-table fallback."""
        self.spans.append((0, n_samples))
        self.reads += n_reads

    def run(self, f: Formula, a: int, b: int) -> np.ndarray:
        if isinstance(f, Top):
            return np.full((self.batch, b - a), POS_INF)
        if isinstance(f, Bottom):
            return np.full((self.batch, b - a), NEG_INF)
        if isinstance(f, Pred):
            self.spans.append((a, b))
            self.reads += self.batch * (b - a)
            return _predicate(f, self._view(a, b), self.batch, b - a)
        if isinstance(f, Not):
            return -self.run(f.child, a, b)
        if isinstance(f, And):
            return np.minimum(self.run(f.left, a, b), self.run(f.right, a, b))
        if isinstance(f, Or):
            return np.maximum(self.run(f.left, a, b), self.run(f.right, a, b))
        if isinstance(f, Until):
            return self._until(f, a, b)
        raise TypeError(f"not a formula: {f!r}")

    def _view(self, a: int, b: int) -> dict[str, np.ndarray]:
        if a == 0 and b == self.n:
            return self.components
        view = self._views.get((a, b))
        if view is None:
            view = self._views[(a, b)] = {name: col[:, a:b] for name, col in self.components.items()}
        return view

    def _until(self, f: Until, a: int, b: int) -> np.ndarray:
        if not isinstance(f.left, Top):
            return _Evaluator(self.times, self.components, self).run(f)[:, a:b]
        if b - a == 1:
            lo, hi = _window(self.times, f.interval, self.times[a])
            if hi <= lo:
                return np.full((self.batch, 1), NEG_INF)
            return self.run(f.right, int(lo), int(hi)).max(axis=1, keepdims=True)
        lo, hi = _window(self.times, f.interval, self.times[a:b])
        live = hi > lo
        if not live.any():
            return np.full((self.batch, b - a), NEG_INF)
        # Window bounds never decrease with the index, so the live windows
        # lie within [first live lower bound, last live upper bound).
        start, stop = int(lo[live][0]), int(hi[live][-1])
        return _windowed_max(self.run(f.right, start, stop), lo - start, hi - start)


def _predicate(f: Pred, env: dict[str, np.ndarray], batch: int, width: int) -> np.ndarray:
    out = f.fn.eval(env)
    if np.ndim(out) == 0:
        return np.full((batch, width), out, dtype=np.float64)
    return np.asarray(out, dtype=np.float64)


def _covered(spans: list[tuple[int, int]]) -> int:
    """Number of indices in the union of half-open ranges."""
    total = end = 0
    for a, b in sorted(spans):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _window(times: np.ndarray, interval: Interval, start) -> tuple:
    """Half-open index window [lo, hi) of the samples inside interval + start.

    ``start`` is one sample time or an array of them (then lo and hi are
    arrays too).
    """
    lo = np.searchsorted(times, start + interval.lower, side="left" if interval.lower_closed else "right")
    if interval.upper == math.inf:
        hi = times.shape[0]
    else:
        hi = np.searchsorted(times, start + int(interval.upper), side="right" if interval.upper_closed else "left")
    return lo, np.maximum(lo, hi)


def _windowed_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[:, j] = max(values[:, lo[j]:hi[j]]), -inf on empty windows.

    Sparse-table range maxima: O(n log n) build, all queries answered with
    two overlapping power-of-two blocks.  Max is a selection, so results are
    exactly the same floats the reference evaluator produces.
    """
    batch = values.shape[0]
    out = np.full((batch, lo.shape[0]), NEG_INF)
    width = hi - lo
    if not (width > 0).any():
        return out
    max_width = int(width.max())
    levels = [values]
    while (1 << len(levels)) <= max_width:
        prev = levels[-1]
        half = 1 << (len(levels) - 1)
        levels.append(np.maximum(prev[:, : prev.shape[1] - half], prev[:, half:]))
    exponents = np.frexp(np.maximum(width, 1).astype(np.float64))[1] - 1
    for p in np.unique(exponents[width > 0]):
        mask = (exponents == p) & (width > 0)
        table = levels[int(p)]
        a = table[:, lo[mask]]
        b = table[:, hi[mask] - (1 << int(p))]
        out[:, mask] = np.maximum(a, b)
    return out


def _until_general(left: np.ndarray, right: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Until tables for a non-trivial left operand.

    Quadratic in signal length; only exercised by formulas whose until has a
    non-true left side, which the planner's specifications never produce.
    """
    batch, n = left.shape
    out = np.full((batch, n), NEG_INF)
    for j in range(n):
        lo_j, hi_j = int(lo[j]), int(hi[j])
        if hi_j <= lo_j:
            continue
        vals = right[:, lo_j:hi_j].copy()
        if hi_j - 1 > j:
            # Running minimum of the left operand over [t_j, t_k); the k == j
            # column keeps an empty infimum (+inf), i.e. stays untouched.
            run_min = np.minimum.accumulate(left[:, j : hi_j - 1], axis=1)
            ks = np.arange(lo_j, hi_j)
            sel = ks > j
            vals[:, sel] = np.minimum(vals[:, sel], run_min[:, ks[sel] - j - 1])
        out[:, j] = vals.max(axis=1)
    return out
