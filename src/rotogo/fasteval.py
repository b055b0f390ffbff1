"""Vectorized robustness evaluation, compiled once per formula and grid.

The reference evaluator in :mod:`rotogo.semantics` recurses per time point;
this module computes the robustness at a whole range of sample indices in
numpy passes, batched over many candidate signals that share the same
timestamps.  That is what makes the planner's inner loop affordable: one
model-predictive replan evaluates hundreds of candidate trajectories
against the same formula.  An eventually is a windowed maximum; an until
with a non-trivial left operand sweeps the offset between a sample and its
witness sample, one vectorized step per offset, carrying the running
minimum of the left operand along.

There is one evaluator, :class:`Program`: the robustness at the samples
[0, width) of a time grid, split into compile and run.  Monitoring asks for
every sample (:func:`eval_robustness_arrays`, width n); the planner asks
for the first sample of every candidate (:func:`eval_robustness_start` and
:class:`~rotogo.planning.PlanningProblem`, width 1).  Compiling asks each
node, top-down, for the contiguous index range its parent needs
(robustness over the index ranges a query needs, as in Donze, Ferrere and
Maler, "Efficient Robust Monitoring for STL", CAV 2013), so an eventually
at one index is one maximum over a slice and a temporal operator builds
its windowed maxima over the range its parent reads only.  Everything that
depends on the formula and the times alone is settled then, once: windows
become integer index ranges and sparse-table gather indices, structurally
equal subformulas and predicate subexpressions over the same range become
one step, constant subexpressions fold, and double negations cancel.  The
result is a flat list of numpy steps over numbered registers, and a run
executes it on one batch of candidates.  Registers are allocated by
liveness: a table is released as soon as its last reader has run, and an
elementwise step writes over an operand it is the last to read.  That is
not a nicety.  Kept alive, the ~30 (25, 201) intermediates of a
``phi_avoid`` evaluation (about 1.2 MB) outgrow the cache: on a 2-vCPU
2.1 GHz Xeon a run then took three times as long.  Released, each table's
warm memory serves the next.

The fast and reference evaluators agree bit for bit: boolean connectives
are pure min/max selections, and predicate expressions execute the
identical sequence of IEEE-754 operations whether applied to scalars or
arrays.  The equivalence is enforced on randomized corpora by the test
suite, and so is the equality of every width-1 result with the matching
column of the full table.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .formula import (
    And,
    BinOp,
    Bottom,
    Const,
    Expr,
    Formula,
    Interval,
    Neg,
    Not,
    Or,
    Pow,
    Pred,
    Top,
    Until,
    Var,
    _int_pow,
)
from .signals import Signal

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass
class TouchCounter:
    """Counts how much signal an evaluation had to look at.

    ``samples`` is the number of distinct sample slots read, the union of
    the index ranges the predicates were evaluated over; ``reads`` counts
    predicate-sample evaluations, a predicate shared by several subformulas
    over one index range counting once.
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
    return Program(times, f, len(times)).run(components, counter)


def eval_robustness_start(
    times: np.ndarray,
    components: dict[str, np.ndarray],
    f: Formula,
    counter: TouchCounter | None = None,
) -> np.ndarray:
    """Robustness of ``f`` at the first sample of every candidate; shape (B,).

    Takes the arguments of :func:`eval_robustness_arrays` and returns its
    first column, computing only the index ranges that column depends on.
    Callers that score many populations against one formula and one time
    grid compile a width-1 :class:`Program` once instead.
    """
    return Program(times, f, 1).run(components, counter)[:, 0]


class Program:
    """The robustness of ``f`` at the samples [0, width) of ``times``, compiled.

    Compiling walks the formula once, top-down, asking each node for the
    contiguous index range [a, b) its parent needs, and emits one flat list
    of numpy steps: every window becomes integer index bounds, structurally
    equal subformulas and predicate subexpressions over the same range
    become one step, constant predicate subexpressions are folded, and
    ``Not(Not(phi))`` is ``phi``.  :meth:`run` executes the steps on one
    batch of candidates, releasing each intermediate table after its last
    reader.
    """

    def __init__(self, times: np.ndarray, f: Formula, width: int):
        build = _Compiler(np.ascontiguousarray(times, dtype=np.int64))
        #: The sample times the program is compiled for, int64 ticks.
        self.times = build.times
        root = build.emit(f, 0, width)
        if root in build.loads:
            # A bare component: copy it, or the table is the caller's array.
            root = build._op(_make_call, (root,), np.copy)
        self._loads, self._steps, self._out, self._registers = build.allocate(root)
        # Distinct samples and, per candidate, predicate-sample reads of a run.
        self._samples = _covered(build.spans)
        self._reads = build.reads

    def run(self, components: dict[str, np.ndarray], counter: TouchCounter | None = None) -> np.ndarray:
        """Robustness at the compiled samples of every row of ``components``.

        ``components`` maps each name to a (B, n) array over the compiled
        times; they are read as float64.  Returns shape (B, width).
        """
        batch = next(iter(components.values())).shape[0]
        r = [None] * self._registers
        r[0] = batch
        for slot, name, a, b in self._loads:
            r[slot] = np.asarray(components[name], dtype=np.float64)[:, a:b]
        for step in self._steps:
            step(r)
        if counter is not None and self._samples:
            counter.visit(self._samples, batch * self._reads)
        return r[self._out]


class _Const:
    """A predicate subexpression folded to a scalar at compile time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


#: Predicate arithmetic: the scalar function (what ``Expr.eval`` applies,
#: used to fold constants and for array-scalar steps) and the ufunc of
#: array-array steps, which can write over a dead operand.
_BINARY = {"+": (operator.add, np.add), "-": (operator.sub, np.subtract), "*": (operator.mul, np.multiply)}


def _const_key(v) -> tuple:
    # 0.0 == -0.0 and 1 == 1.0 as dictionary keys, but not as operands.
    return (type(v), v.hex() if isinstance(v, float) else v)


class _Compiler:
    """Emits the steps of a query over an index range in SSA form.

    A value is an integer id.  ``code`` holds (make, value, args, param)
    entries in execution order, ``make`` building the step that computes
    ``value`` from the values ``args``; ``loads`` maps a value to the
    (name, a, b) component slice it stands for.  Values are numbered by
    what computes them (value numbering): a step on the same values with
    the same parameters is the value already emitted, so structurally equal
    subformulas and predicate subexpressions over one index range are
    computed once, and every key is a flat tuple hashed once.
    """

    def __init__(self, times: np.ndarray):
        self.times = times
        self.code: list[tuple] = []
        self.loads: dict[int, tuple[str, int, int]] = {}
        self.spans: list[tuple[int, int]] = []  # index ranges predicates read
        self.reads = 0  # per candidate
        self._numbers: dict[tuple, int] = {}
        self._predicates: set[int] = set()  # values predicates produced

    def _load(self, name: str, a: int, b: int) -> int:
        key = ("load", name, a, b)
        v = self._numbers.get(key)
        if v is None:
            v = self._numbers[key] = len(self._numbers)
            self.loads[v] = (name, a, b)
        return v

    def _op(self, make, args: tuple, param=None, key=None) -> int:
        """The value ``make(param)`` computes from ``args``; ``key`` stands
        for ``param`` in the value number when ``param`` is not a value."""
        number = (make, args, param if key is None else key)
        v = self._numbers.get(number)
        if v is None:
            v = self._numbers[number] = len(self._numbers)
            self.code.append((make, v, args, param))
        return v

    def _fill(self, value: float, width: int) -> int:
        return self._op(_make_fill, (), (value, width), (_const_key(value), width))

    # -- formulas -------------------------------------------------------------

    def emit(self, f: Formula, a: int, b: int) -> int:
        """Value of ``f`` over the index range [a, b), shape (B, b - a)."""
        while isinstance(f, Not) and isinstance(f.child, Not):
            f = f.child.child  # negation is exact, so it cancels bit for bit
        if isinstance(f, Pred):
            v = self.expr(f.fn, a, b)
            if isinstance(v, _Const):
                v = self._fill(v.value, b - a)
            if v not in self._predicates:
                self._predicates.add(v)
                self.spans.append((a, b))
                self.reads += b - a
            return v
        if isinstance(f, And):
            return self._op(_make_call, (self.emit(f.left, a, b), self.emit(f.right, a, b)), np.minimum)
        if isinstance(f, Or):
            return self._op(_make_call, (self.emit(f.left, a, b), self.emit(f.right, a, b)), np.maximum)
        if isinstance(f, Not):
            return self._op(_make_call, (self.emit(f.child, a, b),), np.negative)
        if isinstance(f, Until):
            return self._until(f, a, b)
        if isinstance(f, Top):
            return self._fill(POS_INF, b - a)
        if isinstance(f, Bottom):
            return self._fill(NEG_INF, b - a)
        raise TypeError(f"not a formula: {f!r}")

    def _until(self, f: Until, a: int, b: int) -> int:
        if isinstance(f.left, Top) and b - a == 1:
            lo, hi = _window(self.times, f.interval, self.times[a:b])
            lo, hi = int(lo[0]), int(hi[0])
            if hi <= lo:
                return self._fill(NEG_INF, 1)
            return self._op(_make_row_max, (self.emit(f.right, lo, hi),))
        lo, hi = _window(self.times, f.interval, self.times[a:b])
        live = hi > lo
        if not live.any():
            return self._fill(NEG_INF, b - a)
        # Window bounds never decrease with the index, so the live windows
        # lie within [first live lower bound, last live upper bound).
        start, stop = int(lo[live][0]), int(hi[live][-1])
        right = self.emit(f.right, start, stop)
        i = f.interval
        key = (i.lower, i.upper, i.lower_closed, i.upper_closed, a, b)
        if isinstance(f.left, Top):
            return self._op(_make_call, (right,), _windowed_max_plan(lo - start, hi - start), key)
        # Sample j reads the left operand over [j, hi_j - 1).
        wide = live & (hi - 1 > np.arange(a, b))
        if not wide.any():
            return self._op(_make_call, (right,), partial(_until_general, None, lo=lo, hi=hi, a=a, ra=start), key)
        left_start = a + int(np.flatnonzero(wide)[0])
        left = self.emit(f.left, left_start, int(hi[wide][-1]) - 1)
        general = partial(_until_general, lo=lo, hi=hi, a=a, la=left_start, ra=start)
        return self._op(_make_call, (left, right), general, key)

    # -- predicate expressions ------------------------------------------------

    def expr(self, e: Expr, a: int, b: int):
        """Value of the expression ``e`` over [a, b), or a _Const."""
        # Constant subexpressions fold with the scalar operations Expr.eval
        # performs, so every operand keeps its exact value.
        if isinstance(e, Var):
            return self._load(e.name, a, b)
        if isinstance(e, Const):
            return _Const(e.value)
        if isinstance(e, BinOp):
            if e.op not in _BINARY:
                raise ValueError(f"unknown operator {e.op!r}")
            scalar, ufunc = _BINARY[e.op]
            left, right = self.expr(e.left, a, b), self.expr(e.right, a, b)
            if isinstance(left, _Const) and isinstance(right, _Const):
                return _Const(scalar(left.value, right.value))
            if isinstance(right, _Const):
                return self._op(_make_call_const, (left,), (scalar, right.value), (scalar, _const_key(right.value)))
            if isinstance(left, _Const):
                return self._op(_make_const_call, (right,), (scalar, left.value), (scalar, _const_key(left.value)))
            return self._op(_make_call, (left, right), ufunc)
        if isinstance(e, Neg):
            child = self.expr(e.child, a, b)
            if isinstance(child, _Const):
                return _Const(-child.value)
            return self._op(_make_call, (child,), np.negative)
        if isinstance(e, Pow):
            base = self.expr(e.base, a, b)
            if isinstance(base, _Const):
                return _Const(_int_pow(base.value, e.exponent))
            return self._pow(base, e.exponent)
        raise TypeError(f"not an expression: {e!r}")

    def _pow(self, x: int, n: int) -> int:
        """The multiplications of formula._int_pow, in its order, as steps."""
        if n == 0:
            zero = self._op(_make_call_const, (x,), (operator.mul, 0), (operator.mul, _const_key(0)))
            return self._op(_make_call_const, (zero,), (operator.add, 1.0), (operator.add, _const_key(1.0)))
        result = None
        while True:
            if n & 1:
                result = x if result is None else self._op(_make_call, (result, x), np.multiply)
            n >>= 1
            if n == 0:
                return result
            x = self._op(_make_call, (x, x), np.multiply)

    # -- registers ------------------------------------------------------------

    def allocate(self, root: int):
        """Assign registers to values and build the steps.

        Register 0 holds the batch size and every component slice keeps its
        own register.  Once the last step reading a table has run, its
        register is free: an elementwise step writes its result over a table
        it is the last to read, and any other step takes a freed register.
        Dead tables are thus dropped at once and their memory reused, which
        keeps the working set small and cache-resident.
        """
        last = {}
        for i, (_, _, args, _) in enumerate(self.code):
            for u in args:
                last[u] = i
        last[root] = len(self.code)
        slot = {v: s for s, v in enumerate(self.loads, start=1)}
        loads = [(slot[v], name, a, b) for v, (name, a, b) in self.loads.items()]
        registers = len(slot) + 1
        free: list[int] = []
        steps = []
        for i, (make, v, args, param) in enumerate(self.code):
            dead = [slot[u] for u in dict.fromkeys(args) if last[u] == i and u not in self.loads]
            if make is _make_call and isinstance(param, np.ufunc) and dead:
                slot[v] = dead.pop(0)
                make = _make_in_place
            free.extend(dead)
            if v not in slot:
                if free:
                    slot[v] = free.pop()
                else:
                    slot[v] = registers
                    registers += 1
            steps.append(make(slot[v], [slot[u] for u in args], param))
        return loads, steps, slot[root], registers


def _make_fill(out: int, args, param):
    value, width = param

    def step(r):
        r[out] = np.full((r[0], width), value, dtype=np.float64)

    return step


def _make_call(out: int, args, fn):
    if len(args) == 1:
        (x,) = args

        def step(r):
            r[out] = fn(r[x])

    else:
        x, y = args

        def step(r):
            r[out] = fn(r[x], r[y])

    return step


def _make_in_place(out: int, args, fn):
    """``fn`` writing into register ``out``, which one of ``args`` holds."""
    if len(args) == 1:
        (x,) = args

        def step(r):
            fn(r[x], out=r[out])

    else:
        x, y = args

        def step(r):
            fn(r[x], r[y], out=r[out])

    return step


def _make_call_const(out: int, args, param):
    fn, k = param
    (x,) = args

    def step(r):
        r[out] = fn(r[x], k)

    return step


def _make_const_call(out: int, args, param):
    fn, k = param
    (x,) = args

    def step(r):
        r[out] = fn(k, r[x])

    return step


def _make_row_max(out: int, args, param):
    """Maximum of every row, shape (B, 1): the ufunc reduction that
    ``values.max(axis=1, keepdims=True)`` runs, called directly."""
    (x,) = args
    reduce = np.maximum.reduce

    def step(r):
        r[out] = reduce(r[x], 1, None, None, True)

    return step


def _covered(spans: list[tuple[int, int]]) -> int:
    """Number of indices in the union of half-open ranges."""
    total = end = 0
    for a, b in sorted(spans):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _window(times: np.ndarray, interval: Interval, start: np.ndarray) -> tuple:
    """Half-open index windows [lo, hi) of the samples inside interval + start.

    ``start`` is an array of sample times of ``times``; lo and hi hold one
    bound per start.
    """
    # The exact distance from each start to the last sample: the int64
    # difference wraps when it exceeds 2**63 - 1, and read as uint64 it is
    # exact again.
    room = (times[-1] - start).view(np.uint64)
    lo = _search(times, start, room, interval.lower, "left" if interval.lower_closed else "right")
    if interval.upper == math.inf:
        hi = times.shape[0]
    else:
        hi = _search(times, start, room, int(interval.upper), "right" if interval.upper_closed else "left")
    return lo, np.maximum(lo, hi)


def _search(times: np.ndarray, start: np.ndarray, room: np.ndarray, bound: int, side: str) -> np.ndarray:
    """``searchsorted(times, start + bound, side)``, without forming a sum
    that lies past the last sample and so could leave the int64 range.

    The parser accepts bounds far beyond the int64 tick range, and sample
    times may lie near either end of it.  A start with ``room`` < ``bound``
    finds no sample at or past start + bound (index n); every other sum lies
    within [start, last sample] and is formed exactly, by wrapping uint64
    addition.
    """
    beyond = room < bound  # exact for any Python int
    step = np.minimum(room, np.uint64(min(bound, 2**64 - 1)))
    found = np.searchsorted(times, (start.view(np.uint64) + step).view(np.int64), side=side)
    found[beyond] = times.shape[0]
    return found


def _windowed_max_plan(lo: np.ndarray, hi: np.ndarray):
    """The windowed maximum over fixed windows, as a function of the values.

    Sparse-table range maxima: O(n log n) build, all queries answered with
    two overlapping power-of-two blocks.  Max is a selection, so results are
    exactly the same floats the reference evaluator produces.  The windows'
    block sizes and gather indices are worked out here, once.
    """
    count = lo.shape[0]
    width = hi - lo
    live = width > 0
    depth = int(width.max()).bit_length()
    exponents = np.frexp(np.maximum(width, 1).astype(np.float64))[1] - 1
    groups = []
    # The block exponents in use, ascending; np.unique would give the same
    # but import numpy.ma on its first call.
    for p in np.flatnonzero(np.bincount(exponents[live])).tolist():
        mask = (exponents == p) & live
        groups.append((p, mask, lo[mask], hi[mask] - (1 << p)))

    def windowed_max(values: np.ndarray) -> np.ndarray:
        """out[:, j] = max(values[:, lo[j]:hi[j]]), -inf on empty windows."""
        levels = [values]
        while len(levels) < depth:
            prev = levels[-1]
            half = 1 << (len(levels) - 1)
            levels.append(np.maximum(prev[:, : prev.shape[1] - half], prev[:, half:]))
        out = np.full((values.shape[0], count), NEG_INF)
        for p, mask, a, b in groups:
            out[:, mask] = np.maximum(levels[p][:, a], levels[p][:, b])
        return out

    return windowed_max


def _until_general(left, right: np.ndarray, lo: np.ndarray, hi: np.ndarray, a: int = 0, la: int = 0, ra: int = 0) -> np.ndarray:
    """Until values at samples a, a+1, ... for a non-trivial left operand.

    ``lo``/``hi`` are the (absolute) index windows of those samples; ``left``
    and ``right`` hold the operands' columns from index ``la`` and ``ra`` on
    (``left`` is None when no window reaches past its own sample).  The value
    at sample j is the maximum over k in [lo_j, hi_j) of
    min(right_k, left_j, ..., left_{k-1}).  Instead of visiting samples, this
    sweeps the offset d = k - j: each offset is one vectorized step over all
    samples, which extends the running minimum of the left operand by one
    column and folds right_{j+d} into the samples whose window holds j + d.
    The cost is one step per offset the widest window spans.
    """
    batch, count = right.shape[0], lo.shape[0]
    out = np.full((batch, count), NEG_INF)
    j = np.arange(a, a + count)
    first, stop = lo - j, hi - j  # sample j's window holds the offsets [first, stop)
    live = np.flatnonzero(stop > first)
    if not live.size:
        return out
    # Samples whose window still holds an offset beyond d: [i0, ends[d]).
    reach = np.maximum.accumulate(stop[::-1])[::-1]
    span = int(reach[0])
    ends = np.searchsorted(-reach, -np.arange(span), side="left")
    i0, low = int(live[0]), int(first[live].min())
    # Operand columns from index a on, padded where no window reads them.
    rights = _columns(right, ra - a, count + span - 1, NEG_INF)
    lefts = _columns(left, la - a, count + span - 2, POS_INF) if span > 1 else None
    # min of left over [j, j + d); empty (+inf) at d = 0, where min returns
    # right_j itself.  min and max only select, so every value is an operand.
    run = np.full((batch, count), POS_INF)
    vals = np.empty((batch, count))
    for d in range(span):
        end = int(ends[d])
        if d:
            np.minimum(run[:, i0:end], lefts[:, i0 + d - 1 : end + d - 1], out=run[:, i0:end])
        if d < low:
            continue
        held = (first[i0:end] <= d) & (stop[i0:end] > d)
        np.minimum(rights[:, i0 + d : end + d], run[:, i0:end], out=vals[:, i0:end])
        np.maximum(out[:, i0:end], vals[:, i0:end], out=out[:, i0:end], where=held)
    return out


def _columns(values: np.ndarray, at: int, width: int, fill: float) -> np.ndarray:
    """``width`` columns holding ``values`` from column ``at`` on, ``fill`` elsewhere."""
    out = np.full((values.shape[0], width), fill)
    n = min(values.shape[1], width - at)
    out[:, at : at + n] = values[:, :n]
    return out
