"""Finite timed signals over named state components, plus trace CSV I/O.

Semantics are pointwise: a signal is exactly its samples, there is no
interpolation between timestamps.  Evaluators quantify over the finite set
of sample times only.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .formula import Interval, TimePoint, to_seconds, to_ticks

#: Core state components carried by every simulation trace.
STATE_COMPONENTS = ("x", "y", "vx", "vy", "xe", "ye")

#: Optional control-input and disturbance columns.
EXTRA_COMPONENTS = ("ax", "ay", "w1", "w2")


class NoSampleError(ValueError):
    """Raised when a signal is queried at a non-sample time."""


@dataclass(frozen=True)
class Sample:
    t: TimePoint
    state: Mapping[str, float]


class Signal:
    """Immutable sequence of samples with strictly increasing timestamps.

    Stored as one int64 array of tick times plus one float64 array per
    component, which lets evaluators and predicates work on whole columns.
    The tick times are also kept once as a list of Python ints: the
    reference evaluators look up sample times one at a time, and ``bisect``
    on that list and list slices answer such lookups several times faster
    than scalar calls into numpy.

    The reference evaluators also read one sample's state per predicate
    evaluation through :meth:`value_at`.  Its row is built the first time
    that sample is read and kept in a per-sample slot, so memory grows with
    the samples read, not with the signal's length.  Rows are shared between
    callers and therefore read-only (``types.MappingProxyType``);
    :meth:`state` returns a fresh dict that the caller may change.
    """

    __slots__ = ("times", "components", "_ticks", "_rows")

    def __init__(self, times: np.ndarray, components: Mapping[str, np.ndarray]):
        times = np.asarray(times, dtype=np.int64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("a signal needs at least one sample")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("sample timestamps must be strictly increasing")
        comps = {}
        for name, values in components.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != times.shape:
                raise ValueError(f"component {name!r} has {arr.shape[0] if arr.ndim else 0} values for {times.size} samples")
            if not np.isfinite(arr).all():
                raise ValueError(f"component {name!r} contains non-finite values")
            comps[name] = arr
        self.times = times
        self.components = comps
        self._ticks: list[int] = times.tolist()
        self._rows: list[Optional[Mapping[str, float]]] = [None] * len(self._ticks)

    @classmethod
    def from_samples(cls, samples: Sequence[Sample]) -> "Signal":
        if not samples:
            raise ValueError("a signal needs at least one sample")
        names = sorted(samples[0].state)
        times = np.array([s.t for s in samples], dtype=np.int64)
        comps = {n: np.array([s.state[n] for s in samples]) for n in names}
        return cls(times, comps)

    def __len__(self) -> int:
        return len(self._ticks)

    @property
    def t0(self) -> TimePoint:
        return self._ticks[0]

    @property
    def t_end(self) -> TimePoint:
        return self._ticks[-1]

    def t(self, index: int) -> TimePoint:
        return self._ticks[index]

    def state(self, index: int) -> dict[str, float]:
        return {name: col.item(index) for name, col in self.components.items()}

    def index_of(self, t: TimePoint) -> int:
        ticks = self._ticks
        i = bisect_left(ticks, t)
        if i == len(ticks) or ticks[i] != t:
            raise NoSampleError(f"no sample at t={to_seconds(t)} s")
        return i

    def value_at(self, t: TimePoint) -> Mapping[str, float]:
        """The read-only state at sample time ``t``, built on first use."""
        i = self.index_of(t)
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = MappingProxyType(self.state(i))
        return row

    def index_range_in(self, interval: Interval, offset: TimePoint = 0) -> tuple[int, int]:
        """Half-open index range of samples inside ``interval`` shifted by ``offset``."""
        ticks = self._ticks
        lower = interval.lower + offset
        lo = bisect_left(ticks, lower) if interval.lower_closed else bisect_right(ticks, lower)
        if interval.upper == math.inf:
            return lo, len(ticks)
        upper = interval.upper + offset
        hi = bisect_right(ticks, upper) if interval.upper_closed else bisect_left(ticks, upper)
        return lo, max(lo, hi)

    def times_in(self, interval: Interval, offset: TimePoint = 0) -> list[TimePoint]:
        """Sample timestamps inside ``interval`` shifted by ``offset``, in order."""
        lo, hi = self.index_range_in(interval, offset)
        return self._ticks[lo:hi]

    def times_between(self, start: TimePoint, stop: TimePoint) -> list[TimePoint]:
        """Sample timestamps in the half-open window [start, stop)."""
        ticks = self._ticks
        return ticks[bisect_left(ticks, start) : bisect_left(ticks, stop)]

    def suffix(self, index: int) -> "Signal":
        return Signal(self.times[index:], {n: c[index:] for n, c in self.components.items()})

    def prefix(self, index: int) -> "Signal":
        """Samples 0..index inclusive."""
        return Signal(self.times[: index + 1], {n: c[: index + 1] for n, c in self.components.items()})

    def replaced(self, index: int, state: Mapping[str, float]) -> "Signal":
        comps = {n: c.copy() for n, c in self.components.items()}
        for name, value in state.items():
            comps[name][index] = value
        return Signal(self.times, comps)

    def concat(self, other: "Signal") -> "Signal":
        if other.t0 <= self.t_end:
            raise ValueError("concatenated suffix must start after the prefix ends")
        names = set(self.components) & set(other.components)
        return Signal(
            np.concatenate([self.times, other.times]),
            {n: np.concatenate([self.components[n], other.components[n]]) for n in names},
        )

    def __repr__(self) -> str:
        span = f"[{to_seconds(self.t0)}, {to_seconds(self.t_end)}]s"
        return f"Signal({len(self)} samples over {span}, components={sorted(self.components)})"


# ---------------------------------------------------------------------------
# Trace validity


@dataclass(frozen=True)
class TraceValidation:
    valid: bool
    index: Optional[int] = None
    component: Optional[str] = None
    error: float = 0.0

    def __bool__(self) -> bool:
        return self.valid


def validate_trace(trace: Signal, dt: TimePoint, dynamics, tol: float = 1e-9) -> TraceValidation:
    """Check that consecutive samples follow the robot and environment models.

    Robot components must satisfy the dynamics step under the recorded control
    input, and environment components must advance by the recorded disturbance,
    within ``tol`` per component.  The first offending pair is reported.
    """
    for name in ("ax", "ay", "w1", "w2"):
        if name not in trace.components:
            raise ValueError(f"trace has no {name!r} column; validity is not checkable")
    c = trace.components
    dt_s = to_seconds(dt)
    for i in range(len(trace) - 1):
        gap = trace.t(i + 1) - trace.t(i)
        if gap != dt:
            return TraceValidation(False, i, "t", abs(gap - dt))
        robot = (float(c["x"][i]), float(c["y"][i]), float(c["vx"][i]), float(c["vy"][i]))
        u = (float(c["ax"][i]), float(c["ay"][i]))
        predicted = dynamics.step(robot, u, dt_s)
        for name, value in zip(("x", "y", "vx", "vy"), predicted):
            err = abs(float(c[name][i + 1]) - value)
            if err > tol:
                return TraceValidation(False, i + 1, name, err)
        for name, wname in (("xe", "w1"), ("ye", "w2")):
            err = abs(float(c[name][i + 1]) - (float(c[name][i]) + float(c[wname][i])))
            if err > tol:
                return TraceValidation(False, i + 1, name, err)
    return TraceValidation(True)


# ---------------------------------------------------------------------------
# Trace CSV format: header t,x,y,vx,vy,xe,ye[,ax,ay,w1,w2]; times in seconds
# with six decimal places (exact in ticks); UTF-8 with LF line endings.


def write_trace_csv(trace: Signal, path) -> None:
    extras = [n for n in EXTRA_COMPONENTS if n in trace.components]
    header = ["t", *STATE_COMPONENTS, *extras]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(trace)):
            row = [f"{to_seconds(trace.t(i)):.6f}"]
            row += [repr(float(trace.components[n][i])) for n in STATE_COMPONENTS]
            row += [repr(float(trace.components[n][i])) for n in extras]
            writer.writerow(row)


def read_trace_csv(path) -> Signal:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names, times, columns, lines = _read_rows(reader, path)
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not times:
        raise ValueError(f"{path}: trace contains no samples")
    # Whole-column checks, so the row loop above does no per-cell work.
    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:
        i = next(i for i, t in enumerate(times) if not -(2**63) <= t < 2**63)
        raise ValueError(f"{path}:{lines[i]}: time {to_seconds(times[i])!r} s is out of range") from None
    values = np.array(columns, dtype=np.float64).reshape(len(names), len(times))
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        raise ValueError(f"{path}:{lines[i]}: {names[k]} is {float(values[k, i])!r}, not a finite number")
    stalled = np.flatnonzero(np.diff(times) <= 0)
    if stalled.size:
        i = int(stalled[0]) + 1
        t, before = to_seconds(int(times[i])), to_seconds(int(times[i - 1]))
        raise ValueError(f"{path}:{lines[i]}: time {t!r} s is not after the previous sample's {before!r} s")
    return Signal(times, dict(zip(names, values)))


def _read_rows(reader, path) -> tuple:
    """The column names, tick times, value columns and file line numbers of
    a trace CSV's samples, checked cell by cell."""
    header = next(reader, None)
    if not header or header[0] != "t":
        raise ValueError(f"{path}: not a trace CSV (missing 't' column)")
    seen: set[str] = set()
    for name in header:
        if name in seen:  # a later column would silently replace the first
            raise ValueError(f"{path}:{reader.line_num}: column {name!r} appears twice")
        seen.add(name)
    names = header[1:]
    width = len(header)
    times = []
    columns: list[list[float]] = [[] for _ in names]
    lines = []  # the file line of every sample, for the whole-column checks
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{reader.line_num}: {len(row)} cells, the header has {width}")
        try:
            times.append(to_ticks(float(row[0])))
            for col, cell in zip(columns, row[1:]):
                col.append(float(cell))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        lines.append(reader.line_num)
    return names, times, columns, lines
