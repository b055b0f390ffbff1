"""Finite timed signals over named state components, plus trace CSV I/O.

Semantics are pointwise: a signal is exactly its samples, there is no
interpolation between timestamps.  Evaluators quantify over the finite set
of sample times only.
"""
from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .formula import STATE_COMPONENTS, TICKS_PER_SECOND, Interval, TimePoint, to_seconds, to_ticks

#: Optional control-input and disturbance columns.
EXTRA_COMPONENTS = ("ax", "ay", "w1", "w2")


class NoSampleError(ValueError):
    """Raised when a signal is queried at a non-sample time."""


class Signal:
    """Immutable sequence of samples with strictly increasing timestamps.

    Stored as read-only copies of the tick times (int64) and of the
    components, a (C, n) float64 :attr:`block` whose row k is component
    ``names[k]``; :attr:`components` maps each name to its row in a
    read-only mapping.  The tick times are also kept once as a list of
    Python ints: the reference evaluators look up sample times and windows
    one at a time, and ``bisect`` on that list answers such lookups several
    times faster than scalar calls into numpy.

    The reference evaluators also read one sample's state per predicate
    evaluation through :meth:`row`, by sample index.  A row is built the
    first time that sample is read and kept in a per-sample slot, so memory
    grows with the samples read, not with the signal's length.  Rows are
    shared between callers and therefore read-only
    (``types.MappingProxyType``); :meth:`state` returns a fresh dict that
    the caller may change.  Both read one column of the block.
    """

    __slots__ = ("times", "names", "block", "components", "_ticks", "_rows")

    def __init__(self, times: np.ndarray, components: Mapping[str, np.ndarray]):
        times = np.array(times, dtype=np.int64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("a signal needs at least one sample")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("sample timestamps must be strictly increasing")
        names = tuple(components)
        columns = [np.asarray(values, dtype=np.float64) for values in components.values()]
        for name, column in zip(names, columns):
            if column.shape != times.shape:
                raise ValueError(f"component {name!r} has {column.shape[0] if column.ndim else 0} values for {times.size} samples")
        block = np.array(columns).reshape(len(names), times.size)
        if not np.isfinite(block).all():
            finite = np.isfinite(block).all(axis=1)
            raise ValueError(f"component {names[int(np.argmin(finite))]!r} contains non-finite values")
        times.setflags(write=False)
        block.setflags(write=False)
        self.times = times
        self.names = names
        self.block = block
        self.components: Mapping[str, np.ndarray] = MappingProxyType(dict(zip(names, block)))
        self._ticks: list[int] = times.tolist()
        self._rows: list[Optional[Mapping[str, float]]] = [None] * len(self._ticks)

    def __reduce__(self):
        # The read-only mapping does not pickle; the constructor rebuilds it.
        return Signal, (self.times, dict(self.components))

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
        return dict(zip(self.names, self.block[:, index].tolist()))

    def index_of(self, t: TimePoint) -> int:
        ticks = self._ticks
        i = bisect_left(ticks, t)
        if i == len(ticks) or ticks[i] != t:
            raise NoSampleError(f"no sample at t={to_seconds(t)} s")
        return i

    def row(self, index: int) -> Mapping[str, float]:
        """The read-only state of sample ``index``, built on first use."""
        row = self._rows[index]
        if row is None:
            row = self._rows[index] = MappingProxyType(self.state(index))
        return row

    def value_at(self, t: TimePoint) -> Mapping[str, float]:
        """The read-only state at sample time ``t``, built on first use."""
        return self.row(self.index_of(t))

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

    def prefix(self, index: int) -> "Signal":
        """Samples 0..index inclusive."""
        return Signal(self.times[: index + 1], dict(zip(self.names, self.block[:, : index + 1])))

    def replaced(self, index: int, state: Mapping[str, float]) -> "Signal":
        comps = dict(zip(self.names, self.block.copy()))
        for name, value in state.items():
            comps[name][index] = value
        return Signal(self.times, comps)

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


def validate_trace(trace: Signal, dt: TimePoint, dynamics) -> TraceValidation:
    """Check that consecutive samples follow the robot and environment models.

    Robot components must satisfy the dynamics step under the recorded control
    input, and environment components must advance by the recorded disturbance,
    within 1e-9 per component.  The first offending pair is reported.
    """
    tol = 1e-9
    for name in EXTRA_COMPONENTS:
        if name not in trace.components:
            raise ValueError(f"trace has no {name!r} column; validity is not checkable")
    dt_s = to_seconds(dt)
    for i in range(len(trace) - 1):
        gap = trace.t(i + 1) - trace.t(i)
        if gap != dt:
            return TraceValidation(False, i, "t", abs(gap - dt))
        now, after = trace.state(i), trace.state(i + 1)
        robot = dynamics.step((now["x"], now["y"], now["vx"], now["vy"]), (now["ax"], now["ay"]), dt_s)
        predicted = (*robot, now["xe"] + now["w1"], now["ye"] + now["w2"])
        for name, value in zip(STATE_COMPONENTS, predicted):
            err = abs(after[name] - value)
            if err > tol:
                return TraceValidation(False, i + 1, name, err)
    return TraceValidation(True)


# ---------------------------------------------------------------------------
# Trace CSV format.  write_trace_csv writes the header
# t,x,y,vx,vy,xe,ye[,ax,ay,w1,w2], times in seconds with six decimal places
# (exact in ticks) and components as repr() floats, UTF-8 with LF line
# endings.  read_trace_csv accepts more: see its docstring.

#: Characters per block of lines that the plain-text reader checks at once;
#: one block joined stays a small share of a monitoring process's memory.
_BLOCK_CHARS = 1 << 14


def write_trace_csv(trace: Signal, path) -> None:
    extras = [n for n in EXTRA_COMPONENTS if n in trace.components]
    header = ["t", *STATE_COMPONENTS, *extras]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(trace)):
            state = trace.state(i)
            writer.writerow([f"{to_seconds(trace.t(i)):.6f}", *(repr(state[n]) for n in header[1:])])


def read_trace_csv(path) -> Signal:
    """The signal in the trace CSV at ``path``.

    The file is UTF-8 text in the csv module's default (Excel) dialect, so
    it may start with a byte-order mark (Excel's "CSV UTF-8"), cells may be
    quoted and lines may end in LF or CRLF.  The header names
    the columns: ``t`` first, then the components, each once, in any order
    and under any name.  Every other non-blank line is one sample with one
    cell per column.  A cell is whatever Python's ``float`` reads (so
    ``" 1.5"``, ``"1_0"`` and ``"1e-7"`` are numbers); times are in seconds,
    rounded to the nearest tick, and must increase strictly; components must
    be finite.  Column names are not checked against
    :data:`STATE_COMPONENTS`; callers check the columns they read.

    Plain text is parsed by ``np.loadtxt`` (:func:`_read_plain`); any other
    file, and any file refused there, is read again row by row by
    ``csv.reader``, which gives the same signal or names the error's line.

    Raises ``ValueError`` naming the file, and the line where there is one,
    for: a missing ``t`` column, a repeated column name, a row of the wrong
    width, a cell that is not a number, a time out of the tick range, a
    non-finite component, a time not after the previous sample's, a field
    over the csv module's size limit, text that is not UTF-8, and a file
    with no samples.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if (plain := _read_plain(fh)) is not None:
            return plain
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            names, times, cells, lines = _read_rows(reader, path)
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
    values = np.frombuffer(cells, dtype=np.float64).reshape(len(times), len(names)).T
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        raise ValueError(f"{path}:{lines[i]}: {names[k]} is {float(values[k, i])!r}, not a finite number")
    # Neighbours compared, not differenced: a difference of int64 times can wrap.
    stalled = np.flatnonzero(times[1:] <= times[:-1])
    if stalled.size:
        i = int(stalled[0]) + 1
        t, before = to_seconds(int(times[i])), to_seconds(int(times[i - 1]))
        raise ValueError(f"{path}:{lines[i]}: time {t!r} s is not after the previous sample's {before!r} s")
    return Signal(times, dict(zip(names, values)))


def _read_plain(fh) -> Optional[Signal]:
    """The signal in the plain-text trace CSV open as ``fh``, or None where
    the text is not plain or is not a valid trace; the caller then reads
    the file again with :func:`_read_rows`, which says what is wrong and
    where.

    ``np.loadtxt`` parses the lines after the header in C: it splits them
    at commas and skips empty ones as ``csv.reader`` does, and reads a cell
    with ``PyOS_string_to_double``, as ``float`` reads text without
    underscores, to the same bits.  What it refuses (an underscore, a
    non-ASCII digit, a short row, an empty cell) is left to the row reader.
    """
    limit = csv.field_size_limit()

    def lines():  # the lines of fh, checked one block at a time
        filled = 0  # lines that hold more than their LF, the header's included
        while block := fh.readlines(_BLOCK_CHARS):
            text = "".join(block)
            # csv.reader reads a quote, CR or NUL otherwise than a split at commas
            # and refuses a cell over its size limit; float does not strip
            # U+001C..U+001F, which numpy strips from a number.
            if any(c in text for c in '"\r\0\x1c\x1d\x1e\x1f') or len(text) > limit and max(map(len, block)) > limit:
                raise ValueError("not plain text")
            filled += len(block) - block.count("\n")
            yield from block
        if filled < 2:  # a header alone, on which np.loadtxt would warn
            raise ValueError("no samples")

    body = lines()
    try:  # not plain, not UTF-8, no samples, a row numpy refuses, a non-finite value or a stalled time
        header = next(body).removesuffix("\n").split(",")
        if header[0] != "t" or len(set(header)) < len(header):
            return None
        table = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None, ndmin=2).T
        # round(s * TICKS_PER_SECOND), as to_ticks computes it: the same IEEE
        # multiply, and rint rounds half to even as round does.  The range
        # test also refuses infinite and NaN times and huge finite ones.
        ticks = np.rint(table[0] * TICKS_PER_SECOND)
        if len(table) != len(header) or not ((ticks >= -(2.0**63)) & (ticks < 2.0**63)).all():
            return None  # numpy compares each row's width with the first's only
        return Signal(ticks.astype(np.int64), dict(zip(header[1:], table[1:])))
    except ValueError:
        return None


def _read_rows(reader, path) -> tuple:
    """The column names, tick times, row-major cell values and file line
    numbers of a trace CSV's samples, checked cell by cell."""
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
    # The cells, row by row, and the line numbers go into typed arrays, 8
    # bytes an entry instead of a Python object each.  The times stay Python
    # ints, so an out-of-range time is reported as read.
    times = []
    cells = array("d")
    lines = array("q")  # the file line of every sample, for the whole-column checks
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{reader.line_num}: {len(row)} cells, the header has {width}")
        try:
            times.append(to_ticks(float(row[0])))
            cells.extend(map(float, row[1:]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        lines.append(reader.line_num)
    return names, times, cells, lines
