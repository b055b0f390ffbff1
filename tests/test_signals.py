import csv
import math
import pickle
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotogo.cli import main
from rotogo.dynamics import DoubleIntegrator
from rotogo.fasteval import eval_robustness_all
from rotogo.formula import Interval, to_seconds, to_ticks
from rotogo.parser import parse_formula
from rotogo.semantics import robustness
from rotogo.signals import (
    NoSampleError,
    Signal,
    _read_plain,
    read_trace_csv,
    validate_trace,
    write_trace_csv,
)

SEC = 1_000_000


def make_signal(times_s, **comps):
    times = np.array([to_ticks(t) for t in times_s], dtype=np.int64)
    return Signal(times, {k: np.asarray(v, dtype=float) for k, v in comps.items()})


def _suffix(s, index):
    """The samples of ``s`` from ``index`` on, built from slices of its columns."""
    return Signal(s.times[index:], {n: c[index:] for n, c in s.components.items()})


def test_value_at_exact_sample():
    s = make_signal([0, 1], x=[1.5, 2.5])
    assert s.value_at(SEC) == {"x": 2.5}


def test_value_at_between_samples_errors():
    s = make_signal([0], x=[1.0])
    with pytest.raises(NoSampleError):
        s.value_at(SEC // 2)


def test_value_at_rows_are_read_only_and_not_shared_with_replaced():
    s = make_signal([0, 1, 2], x=[1.5, -0.0, 3.0], y=[4.0, 5.0, 6.0])
    for i in range(3):
        row = s.value_at(s.t(i))
        assert row == s.state(i)
        assert s.value_at(s.t(i)) is row  # built once, then reused
        with pytest.raises(TypeError):
            row["x"] = 9.0
    assert math.copysign(1.0, s.value_at(SEC)["x"]) == -1.0
    s.state(1)["x"] = 9.0  # state() is the caller's own dict
    assert s.value_at(SEC)["x"] == 0.0
    changed = s.replaced(1, {"x": 2.0})
    assert changed.value_at(SEC) == {"x": 2.0, "y": 5.0}
    assert s.value_at(SEC) == {"x": -0.0, "y": 5.0}


def test_row_is_value_at_by_index():
    s = make_signal([0, 1, 2], x=[1.5, -0.0, 3.0])
    for i in range(3):
        assert s.row(i) is s.value_at(s.t(i))


def test_times_strictly_increasing_enforced():
    with pytest.raises(ValueError):
        Signal(np.array([0, 0]), {"x": np.array([1.0, 2.0])})


def test_non_finite_components_rejected():
    with pytest.raises(ValueError):
        Signal(np.array([0]), {"x": np.array([np.inf])})


def test_signal_is_one_read_only_block():
    x = np.array([1.0, 2.0, 3.0])
    s = Signal(np.arange(3, dtype=np.int64) * SEC, {"y": [4.0, 5.0, 6.0], "x": x})
    assert s.names == ("y", "x") and list(s.components) == ["y", "x"]
    assert s.block.shape == (2, 3) and s.block.tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]
    assert all(np.shares_memory(s.components[name], s.block) for name in s.names)
    x[0] = -5.0  # the signal holds its own copy
    assert s.components["x"][0] == 1.0
    assert Signal(s.times, {}).block.shape == (0, 3)
    s.row(0)  # a read row is not pickled
    back = pickle.loads(pickle.dumps(s))
    assert back.names == s.names and back.block.tobytes() == s.block.tobytes() and not back.block.flags.writeable


def test_signal_cannot_be_changed_through_its_components():
    # Both evaluators read the same numbers: the reference one through the
    # per-sample rows, the compiled one through the block.
    s = make_signal([0, 1, 2], x=[1.0, 2.0, 3.0])
    f = parse_formula("(x > 0)")
    s.state(0)
    with pytest.raises(ValueError):
        s.components["x"][0] = -5.0
    with pytest.raises(ValueError):
        s.block[0, 0] = -5.0
    with pytest.raises(TypeError):
        s.components["y"] = np.zeros(3)
    assert list(s.components) == ["x"]
    assert robustness(s, s.t0, f) == eval_robustness_all(s, f)[0] == 1.0
    # The times too: writing the caller's array or the signal's changes nothing.
    times = np.arange(3, dtype=np.int64) * SEC
    s = Signal(times, {"x": [-1.0, 2.0, 3.0]})
    g = parse_formula("F[0.5,1.5] (x > 0)")
    times[1] = 5 * SEC
    with pytest.raises(ValueError):
        s.times[1] = 5 * SEC
    assert robustness(s, s.t0, g) == eval_robustness_all(s, g)[0] == 2.0


def times_in(s, interval, offset=0):
    """The sample times in the window, through ``index_range_in``."""
    lo, hi = s.index_range_in(interval, offset)
    return s.times[lo:hi].tolist()


def test_times_in_basic_window():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert times_in(s, Interval(SEC, 2 * SEC)) == [SEC, 2 * SEC]


def test_times_in_open_lower_bound():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert times_in(s, Interval(SEC, 3 * SEC, False, True)) == [2 * SEC, 3 * SEC]


def test_times_in_no_samples_inside():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert times_in(s, Interval(to_ticks(0.2), to_ticks(0.8))) == []


def test_times_in_agrees_with_interval_membership():
    rng = np.random.default_rng(5)
    for _ in range(50):
        times = np.cumsum(rng.integers(1, 3 * SEC, size=8)).astype(np.int64)
        s = Signal(times, {"x": rng.uniform(size=8)})
        lower = int(rng.integers(0, 4 * SEC))
        upper = lower + int(rng.integers(1, 5 * SEC))
        interval = Interval(lower, upper, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
        offset = int(rng.integers(0, 2 * SEC))
        selected = set(times_in(s, interval, offset))
        for t in times.tolist():
            assert (t in selected) == interval.contains(t - offset)


def test_times_in_merges_across_prefix_suffix_views():
    rng = np.random.default_rng(6)
    s = make_signal([0, 0.7, 1, 2.2, 3, 4.5], x=[0] * 6)
    for _ in range(30):
        lower = int(rng.integers(0, 3 * SEC))
        interval = Interval(lower, lower + int(rng.integers(1, 4 * SEC)))
        offset = int(rng.integers(0, 2 * SEC))
        whole = times_in(s, interval, offset)
        for k in range(len(s) - 1):
            merged = times_in(s.prefix(k), interval, offset) + times_in(_suffix(s, k + 1), interval, offset)
            assert merged == whole


def _searchsorted_range(times, interval, offset):
    """index_range_in as np.searchsorted computes it."""
    side = "left" if interval.lower_closed else "right"
    lo = int(np.searchsorted(times, interval.lower + offset, side=side))
    if interval.upper == math.inf:
        return lo, len(times)
    side = "right" if interval.upper_closed else "left"
    return lo, max(lo, int(np.searchsorted(times, interval.upper + offset, side=side)))


def test_lookups_match_searchsorted_on_random_times():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        times = np.cumsum(rng.integers(1, 3 * SEC, size=n)).astype(np.int64)
        s = Signal(times, {"x": rng.uniform(size=n)})
        first, last = int(times[0]), int(times[-1])
        for _ in range(10):
            lower = int(rng.integers(0, last + SEC))
            if rng.random() < 0.2:
                interval = Interval(lower, math.inf, bool(rng.random() < 0.5), False)
            else:
                upper = lower + int(rng.integers(0, last + SEC))
                interval = Interval(lower, upper, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
            # offsets put the window before the start, across the signal and past its end
            offset = int(rng.integers(-last - 2 * SEC, last + SEC))
            for off in (offset, np.int64(offset), float(offset), offset + 0.5):
                lo, hi = _searchsorted_range(times, interval, off)
                assert s.index_range_in(interval, off) == (lo, hi), (interval, off)
            # an empty window on a sample time: (a, a) open at both ends
            point = Interval(lower, lower, False, False)
            off = int(times[int(rng.integers(0, n))]) - lower
            assert s.index_range_in(point, off) == _searchsorted_range(times, point, off)
        for k, t in enumerate(times.tolist()):
            for probe in (t, np.int64(t), float(t)):
                assert s.index_of(probe) == k
        gaps = [t + 1 for t in times.tolist()[:-1] if t + 1 not in times] + [first - 1, last + 1, last + 0.5]
        for t in gaps:
            with pytest.raises(NoSampleError):
                s.index_of(t)


def test_tick_lookups_follow_suffix_prefix_and_concat():
    s = make_signal([0, 0.5, 1.25, 2], x=[0, 1, 2, 3])
    tail = _suffix(s, 2)
    assert (tail.t0, tail.t_end, len(tail)) == (to_ticks(1.25), 2 * SEC, 2)
    assert tail.index_of(2 * SEC) == 1
    head = s.prefix(1)
    assert times_in(head, Interval(0, 10 * SEC)) == [0, SEC // 2]
    joined = Signal(
        np.concatenate([head.times, tail.times]), {"x": np.concatenate([head.components["x"], tail.components["x"]])}
    )
    assert times_in(joined, Interval(0, 3 * SEC, True, False)) == [0, SEC // 2, to_ticks(1.25), 2 * SEC]


#: Values whose bits a conversion could lose: signed zeros, subnormals and
#: the extremes.
_EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -2.5e-320)


def _bits(values):
    return [v.hex() for v in values]


def test_state_and_row_are_the_component_items():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n, k = int(rng.integers(1, 7)), int(rng.integers(0, 5))  # k = 0: no components
        names = [str(name) for name in rng.permutation(list("abcdefg"))[:k]]
        comps = {}
        for name in names:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            edge = rng.random(n) < 0.3
            col[edge] = rng.choice(_EDGE_VALUES, size=int(edge.sum()))
            comps[name] = col
        s = Signal(np.arange(n, dtype=np.int64) * SEC, comps)
        views = [s]
        if n > 1:
            views.append(_suffix(s, 1))
        if names:
            views.append(s.replaced(n - 1, {names[0]: -0.0}))
        for view in views:
            for i in range(len(view)):
                expected = {name: col.item(i) for name, col in view.components.items()}
                for got in (view.state(i), view.row(i)):
                    assert list(got) == list(expected)
                    assert _bits(got.values()) == _bits(expected.values())
        if names:
            assert math.copysign(1.0, views[-1].state(n - 1)[names[0]]) == -1.0


# ---------------------------------------------------------------------------
# Trace validity


def build_trace(start=(0.0, 0.0, 0.0, 0.0), controls=((1.0, 0.0), (1.0, 0.0)), dt_s=0.1):
    """A trace integrated under ``controls`` (then zero input), with a
    still environment."""
    dt = to_ticks(dt_s)
    states, inputs = [start], [*controls, (0.0, 0.0)]
    for u in controls:
        states.append(DoubleIntegrator.step(states[-1], u, dt_s))
    n = len(states)
    x, y, vx, vy = (np.array(col) for col in zip(*states))
    ax, ay = (np.array(col) for col in zip(*inputs))
    comps = {"x": x, "y": y, "vx": vx, "vy": vy, "xe": np.ones(n), "ye": np.ones(n),
             "ax": ax, "ay": ay, "w1": np.zeros(n), "w2": np.zeros(n)}
    return Signal(np.arange(n, dtype=np.int64) * dt, comps), dt


def test_self_consistent_trace_is_valid():
    trace, dt = build_trace()
    report = validate_trace(trace, dt, DoubleIntegrator())
    assert report.valid and bool(report)


def test_perturbed_environment_detected():
    trace, dt = build_trace()
    bad = trace.replaced(1, {"xe": 1.001})
    report = validate_trace(bad, dt, DoubleIntegrator())
    assert not report.valid
    assert report.index == 1 and report.component == "xe"
    assert report.error == pytest.approx(1e-3)


def test_hand_built_double_integrator_rows_are_valid():
    # From rest with a=(1,0) and dt=0.1: x advances by v*dt + a*dt^2/2.
    trace, dt = build_trace(controls=((1.0, 0.0), (1.0, 0.0), (1.0, 0.0)))
    xs = trace.components["x"]
    assert xs[1] == pytest.approx(0.005, abs=1e-15)
    assert xs[2] == pytest.approx(0.005 + 0.1 * 0.1 + 0.005, abs=1e-15)
    assert validate_trace(trace, dt, DoubleIntegrator()).valid


def test_missing_control_columns_not_checkable():
    s = make_signal([0, 1], x=[0, 0], y=[0, 0], vx=[0, 0], vy=[0, 0], xe=[0, 0], ye=[0, 0])
    with pytest.raises(ValueError, match="not checkable"):
        validate_trace(s, SEC, DoubleIntegrator())


# ---------------------------------------------------------------------------
# CSV round trip


def test_trace_csv_round_trip(tmp_path):
    trace, _ = build_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "t,x,y,vx,vy,xe,ye,ax,ay,w1,w2"
    assert "\r" not in text
    back = read_trace_csv(path)
    assert np.array_equal(back.times, trace.times)
    for name, col in trace.components.items():
        assert np.array_equal(back.components[name], col), name


def test_trace_csv_times_have_six_decimals(tmp_path):
    trace, _ = build_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    first_data = path.read_text().splitlines()[1]
    assert first_data.startswith("0.000000,")


def test_time_jump_that_wraps_int64_is_positioned(tmp_path):
    # The difference of these tick times wraps in int64 and reads positive.
    path = tmp_path / "wrap.csv"
    path.write_text("t,x\n9000000000000,1\n-9000000000000,2\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_trace_csv(path)
    assert str(info.value) == (
        f"{path}:3: time -9000000000000.0 s is not after the previous sample's 9000000000000.0 s"
    )


def _benchmark_trace_text(rng, n):
    """A trace in the format of the benchmark's monitoring workload."""
    cols = {name: rng.normal(size=n) for name in ("x", "y", "vx", "vy", "xe", "ye")}
    lines = ["t," + ",".join(cols)]
    for i in range(n):
        lines.append(f"{i * 0.1:.6f}," + ",".join(repr(float(c[i])) for c in cols.values()))
    return "\n".join(lines) + "\n"


def test_plain_traces_take_the_block_parser(tmp_path):
    """The files this package and its benchmark write take the numpy fast
    path; a silent fallback to the row reader would pass every other test."""
    trace, _ = build_trace()
    written = tmp_path / "written.csv"
    write_trace_csv(trace, written)
    rng = np.random.default_rng(3)
    paths = [written]
    for n in (1, 201, 2001):  # one sample, one block, many blocks
        paths.append(tmp_path / f"bench{n}.csv")
        paths[-1].write_text(_benchmark_trace_text(rng, n), encoding="utf-8")
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            assert _read_plain(fh) is not None, path.name
        assert _outcome(read_trace_csv, path) == _outcome(_reference_read_trace_csv, path), path.name


def test_trace_with_a_byte_order_mark_reads_like_the_plain_one(tmp_path, monkeypatch):
    # Excel's "CSV UTF-8" starts with a byte-order mark.  A plain trace with
    # one still takes the numpy fast path; a quoted CRLF one is read again by
    # csv.reader after fh.seek(0), which must skip the mark once more.
    trace, _ = build_trace()
    plain = tmp_path / "plain.csv"
    write_trace_csv(trace, plain)
    quoted = tmp_path / "quoted.csv"
    with open(quoted, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(csv.reader(plain.read_text(encoding="utf-8").splitlines()))
    assert quoted.read_bytes().startswith(b'"t","x"') and b"\r\n" in quoted.read_bytes()
    want = _outcome(read_trace_csv, plain)
    assert want == _outcome(read_trace_csv, quoted)
    for path in (plain, quoted):
        bom = tmp_path / f"bom_{path.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        if path is plain:
            with monkeypatch.context() as m:
                m.setattr("rotogo.signals._read_rows", None)  # the numpy fast path alone
                assert _outcome(read_trace_csv, bom) == want
        assert _outcome(read_trace_csv, bom) == want, bom.name


def test_oversized_field_and_invalid_utf8_are_value_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('t,x\n0.0,"' + "1" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: field larger than field limit"):
        read_trace_csv(path)
    path.write_bytes(b"t,x\n0.0,\xff\n")
    with pytest.raises(ValueError, match=r"bad\.csv: not UTF-8 text \(invalid start byte\)$"):
        read_trace_csv(path)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_plain_cell_at_and_over_the_field_limit(tmp_path, extra):
    """An unquoted number as long as ``csv.field_size_limit()`` reads as
    csv.reader reads it, and one character more is the row reader's
    positioned error, not a number the numpy fast path accepts."""
    limit = csv.field_size_limit()
    cell = "0" * (limit + extra - 3) + "1.5"
    path = tmp_path / "long.csv"
    path.write_text(f"t,x\n0.0,1.0\n0.1,{cell}\n", encoding="utf-8")
    got = _outcome(read_trace_csv, path)
    assert got == _outcome(_reference_read_trace_csv, path)
    if extra:
        assert got == f"{path}:3: field larger than field limit ({limit})"
    else:
        assert got[1] == [("x", np.array([1.0, 1.5]).tobytes())]


@pytest.mark.parametrize(
    "text",
    ['t,"x"\n0,1\n', "t,x\r\n0,1\r\n", "t,x\r0,1\r", "t,x\0\n0,1\n"],
    ids=["quote", "crlf", "cr", "nul"],
)
def test_text_csv_reads_otherwise_takes_the_row_reader(tmp_path, text):
    """A quote, a CR or a NUL in the header would give other column names
    split at commas than ``csv.reader`` gives (which refuses a NUL before
    Python 3.11), so the plain path refuses the file."""
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8", newline="") as fh:
        assert _read_plain(fh) is None
    assert _outcome(read_trace_csv, path) == _outcome(_reference_read_trace_csv, path)


@pytest.mark.parametrize("text", ["t,x\n", "t,x\n\n\n\n", "t,x\n0,1\n"], ids=["header", "blank", "one"])
def test_no_warning_leaves_the_reader(tmp_path, capsys, text):
    """np.loadtxt warns "input contained no data" on an empty body; the
    reader gives the row reader's outcome and nothing else."""
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(read_trace_csv, path) == _outcome(_reference_read_trace_csv, path)
    if text == "t,x\n":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["monitor", "(x > 0)", str(path)])
        assert (code, caught) == (2, [])
        assert capsys.readouterr() == ("", f"error: {path}: trace contains no samples\n")


@pytest.mark.parametrize("cell", ["\x1c1", "1\x1d", "\x1e1\x1f"])
def test_a_cell_float_does_not_strip_is_the_row_readers_error(tmp_path, cell):
    """numpy strips U+001C..U+001F around a number as whitespace, and
    ``float`` refuses them."""
    path = tmp_path / "trace.csv"
    path.write_text(f"t,x\n0,1\n1,{cell}\n", encoding="utf-8")
    assert _outcome(read_trace_csv, path) == f"{path}:3: could not convert string to float: {cell!r}"


#: Byte strings that trace CSVs and their near misses are made of.
_CSV_PIECES = (
    b"t", b"x", b"y", b",", b"\n", b"\r", b"\r\n", b'"', b"0", b"1", b"9", b".", b"-", b"e", b" ",
    b"0.1", b"1e-7", b"nan", b"inf", b"1e400", b"1e300", b"\x00", b"\xff", b"\xc3\xa9",
    # Bytes that numpy's tokenizer or number parser treats on its own.
    b"\t", b"\x0b", b"\x0c", b"\xc2\xa0", b"_", b"+", b"#", b"E", b"infinity",
    b"\x1c",
)
_csv_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(b"".join),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(lambda pieces: b"t,x\n0,1\n" + b"".join(pieces)),
)


# ---------------------------------------------------------------------------
# The numpy fast path against the row-by-row reader


def _reference_read_trace_csv(path) -> Signal:
    """The reader before plain text took a fast path: ``csv.reader``
    row by row, every cell through ``float``, whole-column checks after.
    Stalled times are found by comparing neighbours, as the package does
    since a difference of int64 times was found to wrap, and skips a
    leading byte-order mark as the package does since it reads Excel's
    "CSV UTF-8"."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[0] != "t":
                raise ValueError(f"{path}: not a trace CSV (missing 't' column)")
            seen = set()
            for name in header:
                if name in seen:
                    raise ValueError(f"{path}:{reader.line_num}: column {name!r} appears twice")
                seen.add(name)
            names, width = header[1:], len(header)
            times, cells, lines = [], array("d"), array("q")
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
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not times:
        raise ValueError(f"{path}: trace contains no samples")
    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:
        i = next(i for i, t in enumerate(times) if not -(2**63) <= t < 2**63)
        raise ValueError(f"{path}:{lines[i]}: time {to_seconds(times[i])!r} s is out of range") from None
    values = np.frombuffer(cells, dtype=np.float64).reshape(len(times), len(names)).T.copy()
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        raise ValueError(f"{path}:{lines[i]}: {names[k]} is {float(values[k, i])!r}, not a finite number")
    stalled = np.flatnonzero(times[1:] <= times[:-1])
    if stalled.size:
        i = int(stalled[0]) + 1
        t, before = to_seconds(int(times[i])), to_seconds(int(times[i - 1]))
        raise ValueError(f"{path}:{lines[i]}: time {t!r} s is not after the previous sample's {before!r} s")
    return Signal(times, dict(zip(names, values)))


def _outcome(read, path):
    """The times and component bytes ``read`` gets from ``path``, or its
    error message."""
    try:
        s = read(path)
    except ValueError as exc:
        return str(exc)
    return s.times.tobytes(), [(name, col.tobytes()) for name, col in s.components.items()]


#: One cell of a plain-text trace, in spellings ``float`` reads as finite
#: numbers, and then also in others.
_number_cells = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: "%.3e" % v),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1.5", "1_0", "-0.0", "5e-324", "1e300", "\u0661"]),
)
_plain_cells = _number_cells | st.floats().map(repr) | st.sampled_from(["inf", "nan", "1e400", "", "x", " ", "1" * 30])


#: True about one time in sixteen: a value inside the range, as hypothesis
#: draws the bounds of a range more often than the rest.
_rarely = st.integers(0, 15).map(lambda v: v == 7)


@st.composite
def _plain_traces(draw):
    """Plain-text trace CSVs: increasing times in most, cells of every
    spelling, blank lines, rows of the wrong width, and a missing final LF."""
    names = draw(st.lists(st.sampled_from(["x", "y", "vx"]), max_size=3, unique=True))
    if draw(_rarely):
        names.append(draw(st.sampled_from(["t", "x", " y"])))
    lines = [",".join(["t", *names])]
    cell = draw(st.sampled_from([_number_cells, _plain_cells]))
    time = draw(st.integers(-5, 5))
    for _ in range(draw(st.sampled_from(range(9)))):
        time += draw(st.sampled_from([-1, 0] if draw(_rarely) else [1, 2]))
        if not draw(_rarely):
            first = draw(st.sampled_from([f"{time * 0.1:.6f}", repr(time / 7), str(time), f"{time * 1e12:.1f}"]))
        else:
            first = draw(cell)
        cells = [first, *(draw(cell) for _ in names)]
        if draw(_rarely):
            cells = cells[:-1] if len(cells) > 1 and draw(st.booleans()) else [*cells, "0"]
        lines.append(",".join(cells))
        if draw(_rarely):
            lines.append("")
    text = "\n".join(lines)
    if not draw(_rarely):
        text += "\n"
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_bytes | _plain_traces(), st.sampled_from([None, 24]))
def test_any_trace_csv_bytes_read_as_row_by_row(tmp_path, data, field_limit):
    """Any bytes give the row-by-row reader's signal, bit for bit, or raise
    its ValueError, message for message.  A small field limit puts some
    lines over it."""
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    old_limit = csv.field_size_limit()
    if field_limit is not None:
        csv.field_size_limit(field_limit)
    try:
        assert _outcome(read_trace_csv, path) == _outcome(_reference_read_trace_csv, path)
    finally:
        csv.field_size_limit(old_limit)
