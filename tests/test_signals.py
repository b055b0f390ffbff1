import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotogo.dynamics import DoubleIntegrator
from rotogo.formula import Interval, to_ticks
from rotogo.signals import (
    NoSampleError,
    Sample,
    Signal,
    read_trace_csv,
    validate_trace,
    write_trace_csv,
)

SEC = 1_000_000


def make_signal(times_s, **comps):
    times = np.array([to_ticks(t) for t in times_s], dtype=np.int64)
    return Signal(times, {k: np.asarray(v, dtype=float) for k, v in comps.items()})


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


def test_concat_owns_seam_exactly_once():
    prefix = make_signal([0, 1], x=[0.0, 1.0])
    suffix = make_signal([2, 3], x=[2.0, 3.0])
    joined = prefix.concat(suffix)
    assert len(joined) == 4
    assert joined.times.tolist() == [0, SEC, 2 * SEC, 3 * SEC]
    with pytest.raises(ValueError):
        prefix.concat(make_signal([1, 2], x=[9.0, 9.0]))  # seam would repeat


def test_times_strictly_increasing_enforced():
    with pytest.raises(ValueError):
        Signal(np.array([0, 0]), {"x": np.array([1.0, 2.0])})


def test_non_finite_components_rejected():
    with pytest.raises(ValueError):
        Signal(np.array([0]), {"x": np.array([np.inf])})


def test_times_in_basic_window():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert s.times_in(Interval(SEC, 2 * SEC)) == [SEC, 2 * SEC]


def test_times_in_open_lower_bound():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert s.times_in(Interval(SEC, 3 * SEC, False, True)) == [2 * SEC, 3 * SEC]


def test_times_in_no_samples_inside():
    s = make_signal([0, 1, 2, 3], x=[0, 0, 0, 0])
    assert s.times_in(Interval(to_ticks(0.2), to_ticks(0.8))) == []


def test_times_in_agrees_with_interval_membership():
    rng = np.random.default_rng(5)
    for _ in range(50):
        times = np.cumsum(rng.integers(1, 3 * SEC, size=8)).astype(np.int64)
        s = Signal(times, {"x": rng.uniform(size=8)})
        lower = int(rng.integers(0, 4 * SEC))
        upper = lower + int(rng.integers(1, 5 * SEC))
        interval = Interval(lower, upper, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
        offset = int(rng.integers(0, 2 * SEC))
        selected = set(s.times_in(interval, offset))
        for t in times.tolist():
            assert (t in selected) == interval.contains(t - offset)


def test_times_in_merges_across_prefix_suffix_views():
    rng = np.random.default_rng(6)
    s = make_signal([0, 0.7, 1, 2.2, 3, 4.5], x=[0] * 6)
    for _ in range(30):
        lower = int(rng.integers(0, 3 * SEC))
        interval = Interval(lower, lower + int(rng.integers(1, 4 * SEC)))
        offset = int(rng.integers(0, 2 * SEC))
        whole = s.times_in(interval, offset)
        for k in range(len(s) - 1):
            merged = s.prefix(k).times_in(interval, offset) + s.suffix(k + 1).times_in(interval, offset)
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
                got = s.times_in(interval, off)
                assert got == times[lo:hi].tolist() and all(type(t) is int for t in got)
            start, stop = (int(v) for v in rng.integers(first - SEC, last + SEC, size=2))
            for a, b in ((start, stop), (np.int64(start), np.int64(stop)), (start - 0.5, stop + 0.5)):
                lo, hi = np.searchsorted(times, a, side="left"), np.searchsorted(times, b, side="left")
                assert s.times_between(a, b) == times[lo:hi].tolist(), (a, b)
            # an empty window on a sample time: (a, a) open at both ends
            point = Interval(lower, lower, False, False)
            off = int(times[int(rng.integers(0, n))]) - lower
            assert s.index_range_in(point, off) == _searchsorted_range(times, point, off)
            assert s.times_in(point, off) == []
        for k, t in enumerate(times.tolist()):
            for probe in (t, np.int64(t), float(t)):
                assert s.index_of(probe) == k
        gaps = [t + 1 for t in times.tolist()[:-1] if t + 1 not in times] + [first - 1, last + 1, last + 0.5]
        for t in gaps:
            with pytest.raises(NoSampleError):
                s.index_of(t)


def test_tick_lookups_follow_suffix_prefix_and_concat():
    s = make_signal([0, 0.5, 1.25, 2], x=[0, 1, 2, 3])
    tail = s.suffix(2)
    assert (tail.t0, tail.t_end, len(tail)) == (to_ticks(1.25), 2 * SEC, 2)
    assert tail.index_of(2 * SEC) == 1
    assert s.prefix(1).times_in(Interval(0, 10 * SEC)) == [0, SEC // 2]
    joined = s.prefix(1).concat(tail)
    assert joined.times_between(0, 3 * SEC) == [0, SEC // 2, to_ticks(1.25), 2 * SEC]


def test_from_samples_sorted_components():
    s = Signal.from_samples([Sample(0, {"x": 1.0, "y": 2.0}), Sample(SEC, {"x": 3.0, "y": 4.0})])
    assert s.state(1) == {"x": 3.0, "y": 4.0}


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


def test_oversized_field_and_invalid_utf8_are_value_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('t,x\n0.0,"' + "1" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: field larger than field limit"):
        read_trace_csv(path)
    path.write_bytes(b"t,x\n0.0,\xff\n")
    with pytest.raises(ValueError, match=r"bad\.csv: not UTF-8 text \(invalid start byte\)$"):
        read_trace_csv(path)


#: Byte strings that trace CSVs and their near misses are made of.
_CSV_PIECES = (
    b"t", b"x", b"y", b",", b"\n", b"\r", b"\r\n", b'"', b"0", b"1", b"9", b".", b"-", b"e", b" ",
    b"0.1", b"1e-7", b"nan", b"inf", b"1e400", b"1e300", b"\x00", b"\xff", b"\xc3\xa9",
)
_csv_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(b"".join),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(lambda pieces: b"t,x\n0,1\n" + b"".join(pieces)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_bytes)
def test_any_trace_csv_bytes_raise_only_value_errors(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        trace = read_trace_csv(path)
    except ValueError:
        return
    assert len(trace) >= 1 and (np.diff(trace.times) > 0).all()
