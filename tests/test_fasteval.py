import itertools
import math

import numpy as np

from rotogo.fasteval import (
    TouchCounter,
    _until_general,
    _window,
    eval_robustness_all,
    eval_robustness_arrays,
    eval_robustness_start,
)
from rotogo.formula import And, BOTTOM, Interval, Not, Or, Pred, TOP, Until, Var, formula_predicates, to_ticks
from rotogo.parser import parse_formula
from rotogo.semantics import robustness
from rotogo.signals import Signal
from rotogo.testgen import random_instance


def test_matches_reference_at_every_index():
    rng = np.random.default_rng(31)
    for _ in range(250):
        f, s = random_instance(rng)
        table = eval_robustness_all(s, f)
        for j in range(len(s)):
            assert float(table[j]) == robustness(s, s.t(j), f)


def test_matches_reference_with_general_until():
    # Force the non-trivial left-operand path.
    rng = np.random.default_rng(32)
    for _ in range(150):
        left, s = random_instance(rng, max_depth=2, max_temporal=1)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        lo = int(rng.integers(0, to_ticks(3.0)))
        interval = Interval(lo, lo + int(rng.integers(1, to_ticks(5.0))), bool(rng.random() < 0.5), bool(rng.random() < 0.5))
        f = Until(left, interval, right)
        table = eval_robustness_all(s, f)
        for j in range(len(s)):
            assert float(table[j]) == robustness(s, s.t(j), f)


def test_batched_rows_evaluate_independently():
    rng = np.random.default_rng(33)
    f, base = random_instance(rng)
    batch = 7
    comps = {
        name: np.vstack([col * (1.0 + 0.1 * b) for b in range(batch)])
        for name, col in base.components.items()
    }
    table = eval_robustness_arrays(base.times, comps, f)
    assert table.shape == (batch, len(base))
    for b in range(batch):
        single = Signal(base.times, {n: comps[n][b] for n in comps})
        expect = eval_robustness_all(single, f)
        assert np.array_equal(table[b], expect)


def test_touch_counter_tracks_distinct_samples_and_reads():
    s = Signal(
        np.arange(5, dtype=np.int64) * to_ticks(0.1),
        {"x": np.arange(5.0), "y": np.arange(5.0)},
    )
    f = parse_formula("G[0,0.4] ((x > 0) & (y > 1))")
    counter = TouchCounter()
    eval_robustness_all(s, f, counter)
    assert counter.samples == 5  # distinct sample slots
    assert counter.reads == 10  # two predicates over five samples


def test_constant_formulas_touch_nothing():
    s = Signal(np.arange(3, dtype=np.int64), {"x": np.zeros(3)})
    counter = TouchCounter()
    table = eval_robustness_all(s, TOP, counter)
    assert counter.samples == 0 and counter.reads == 0
    assert np.all(np.isposinf(table))


def test_matches_reference_at_mission_scale():
    # Benchmark-sized signals: 201 samples at 10 Hz with the reach-avoid
    # formula shape, checked at a spread of evaluation times.
    from rotogo.scenarios import scenario_phi_avoid

    rng = np.random.default_rng(35)
    f = scenario_phi_avoid().parsed_formula()
    n = 201
    times = np.arange(n, dtype=np.int64) * to_ticks(0.1)
    comps = {
        "x": rng.uniform(0, 5, n), "y": rng.uniform(0, 5, n),
        "vx": rng.uniform(-0.5, 0.5, n), "vy": rng.uniform(-0.5, 0.5, n),
        "xe": 2.5 + np.cumsum(rng.normal(0, 0.02, n)),
        "ye": 2.5 + np.cumsum(rng.normal(0, 0.02, n)),
    }
    s = Signal(times, comps)
    table = eval_robustness_all(s, f)
    for j in (0, 1, 50, 100, 195, 200):
        assert float(table[j]) == robustness(s, s.t(j), f), j


def test_windows_respect_open_and_closed_bounds():
    s = Signal(
        np.array([0, 1, 2, 3], dtype=np.int64) * to_ticks(1.0),
        {"x": np.array([0.0, 1.0, 2.0, 3.0])},
    )
    # F(1,3] x>0 at t=0: sup over x at {2,3} = 3
    f = Until(TOP, Interval(to_ticks(1.0), to_ticks(3.0), False, True), Pred(Var("x")))
    table = eval_robustness_all(s, f)
    assert table[0] == 3.0
    assert robustness(s, 0, f) == 3.0


def test_bounds_beyond_the_int64_tick_range_match_reference():
    # 9223372036854 s is just under 2**63 ticks, so its sum with a sample
    # time leaves int64; 9223372036854.775808 s is 2**63 ticks exactly, and
    # 1e300 s is far beyond.  Sample times near the int64 limit make even a
    # short bound's sum leave int64, up to a last sample at 2**63 - 1 and a
    # span of 2**64 - 1 ticks.
    top = 2**63
    signals = [
        Signal(np.array([0, 1, 3], dtype=np.int64) * to_ticks(1.0), {"x": np.array([1.0, 2.0, -0.5])}),
        Signal(np.array([top - 15, top - 5], dtype=np.int64), {"x": np.array([2.0, 3.0])}),
        Signal(np.array([top - 21, top - 11, top - 1], dtype=np.int64), {"x": np.array([1.0, 2.0, -0.5])}),
        Signal(np.array([-top, 0, top - 1], dtype=np.int64), {"x": np.array([1.0, 2.0, -0.5])}),
    ]
    for s, text in itertools.product(signals, (
        "F[0,0.0001] (x > 0)",
        "F(0.00001,0.00002] (x > 0)",
        "(x > 0) U(0,0.00001] (x < 0)",
        "F[0,1e300] (x > 0)",
        "F[0,9223372036854] (x > 0)",
        "F(9223372036854,1e300] (x > 0)",
        "F[1e300,1e301] (x > 0)",
        "G[1,1e300) (x > 0)",
        "(x > 0) U[0,1e300] (x < 0)",
        "(x > 0) U[0,9223372036854.775808] (x < 0)",
        "(x > 0) U[2,inf) (x < 0)",
    )):
        f = parse_formula(text)
        rows = {"x": s.components["x"][np.newaxis, :]}
        reference = np.array([robustness(s, t, f) for t in s.times.tolist()])
        assert eval_robustness_all(s, f).tobytes() == reference.tobytes(), (s.times, text)
        assert eval_robustness_start(s.times, rows, f).tobytes() == reference[:1].tobytes(), (s.times, text)


# ---------------------------------------------------------------------------
# Start-only evaluation


def _rows(signal: Signal, batch: int = 1) -> dict:
    """Components of ``batch`` distinct candidates built from one signal."""
    return {name: np.vstack([col * (1.0 + 0.1 * b) for b in range(batch)]) for name, col in signal.components.items()}


def assert_start_matches_table(times, comps, f):
    """eval_robustness_start equals the table's first column, reads no more
    samples than the full table and no more predicate values than every
    predicate leaf evaluated at every sample."""
    full_counter, start_counter = TouchCounter(), TouchCounter()
    table = eval_robustness_arrays(times, comps, f, full_counter)
    start = eval_robustness_start(times, comps, f, start_counter)
    assert start.shape == (table.shape[0],)
    assert np.array_equal(start, table[:, 0]), (f, start, table[:, 0])
    assert start_counter.samples <= full_counter.samples
    assert start_counter.reads <= table.size * len(formula_predicates(f))
    return start_counter


def _random_interval(rng, span_s=5.0):
    lo = int(rng.integers(0, to_ticks(span_s / 2)))
    hi = lo + int(rng.integers(1, to_ticks(span_s)))
    return Interval(lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def test_start_matches_table_on_random_corpus():
    rng = np.random.default_rng(36)
    for _ in range(1500):
        f, s = random_instance(rng, max_len=30)
        assert_start_matches_table(s.times, _rows(s), f)


def test_start_matches_table_with_general_until():
    rng = np.random.default_rng(37)
    for _ in range(200):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=20)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, _random_interval(rng), right)
        # also nested under an eventually, which asks the fallback for a range
        for g in (f, Until(TOP, _random_interval(rng), f), And(f, Not(f))):
            assert_start_matches_table(s.times, _rows(s, 3), g)


def test_start_matches_table_on_nested_temporal_operators():
    rng = np.random.default_rng(38)
    for _ in range(300):
        inner, s = random_instance(rng, max_depth=3, max_temporal=2, min_len=5, max_len=40)
        f = inner
        for _ in range(int(rng.integers(1, 4))):
            f = Until(TOP, _random_interval(rng), Not(f) if rng.random() < 0.5 else f)
        assert_start_matches_table(s.times, _rows(s, 2), f)


def test_start_matches_table_on_batched_rows():
    rng = np.random.default_rng(39)
    for _ in range(200):
        f, s = random_instance(rng)
        batch = int(rng.integers(2, 9))
        assert_start_matches_table(s.times, _rows(s, batch), f)


def test_start_of_decided_formulas_reads_nothing():
    s = Signal(np.arange(4, dtype=np.int64) * to_ticks(0.5), {"x": np.arange(4.0)})
    comps = _rows(s, 3)
    for f, want in ((TOP, np.inf), (BOTTOM, -np.inf), (Until(TOP, Interval(0, to_ticks(1.0)), TOP), np.inf)):
        counter = assert_start_matches_table(s.times, comps, f)
        assert counter.samples == 0 and counter.reads == 0
    mixed = Or(And(TOP, Pred(Var("x"))), BOTTOM)
    assert_start_matches_table(s.times, comps, mixed)


def test_start_reads_only_the_samples_the_first_value_needs():
    s = Signal(np.arange(10, dtype=np.int64) * to_ticks(1.0), {"x": np.arange(10.0) - 4.5})
    # F[2,4] x>0 at t=0 reads samples 2, 3, 4
    f = Until(TOP, Interval(to_ticks(2.0), to_ticks(4.0)), Pred(Var("x")))
    counter = assert_start_matches_table(s.times, _rows(s), f)
    assert counter.samples == 3 and counter.reads == 3
    # an eventually whose window lies past the signal reads nothing
    late = Until(TOP, Interval(to_ticks(20.0), to_ticks(30.0)), Pred(Var("x")))
    counter = assert_start_matches_table(s.times, _rows(s), late)
    assert counter.samples == 0


def test_start_matches_table_at_mission_scale():
    from rotogo.scenarios import scenario_phi_avoid, scenario_phi_stayin

    rng = np.random.default_rng(40)
    n, batch = 201, 25
    times = np.arange(n, dtype=np.int64) * to_ticks(0.1)
    for cfg in (scenario_phi_avoid(), scenario_phi_stayin()):
        comps = {
            "x": rng.uniform(0, 5, (batch, n)), "y": rng.uniform(0, 5, (batch, n)),
            "vx": rng.uniform(-0.5, 0.5, (batch, n)), "vy": rng.uniform(-0.5, 0.5, (batch, n)),
            "xe": np.full((batch, n), 2.5), "ye": np.full((batch, n), 2.5),
        }
        counter = assert_start_matches_table(times, comps, cfg.parsed_formula())
        assert counter.samples == n  # G[0,20] reads the whole mission


# ---------------------------------------------------------------------------
# The compiled start-only program


def assert_every_start_matches_table(times, comps, f):
    """The start-only value of every suffix equals the table's column at the
    suffix's first sample, bit for bit, and the inputs stay untouched."""
    table = eval_robustness_arrays(times, comps, f)
    before = {name: col.copy() for name, col in comps.items()}
    for k in range(times.shape[0]):
        start = eval_robustness_start(times[k:], {name: col[:, k:] for name, col in comps.items()}, f)
        assert start.tobytes() == table[:, k].tobytes(), (f, k, start, table[:, k])
    for name, col in comps.items():
        assert col.tobytes() == before[name].tobytes(), name


def test_every_start_matches_table_on_random_corpus():
    rng = np.random.default_rng(41)
    for _ in range(400):
        f, s = random_instance(rng, max_len=20)
        assert_every_start_matches_table(s.times, _rows(s, int(rng.integers(1, 4))), f)


def test_every_start_matches_table_with_general_until():
    rng = np.random.default_rng(42)
    for _ in range(60):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=15)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, _random_interval(rng), right)
        for g in (f, Until(TOP, _random_interval(rng), f), Until(f, _random_interval(rng), Not(f))):
            assert_every_start_matches_table(s.times, _rows(s, 2), g)


def test_every_start_matches_table_on_nested_temporal_operators():
    rng = np.random.default_rng(43)
    for _ in range(120):
        inner, s = random_instance(rng, max_depth=3, max_temporal=2, min_len=5, max_len=25)
        f = inner
        for _ in range(int(rng.integers(1, 4))):
            f = Until(TOP, _random_interval(rng), Not(f) if rng.random() < 0.5 else f)
        assert_every_start_matches_table(s.times, _rows(s, int(rng.integers(1, 6))), f)


def test_double_negation_cancels_bit_for_bit():
    # Negating twice restores every float, the sign of zero and NaN included.
    times = np.arange(4, dtype=np.int64) * to_ticks(0.1)
    comps = {"x": np.array([[-0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -0.0, 5.0], [np.nan, 0.0, 1.0, -2.0]])}
    p = Pred(Var("x"))
    for phi in (p, Or(p, Not(p)), Until(TOP, Interval(0, to_ticks(0.2)), p)):
        plain = eval_robustness_start(times, comps, phi)
        for wrapped in (Not(Not(phi)), Not(Not(Not(Not(phi))))):
            assert eval_robustness_start(times, comps, wrapped).tobytes() == plain.tobytes()
            assert eval_robustness_arrays(times, comps, wrapped)[:, 0].tobytes() == plain.tobytes()
    assert np.signbit(eval_robustness_start(times, comps, Not(Not(p)))[0])


def test_bare_component_table_does_not_alias_the_signal():
    s = Signal(np.arange(4, dtype=np.int64) * to_ticks(0.1), {"x": np.array([-0.0, 1.5, -2.0, 0.25])})
    before = s.components["x"].copy()
    f = Pred(Var("x"))
    rows = {"x": s.components["x"][np.newaxis]}
    for table in (eval_robustness_all(s, f), eval_robustness_arrays(s.times, rows, f), eval_robustness_start(s.times, rows, f)):
        assert not np.shares_memory(table, s.components["x"])
    table = eval_robustness_all(s, f)
    assert table.tobytes() == before.tobytes()  # the values, -0.0 included
    table[:] = 7.0
    assert s.components["x"].tobytes() == before.tobytes()


def test_shared_predicates_are_read_once():
    s = Signal(np.arange(5, dtype=np.int64) * to_ticks(0.1), {"x": np.arange(5.0), "y": np.arange(5.0)})
    # (x > 0.5) appears twice, both times over samples 0..4
    f = parse_formula("F[0,0.4] ((x > 0.5) & (y > 1)) | F[0,0.4] ((x > 0.5) & (y < 2))")
    counter = assert_start_matches_table(s.times, _rows(s, 3), f)
    assert counter.samples == 5
    assert counter.reads == 3 * 3 * 5  # three distinct predicates, three rows
    full = TouchCounter()
    eval_robustness_arrays(s.times, _rows(s, 3), f, full)
    assert full.samples == 5 and full.reads == 3 * 3 * 5
    # the same predicate over different index ranges is read over each
    g = parse_formula("(x > 0) & F[0.2,0.3] (x > 0)")
    counter = assert_start_matches_table(s.times, _rows(s), g)
    assert counter.samples == 3 and counter.reads == 3
    # ... and over one range once: the full table needs (x > 0) at all
    # samples 0..2 for both operands
    short = Signal(s.times[:3], {"x": np.arange(3.0)})
    h = parse_formula("(x > 0) & F[0,0.2] (x > 0)")
    counter = assert_start_matches_table(short.times, _rows(short), h)
    assert counter.samples == 3 and counter.reads == 4
    full = TouchCounter()
    eval_robustness_all(short, h, full)
    assert full.samples == 3 and full.reads == 3
    # a late window leaves the early samples of the full table unread
    full = TouchCounter()
    eval_robustness_all(s, parse_formula("F[0.2,0.3] (x > 0)"), full)
    assert full.samples == 3 and full.reads == 3


# ---------------------------------------------------------------------------
# The general until's offset sweep


def _until_by_sample(left, right, lo, hi):
    """The general until one sample at a time, in the reference's order:
    value[j] = max over k in [lo_j, hi_j) of min(right_k, left_j, ..., left_{k-1})."""
    batch, n = right.shape
    out = np.full((batch, n), -math.inf)
    for b in range(batch):
        for j in range(n):
            best = -math.inf
            for k in range(int(lo[j]), int(hi[j])):
                v = float(right[b, k])
                for m in range(j, k):
                    v = min(v, float(left[b, m]))
                best = max(best, v)
            out[b, j] = best
    return out


def _sweep_cases(rng, count):
    """(times, interval, left, right) with non-uniform times, B > 1, lower
    bounds above 0 and unbounded upper bounds."""
    for _ in range(count):
        n = int(rng.integers(1, 30))
        times = np.cumsum(rng.integers(1, to_ticks(0.3), size=n)).astype(np.int64)
        lower = int(rng.integers(0, to_ticks(1.0))) if rng.random() < 0.7 else 0
        if rng.random() < 0.2:
            interval = Interval(lower, math.inf, bool(rng.random() < 0.5), False)
        else:
            interval = Interval(lower, lower + int(rng.integers(0, to_ticks(2.0))), bool(rng.random() < 0.5), bool(rng.random() < 0.5))
        batch = int(rng.integers(1, 4))
        yield times, interval, rng.normal(size=(batch, n)), rng.normal(size=(batch, n))


def test_until_sweep_matches_per_sample_loop():
    rng = np.random.default_rng(44)
    for times, interval, left, right in _sweep_cases(rng, 400):
        lo, hi = _window(times, interval, times)
        want = _until_by_sample(left, right, lo, hi)
        got = _until_general(left, right, lo, hi)
        assert got.tobytes() == want.tobytes(), (times, interval)


def test_until_sweep_matches_per_sample_loop_over_sub_ranges():
    # As the start-only program calls it: samples [a, b) only, each operand
    # given from the first index any of those samples reads.
    rng = np.random.default_rng(45)
    checked = 0
    for times, interval, left, right in _sweep_cases(rng, 400):
        lo, hi = _window(times, interval, times)
        want = _until_by_sample(left, right, lo, hi)
        n = times.shape[0]
        a = int(rng.integers(0, n))
        b = int(rng.integers(a + 1, n + 1))
        live = hi[a:b] > lo[a:b]
        if not live.any():
            continue
        ra = int(lo[a:b][live][0])
        wide = live & (hi[a:b] - 1 > np.arange(a, b))
        if wide.any():
            la = a + int(np.flatnonzero(wide)[0])
            lefts = left[:, la : int(hi[a:b][wide][-1]) - 1]
        else:
            la, lefts = 0, None  # no window reaches past its own sample
        got = _until_general(lefts, right[:, ra:], lo[a:b], hi[a:b], a=a, la=la, ra=ra)
        assert got.tobytes() == want[:, a:b].tobytes(), (times, interval, a, b)
        checked += 1
    assert checked > 200


def test_until_sweep_without_left_operand():
    # Point windows [0, 0] never read the left operand.
    times = np.array([0, 3, 4, 9], dtype=np.int64)
    right = np.array([[1.0, -2.0, 3.5, 0.25], [4.0, 5.0, -6.0, 7.0]])
    lo, hi = _window(times, Interval(0, 0), times)
    assert _until_general(None, right, lo, hi).tobytes() == right.tobytes()
    f = Until(Pred(Var("y")), Interval(0, 0), Pred(Var("x")))
    comps = {"x": right, "y": -right}
    assert eval_robustness_start(times, comps, f).tobytes() == right[:, 0].tobytes()


def test_unbounded_general_until_matches_reference():
    rng = np.random.default_rng(46)
    for _ in range(40):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=15)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, Interval(int(rng.integers(0, to_ticks(2.0))), math.inf, True, False), right)
        table = eval_robustness_all(s, f)
        for j in range(len(s)):
            assert float(table[j]) == robustness(s, s.t(j), f)
        assert_every_start_matches_table(s.times, _rows(s, 2), f)
