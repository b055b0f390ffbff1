import itertools
import math

import numpy as np
import pytest

from rotogo.fasteval import (
    Program,
    _until_general,
    _window,
    eval_robustness_all,
    eval_robustness_arrays,
)
from rotogo.formula import STATE_COMPONENTS, And, BOTTOM, Interval, Not, Or, Pred, TOP, Until, Var, to_ticks
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


def test_samples_touched_counts_distinct_samples():
    times = np.arange(5, dtype=np.int64) * to_ticks(0.1)
    f = parse_formula("G[0,0.4] ((x > 0) & (y > 1))")
    assert Program(times, f, 5, ("x", "y")).samples_touched == 5  # two predicates, five distinct samples


def test_constant_formulas_touch_nothing():
    s = Signal(np.arange(3, dtype=np.int64), {"x": np.zeros(3)})
    assert Program(s.times, TOP, 3, s.names).samples_touched == 0
    assert np.all(np.isposinf(eval_robustness_all(s, TOP)))


def test_constant_predicates_touch_nothing():
    s = Signal(np.arange(10, dtype=np.int64) * to_ticks(0.1), {"x": np.arange(10.0) - 4.5})
    for text in (
        "(1 > 0)",
        "F[0.5,0.6] (1 > 0) & F[0.1,0.2] (2 > 0)",
        "F[0.5,0.6] (1 > 0) & F[0.1,0.2] (1 > 0)",
        "G[0,0.9] (2 * 3 - 1 > 0)",
    ):
        for width in (1, 10):
            assert Program(s.times, parse_formula(text), width, s.names).samples_touched == 0, (text, width)
        assert_start_matches_table(s.times, s.names, _rows(s, 2), parse_formula(text))
    # Mixed with a variable, only the variable's range counts: samples 3..4.
    mixed = parse_formula("F[0.5,0.6] (1 > 0) & F[0.3,0.4] (x > 0)")
    assert Program(s.times, mixed, 1, s.names).samples_touched == 2
    assert assert_start_matches_table(s.times, s.names, _rows(s), mixed).samples_touched == 2


def test_matches_reference_at_mission_scale():
    # Benchmark-sized signals: 201 samples at 10 Hz with the reach-avoid
    # formula shape, checked at a spread of evaluation times.
    from rotogo.scenarios import scenario_phi_avoid

    rng = np.random.default_rng(35)
    f = scenario_phi_avoid().validate()
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
    times = np.array([0, 1, 2, 3], dtype=np.int64) * to_ticks(1.0)
    for values, lower_closed, upper_closed, want in (
        ([0.0, 1.0, 2.0, 3.0], False, True, 3.0),  # F(1,3] at t=0: sup over x at {2,3}
        ([0.0, 5.0, 2.0, 3.0], False, True, 3.0),  # the largest value at the open lower bound
        ([0.0, 1.0, 2.0, 5.0], True, False, 2.0),  # the largest value at the open upper bound
    ):
        s = Signal(times, {"x": np.array(values)})
        f = Until(TOP, Interval(to_ticks(1.0), to_ticks(3.0), lower_closed, upper_closed), Pred(Var("x")))
        assert robustness(s, 0, f) == want
        table = eval_robustness_all(s, f)
        assert table.tolist() == [robustness(s, s.t(j), f) for j in range(len(s))], values
        assert Program(times, f, 1, s.names).run(s.block[:, np.newaxis])[0, 0] == want, values


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
        reference = np.array([robustness(s, t, f) for t in s.times.tolist()])
        assert eval_robustness_all(s, f).tobytes() == reference.tobytes(), (s.times, text)
        start = Program(s.times, f, 1, s.names).run(s.block[:, np.newaxis])[:, 0]
        assert start.tobytes() == reference[:1].tobytes(), (s.times, text)


# ---------------------------------------------------------------------------
# Start-only evaluation


def _rows(signal: Signal, batch: int = 1) -> np.ndarray:
    """The (C, batch, n) block of ``batch`` distinct candidates built from one signal."""
    return np.stack([signal.block * (1.0 + 0.1 * b) for b in range(batch)], axis=1)


def assert_start_matches_table(times, names, block, f):
    """A width-1 program gives the table's first column and reads no more
    samples than the full table; returns the width-1 program."""
    full, first = Program(times, f, len(times), names), Program(times, f, 1, names)
    table = full.run(block)
    start = first.run(block)[:, 0]
    assert start.shape == (table.shape[0],)
    assert np.array_equal(start, table[:, 0]), (f, start, table[:, 0])
    assert first.samples_touched <= full.samples_touched
    return first


def _random_interval(rng, span_s=5.0):
    lo = int(rng.integers(0, to_ticks(span_s / 2)))
    hi = lo + int(rng.integers(1, to_ticks(span_s)))
    return Interval(lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def test_start_matches_table_on_random_corpus():
    rng = np.random.default_rng(36)
    for _ in range(1500):
        f, s = random_instance(rng, max_len=30)
        assert_start_matches_table(s.times, s.names, _rows(s), f)


def test_start_matches_table_with_general_until():
    rng = np.random.default_rng(37)
    for _ in range(200):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=20)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, _random_interval(rng), right)
        # also nested under an eventually, which asks the fallback for a range
        for g in (f, Until(TOP, _random_interval(rng), f), And(f, Not(f))):
            assert_start_matches_table(s.times, s.names, _rows(s, 3), g)


def test_start_matches_table_on_nested_temporal_operators():
    rng = np.random.default_rng(38)
    for _ in range(300):
        inner, s = random_instance(rng, max_depth=3, max_temporal=2, min_len=5, max_len=40)
        f = inner
        for _ in range(int(rng.integers(1, 4))):
            f = Until(TOP, _random_interval(rng), Not(f) if rng.random() < 0.5 else f)
        assert_start_matches_table(s.times, s.names, _rows(s, 2), f)


def test_start_matches_table_on_batched_rows():
    rng = np.random.default_rng(39)
    for _ in range(200):
        f, s = random_instance(rng)
        batch = int(rng.integers(2, 9))
        assert_start_matches_table(s.times, s.names, _rows(s, batch), f)


def test_start_of_decided_formulas_reads_nothing():
    s = Signal(np.arange(4, dtype=np.int64) * to_ticks(0.5), {"x": np.arange(4.0)})
    block = _rows(s, 3)
    for f, want in ((TOP, np.inf), (BOTTOM, -np.inf), (Until(TOP, Interval(0, to_ticks(1.0)), TOP), np.inf)):
        assert assert_start_matches_table(s.times, s.names, block, f).samples_touched == 0
    mixed = Or(And(TOP, Pred(Var("x"))), BOTTOM)
    assert_start_matches_table(s.times, s.names, block, mixed)


def test_start_reads_only_the_samples_the_first_value_needs():
    s = Signal(np.arange(10, dtype=np.int64) * to_ticks(1.0), {"x": np.arange(10.0) - 4.5})
    # F[2,4] x>0 at t=0 reads samples 2, 3, 4
    f = Until(TOP, Interval(to_ticks(2.0), to_ticks(4.0)), Pred(Var("x")))
    assert assert_start_matches_table(s.times, s.names, _rows(s), f).samples_touched == 3
    # an eventually whose window lies past the signal reads nothing
    late = Until(TOP, Interval(to_ticks(20.0), to_ticks(30.0)), Pred(Var("x")))
    assert assert_start_matches_table(s.times, s.names, _rows(s), late).samples_touched == 0


def test_start_matches_table_at_mission_scale():
    from rotogo.scenarios import scenario_phi_avoid, scenario_phi_stayin

    rng = np.random.default_rng(40)
    n, batch = 201, 25
    times = np.arange(n, dtype=np.int64) * to_ticks(0.1)
    for cfg in (scenario_phi_avoid(), scenario_phi_stayin()):
        block = np.array([
            rng.uniform(0, 5, (batch, n)), rng.uniform(0, 5, (batch, n)),
            rng.uniform(-0.5, 0.5, (batch, n)), rng.uniform(-0.5, 0.5, (batch, n)),
            np.full((batch, n), 2.5), np.full((batch, n), 2.5),
        ])
        program = assert_start_matches_table(times, STATE_COMPONENTS, block, cfg.validate())
        assert program.samples_touched == n  # G[0,20] reads the whole mission


# ---------------------------------------------------------------------------
# The compiled start-only program


def assert_every_start_matches_table(times, names, block, f):
    """The start-only value of every suffix equals the table's column at the
    suffix's first sample, bit for bit, and the inputs stay untouched."""
    table = eval_robustness_arrays(times, dict(zip(names, block)), f)
    before = block.copy()
    for k in range(times.shape[0]):
        start = Program(times[k:], f, 1, names).run(block[:, :, k:])[:, 0]
        assert start.tobytes() == table[:, k].tobytes(), (f, k, start, table[:, k])
    assert block.tobytes() == before.tobytes()


def test_every_start_matches_table_on_random_corpus():
    rng = np.random.default_rng(41)
    for _ in range(400):
        f, s = random_instance(rng, max_len=20)
        assert_every_start_matches_table(s.times, s.names, _rows(s, int(rng.integers(1, 4))), f)


def test_every_start_matches_table_with_general_until():
    rng = np.random.default_rng(42)
    for _ in range(60):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=15)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, _random_interval(rng), right)
        for g in (f, Until(TOP, _random_interval(rng), f), Until(f, _random_interval(rng), Not(f))):
            assert_every_start_matches_table(s.times, s.names, _rows(s, 2), g)


def test_every_start_matches_table_on_nested_temporal_operators():
    rng = np.random.default_rng(43)
    for _ in range(120):
        inner, s = random_instance(rng, max_depth=3, max_temporal=2, min_len=5, max_len=25)
        f = inner
        for _ in range(int(rng.integers(1, 4))):
            f = Until(TOP, _random_interval(rng), Not(f) if rng.random() < 0.5 else f)
        assert_every_start_matches_table(s.times, s.names, _rows(s, int(rng.integers(1, 6))), f)


def test_double_negation_cancels_bit_for_bit():
    # Negating twice restores every float, the sign of zero and NaN included.
    times = np.arange(4, dtype=np.int64) * to_ticks(0.1)
    comps = {"x": np.array([[-0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -0.0, 5.0], [np.nan, 0.0, 1.0, -2.0]])}
    block = comps["x"][np.newaxis]
    p = Pred(Var("x"))
    for phi in (p, Or(p, Not(p)), Until(TOP, Interval(0, to_ticks(0.2)), p)):
        plain = Program(times, phi, 1, ("x",)).run(block)[:, 0]
        for wrapped in (Not(Not(phi)), Not(Not(Not(Not(phi))))):
            assert Program(times, wrapped, 1, ("x",)).run(block)[:, 0].tobytes() == plain.tobytes()
            assert eval_robustness_arrays(times, comps, wrapped)[:, 0].tobytes() == plain.tobytes()
    assert np.signbit(Program(times, Not(Not(p)), 1, ("x",)).run(block)[0, 0])


def test_bare_component_table_does_not_alias_the_signal():
    s = Signal(np.arange(4, dtype=np.int64) * to_ticks(0.1), {"x": np.array([-0.0, 1.5, -2.0, 0.25])})
    before = s.components["x"].copy()
    f = Pred(Var("x"))
    rows = {"x": s.components["x"][np.newaxis]}
    start = Program(s.times, f, 1, s.names).run(s.block[:, np.newaxis])
    for table in (eval_robustness_all(s, f), eval_robustness_arrays(s.times, rows, f), start):
        assert not np.shares_memory(table, s.block)
    table = eval_robustness_all(s, f)
    assert table.tobytes() == before.tobytes()  # the values, -0.0 included
    table[:] = 7.0
    assert s.components["x"].tobytes() == before.tobytes()


def _steps(times, formula: str, width: int) -> int:
    return len(Program(times, parse_formula(formula), width, ("x", "y"))._steps)


def test_shared_predicates_are_read_once():
    s = Signal(np.arange(5, dtype=np.int64) * to_ticks(0.1), {"x": np.arange(5.0), "y": np.arange(5.0)})
    # (x > 0.5) appears twice, both times over samples 0..4: one step fewer
    # than the same formula with the second (x > 0.5) made distinct
    f = "F[0,0.4] ((x > 0.5) & (y > 1)) | F[0,0.4] ((x > 0.5) & (y < 2))"
    distinct = "F[0,0.4] ((x > 0.5) & (y > 1)) | F[0,0.4] ((x > 0.6) & (y < 2))"
    assert_start_matches_table(s.times, s.names, _rows(s, 3), parse_formula(f))
    for width in (1, 5):
        assert _steps(s.times, f, width) == _steps(s.times, distinct, width) - 1
        assert Program(s.times, parse_formula(f), width, s.names).samples_touched == 5
    # the same predicate over different index ranges is read over each
    g, g_distinct = "(x > 0.5) & F[0.2,0.3] (x > 0.5)", "(x > 0.5) & F[0.2,0.3] (x > 1)"
    assert assert_start_matches_table(s.times, s.names, _rows(s), parse_formula(g)).samples_touched == 3
    assert _steps(s.times, g, 1) == _steps(s.times, g_distinct, 1)
    # ... and over one range once: the full table needs (x > 0.5) at all
    # samples 0..2 for both operands, the first value at 0 and at 0..2
    short = s.times[:3]
    h, h_distinct = "(x > 0.5) & F[0,0.2] (x > 0.5)", "(x > 0.5) & F[0,0.2] (x > 1)"
    assert _steps(short, h, 1) == _steps(short, h_distinct, 1)
    assert _steps(short, h, 3) == _steps(short, h_distinct, 3) - 1
    assert Program(short, parse_formula(h), 1, s.names).samples_touched == 3
    assert Program(short, parse_formula(h), 3, s.names).samples_touched == 3
    # a late window leaves the early samples of the full table unread
    assert Program(s.times, parse_formula("F[0.2,0.3] (x > 0)"), 5, s.names).samples_touched == 3


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
    block = np.array([right, -right])
    assert Program(times, f, 1, ("x", "y")).run(block)[:, 0].tobytes() == right[:, 0].tobytes()


def test_unbounded_general_until_matches_reference():
    rng = np.random.default_rng(46)
    for _ in range(40):
        left, s = random_instance(rng, max_depth=2, max_temporal=1, max_len=15)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        f = Until(left, Interval(int(rng.integers(0, to_ticks(2.0))), math.inf, True, False), right)
        table = eval_robustness_all(s, f)
        for j in range(len(s)):
            assert float(table[j]) == robustness(s, s.t(j), f)
        assert_every_start_matches_table(s.times, s.names, _rows(s, 2), f)


# ---------------------------------------------------------------------------
# The block layout


def test_run_rejects_a_block_of_the_wrong_shape():
    times = np.arange(10, dtype=np.int64) * to_ticks(0.1)
    program = Program(times, parse_formula("F[0,0.5] (x > 0)"), 1, ("x",))
    rows = np.arange(30.0).reshape(3, 10)
    assert program.run(rows[np.newaxis]).shape == (3, 1)
    for bad in (rows[np.newaxis, :, :3], rows.T[np.newaxis], rows, np.stack([rows, rows]), rows[..., np.newaxis]):
        with pytest.raises(ValueError, match=r"\(1, B, 10\)"):
            program.run(bad)


def test_unknown_variable_is_a_compile_error():
    times = np.arange(3, dtype=np.int64)
    with pytest.raises(KeyError, match="'y'"):
        Program(times, parse_formula("G[0,1] (x > 0) | (y > 1)"), 1, ("x",))
    with pytest.raises(KeyError, match="'ax'"):
        Program(times, Pred(Var("ax")), 3, STATE_COMPONENTS)


def test_constant_formulas_run_on_zero_components():
    s = Signal(np.arange(4, dtype=np.int64) * to_ticks(0.1), {})
    assert s.block.shape == (0, 4)
    for f in (TOP, parse_formula("F[0,0.2] (2 > 1) & (1 > 3)")):
        reference = np.array([robustness(s, t, f) for t in s.times.tolist()])
        assert eval_robustness_all(s, f).tobytes() == reference.tobytes()
        start = Program(s.times, f, 1, s.names).run(s.block[:, np.newaxis])
        assert start.tobytes() == reference[:1].tobytes()


@pytest.mark.parametrize(
    "text",
    ["(x > -(2*3))", "(x*2^3 > 1)", "(x^0 > 0.5)", "F[0,0.5] (-(1.5*2) < x^0 - y)"],
    ids=["neg-of-folded", "constant-pow", "pow-0", "all"],
)
def test_folded_negation_constant_power_and_zero_power_match_reference(text):
    # A negated constant subexpression and a constant power fold when
    # compiled, and a zeroth power compiles to x * 0 + 1; the table keeps
    # every bit of the reference, the sign of zero included.
    rng = np.random.default_rng(35)
    f = parse_formula(text)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 6.0, -6.0, 0.125, 1e-300, -1e300])
    for _ in range(20):
        n = int(rng.integers(1, 12))
        comps = {name: np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.normal(size=n) * 4) for name in "xy"}
        s = Signal(np.arange(n, dtype=np.int64) * to_ticks(0.1), comps)
        reference = np.array([robustness(s, t, f) for t in s.times.tolist()])
        assert eval_robustness_all(s, f).tobytes() == reference.tobytes()
