import copy as copy_module
import dataclasses
import hashlib
import io
import math
import pickle
from contextlib import redirect_stdout

import numpy as np
import pytest

from rotogo import progression
from rotogo.cli import main
from rotogo.formula import (
    And,
    Bottom,
    Interval,
    Not,
    Or,
    Pred,
    TOP,
    BOTTOM,
    Top,
    Until,
    Var,
    node_count,
    to_ticks,
)
from rotogo.parser import parse_formula
from rotogo.progression import (
    MAX_PROGRESSED_NODES,
    FormulaSizeError,
    MonitorState,
    monitor_step,
    progress,
    progress_along,
    rotogo_via_progression,
    simplify,
    start_monitor,
)
from rotogo.scenarios import scenario_phi_avoid, scenario_phi_stayin
from rotogo.semantics import robustness, rotogo, sat
from rotogo.signals import Signal, write_trace_csv
from rotogo.testgen import random_instance, random_interval

SEC = 1_000_000


def make_signal(times_s, **comps):
    times = np.array([to_ticks(t) for t in times_s], dtype=np.int64)
    return Signal(times, {k: np.asarray(v, dtype=float) for k, v in comps.items()})


# ---------------------------------------------------------------------------
# progress


def test_constants_are_fixed_points():
    assert progress(TOP, SEC, {"x": 0.0}) == TOP
    assert progress(BOTTOM, SEC, {"x": 0.0}) == BOTTOM


def test_predicate_resolves_to_verdict():
    f = parse_formula("(x > 4)")
    assert progress(f, SEC, {"x": 5.0}) == TOP
    assert progress(f, SEC, {"x": 3.0}) == BOTTOM
    assert progress(f, SEC, {"x": 4.0}) == BOTTOM  # boundary is a violation


def test_progress_requires_positive_delta():
    with pytest.raises(ValueError):
        progress(TOP, 0, {})


def test_always_shrinks_its_window():
    g = parse_formula("G[0,20] (x > 4)")
    out = progress(g, to_ticks(0.1), {"x": 5.0})
    assert out == parse_formula("G[0,19.9] (x > 4)")
    assert progress(g, to_ticks(0.1), {"x": 3.0}) == BOTTOM


def test_eventually_resolves_when_witnessed():
    f = parse_formula("F[0,5] (x > 0)")
    assert progress(f, SEC, {"x": 1.0}) == TOP
    out = progress(f, SEC, {"x": -1.0})
    assert out == parse_formula("F[0,4] (x > 0)")


def test_until_with_positive_lower_bound_keeps_left_obligation():
    f = parse_formula("(x>0) U[2,5] (y>0)")
    out = progress(f, SEC, {"x": 1.0, "y": 9.0})
    assert out == parse_formula("(x>0) U[1,4] (y>0)")
    assert progress(f, SEC, {"x": -1.0, "y": 9.0}) == BOTTOM


def test_until_interval_expiry_resolves_false():
    f = parse_formula("(x>0) U[0,1] (y>0)")
    out = progress(f, 2 * SEC, {"x": 1.0, "y": -1.0})
    assert out == BOTTOM


def test_unbounded_until_can_be_monitored():
    # Planning rejects unbounded formulas, monitoring does not.
    f = parse_formula("F[0,inf) (x > 0)")
    out = progress(f, 3 * SEC, {"x": -1.0})
    assert out == f  # the infinite window never shrinks
    assert progress(f, 3 * SEC, {"x": 1.0}) == TOP


def test_exhausted_eventually_keeps_point_interval():
    # Shifting [0,1] by exactly 1 leaves the degenerate point interval [0,0]:
    # one more chance at the final sample, not yet false.
    f = parse_formula("F[0,1] (y>0)")
    out = progress(f, SEC, {"y": -1.0})
    assert isinstance(out, Until)
    assert out.interval == Interval(0, 0, True, True)


# ---------------------------------------------------------------------------
# simplify


def test_simplify_rules():
    p = parse_formula("(x > 0)")
    u = parse_formula("(x>0) U[0,5] (y>0)")
    assert simplify(And(TOP, p)) == p
    assert simplify(And(p, BOTTOM)) == BOTTOM
    assert simplify(Or(BOTTOM, p)) == p
    assert simplify(Or(p, TOP)) == TOP
    assert simplify(Not(Not(u))) == u
    assert simplify(Not(TOP)) == BOTTOM
    assert simplify(Until(p, Interval(0, 0, False, False), p)) == BOTTOM
    # false-until with a strictly positive window can never hold
    assert simplify(Until(BOTTOM, Interval(SEC, 2 * SEC), p)) == BOTTOM
    # ... but with 0 in the window the right operand may fire immediately
    kept = simplify(Until(BOTTOM, Interval(0, SEC), p))
    assert isinstance(kept, Until)


def test_simplify_is_idempotent():
    rng = np.random.default_rng(21)
    for _ in range(200):
        f, _ = random_instance(rng)
        once = simplify(f)
        assert simplify(once) == once


def test_simplify_preserves_robustness_bit_exactly():
    rng = np.random.default_rng(22)
    for _ in range(300):
        f, s = random_instance(rng)
        assert robustness(s, s.t0, simplify(f)) == robustness(s, s.t0, f)


# ---------------------------------------------------------------------------
# monitor


def test_monitor_absorbs_verdicts():
    m = MonitorState(current=TOP, anchor_time=0, original=TOP)
    m2 = monitor_step(m, SEC, {"x": -1.0})
    assert m2.current == TOP and m2.step_count == 1 and m2.verdict == "satisfied"


def test_monitor_state_is_a_frozen_hashable_value():
    f = parse_formula("F[0,2] (x > 4) & G[0,1] (y < 1)")
    m = monitor_step(start_monitor(f, 0), SEC, {"x": 1.0, "y": 0.5})
    for copy in (pickle.loads(pickle.dumps(m)), copy_module.deepcopy(m), copy_module.copy(m)):
        assert copy == m and hash(copy) == hash(m)
        assert (copy.current, copy.anchor_time, copy.original, copy.step_count, copy.verdict) == (
            m.current, m.anchor_time, m.original, m.step_count, m.verdict
        )
    assert m != start_monitor(f, 0) and len({m, start_monitor(f, 0), copy_module.copy(m)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.step_count = 5
    assert not hasattr(m, "__dict__")


def test_monitor_requires_increasing_time():
    m = start_monitor(TOP, SEC)
    with pytest.raises(ValueError):
        monitor_step(m, SEC, {})


def test_monitor_detects_satisfaction_of_eventually():
    f = parse_formula("F[0,2] (x > 4)")
    s = make_signal([0, 1, 2], x=[0.0, 5.0, 0.0])
    m = start_monitor(f, s.t0)
    seen = []
    for i in range(len(s) - 1):
        m = monitor_step(m, s.t(i + 1), s.state(i))
        seen.append(m.current)
    assert seen[0] != TOP  # x=0 at t=0 does not witness it
    assert seen[1] == TOP  # x=5 at t=1 does
    assert sat(s, 0, f) is True


def test_monitor_detects_violation_of_always():
    f = parse_formula("G[0,2] (x > 0)")
    s = make_signal([0, 1, 2], x=[1.0, -0.5, 1.0])
    m = start_monitor(f, s.t0)
    m = monitor_step(m, s.t(1), s.state(0))
    assert not isinstance(m.current, (Top, Bottom))
    m = monitor_step(m, s.t(2), s.state(1))
    assert m.current == BOTTOM
    assert sat(s, 0, f) is False


def test_size_cap_guards_pathological_growth():
    # Or-of-until duplicates under progression faster than simplify can
    # shrink when every branch stays undecided.
    leaf = parse_formula("(x>0) U[0,50] (y>0)")
    f = leaf
    for _ in range(7):
        f = Or(Until(f, Interval(0, to_ticks(50.0)), f), f)
    with pytest.raises(FormulaSizeError):
        progress(f, SEC, {"x": 1.0, "y": -1.0})


# ---------------------------------------------------------------------------
# progression equals robustness-to-go


def test_rotogo_via_progression_bounds_checked():
    s = make_signal([0, 1], x=[1.0, 1.0])
    with pytest.raises(IndexError):
        rotogo_via_progression(s, 1, TOP)
    with pytest.raises(IndexError):
        rotogo_via_progression(s, -1, TOP)


def test_rotogo_via_progression_of_true_is_infinite():
    s = make_signal([0, 1, 2], x=[0.0, 0.0, 0.0])
    assert rotogo_via_progression(s, 0, TOP) == math.inf
    assert rotogo_via_progression(s, 1, TOP) == math.inf


def test_single_step_equals_progressed_robustness():
    rng = np.random.default_rng(23)
    for _ in range(150):
        f, s = random_instance(rng)
        stepped = progress(f, s.t(1) - s.t(0), s.state(0))
        assert rotogo_via_progression(s, 0, f) == robustness(s, s.t(1), stepped)


def test_progression_equivalence_random_instances():
    rng = np.random.default_rng(24)
    for _ in range(150):
        f, s = random_instance(rng)
        for cut in range(len(s) - 1):
            got = rotogo_via_progression(s, cut, f)
            want = rotogo(s, s.t0, s.t(cut), f)
            assert got == want, (f, s.times, cut, got, want)


def test_progressed_formula_ignores_prefix_mutations():
    rng = np.random.default_rng(25)
    for _ in range(100):
        f, s = random_instance(rng)
        cut = int(rng.integers(0, len(s) - 1))
        progressed = progress_along(f, s, cut)
        base = robustness(s, s.t(cut + 1), progressed)
        mutated = s
        for j in range(cut + 1):
            mutated = mutated.replaced(j, {n: float(rng.uniform(-20, 20)) for n in s.components})
        assert robustness(mutated, mutated.t(cut + 1), progressed) == base


def test_empty_interval_until_progresses_to_false():
    # An until over an empty window holds nowhere; its rewrite used to read
    # the empty window as if it held 0 and progressed this one to true.
    f = Until(TOP, Interval(5, 5, False, False), Pred(Var("x")))
    s = make_signal([0, 1, 2], x=[1.0, 1.0, 1.0])
    assert progress(f, SEC, {"x": 1.0}) == BOTTOM
    assert simplify(f) == BOTTOM
    for cut in range(len(s) - 1):
        assert rotogo_via_progression(s, cut, f) == rotogo(s, s.t0, s.t(cut), f) == -math.inf


# ---------------------------------------------------------------------------
# One walk per step equals progressing and then simplifying
#
# The two-pass form below is the rewrite-then-simplify progression as it
# stood before the two were fused, with one fix: an until whose interval is
# empty progresses to false, as ``simplify`` and the evaluators read it.


def _two_pass_rewrite(f, delta, state):
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Pred):
        return TOP if f.fn.eval(state) > 0 else BOTTOM
    if isinstance(f, Not):
        return Not(_two_pass_rewrite(f.child, delta, state))
    if isinstance(f, And):
        return And(_two_pass_rewrite(f.left, delta, state), _two_pass_rewrite(f.right, delta, state))
    if isinstance(f, Or):
        return Or(_two_pass_rewrite(f.left, delta, state), _two_pass_rewrite(f.right, delta, state))
    if f.interval.is_empty():
        return BOTTOM
    shifted = f.interval.shift_truncate(delta)
    tail = BOTTOM if shifted.is_empty() else Until(f.left, shifted, f.right)
    left_now = _two_pass_rewrite(f.left, delta, state)
    if not f.interval.contains_zero():  # the interval is non-empty here
        return And(left_now, tail)
    return Or(_two_pass_rewrite(f.right, delta, state), And(left_now, tail))


def _two_pass_simplify(f):
    if isinstance(f, Not):
        c = _two_pass_simplify(f.child)
        if isinstance(c, Top):
            return BOTTOM
        if isinstance(c, Bottom):
            return TOP
        if isinstance(c, Not):
            return c.child
        return Not(c)
    if isinstance(f, (And, Or)):
        l, r = _two_pass_simplify(f.left), _two_pass_simplify(f.right)
        absorbing, unit = (Bottom, Top) if isinstance(f, And) else (Top, Bottom)
        if isinstance(l, absorbing) or isinstance(r, absorbing):
            return BOTTOM if absorbing is Bottom else TOP
        if isinstance(l, unit):
            return r
        if isinstance(r, unit):
            return l
        return type(f)(l, r)
    if isinstance(f, Until):
        l, r = _two_pass_simplify(f.left), _two_pass_simplify(f.right)
        if f.interval.is_empty() or (isinstance(l, Bottom) and not f.interval.contains_zero()):
            return BOTTOM
        return Until(l, f.interval, r)
    return f


def _two_pass(f, delta, state):
    out = _two_pass_simplify(_two_pass_rewrite(f, delta, state))
    if node_count(out) > MAX_PROGRESSED_NODES:
        raise FormulaSizeError(f"progressed formula exceeds {MAX_PROGRESSED_NODES} nodes")
    return out


def _unsimplified(f, rng):
    """``f`` with constants, double negations and dead untils wrapped around
    random subtrees, so that simplify has work to do at every depth."""
    if isinstance(f, Not):
        f = Not(_unsimplified(f.child, rng))
    elif isinstance(f, (And, Or)):
        f = type(f)(_unsimplified(f.left, rng), _unsimplified(f.right, rng))
    elif isinstance(f, Until):
        f = Until(_unsimplified(f.left, rng), f.interval, _unsimplified(f.right, rng))
    pick = int(rng.integers(0, 8))
    if pick == 0:
        return Not(Not(f))
    if pick == 1:
        return And(TOP, f)
    if pick == 2:
        return Or(f, BOTTOM)
    if pick == 3:
        return Until(BOTTOM, random_interval(rng), f)
    if pick == 4:
        return Or(Until(f, Interval(SEC, SEC, True, False), f), f)  # empty window
    return f


def test_progress_equals_two_pass_on_random_corpus():
    rng = np.random.default_rng(31)
    for case in range(300):
        f, s = random_instance(rng)
        if case % 2:
            f = _unsimplified(f, rng)
        for k in range(len(s) - 1):
            delta, state = s.t(k + 1) - s.t(k), s.state(k)
            want = _two_pass(f, delta, state)
            assert progress(f, delta, state) == want
            out, size, size_in = progression._step(f, delta, state, True)
            assert (out, size, size_in) == (want, node_count(want), node_count(f))


def _assert_chain_matches_two_pass(f, s):
    """Monitor ``f`` along ``s``: at every step the formula equals the
    two-pass fold and the walk's sizes equal ``node_count``."""
    m, want = start_monitor(f, s.t0), f
    for k in range(len(s) - 1):
        delta, state = s.t(k + 1) - s.t(k), s.state(k)
        if not isinstance(want, (Top, Bottom)):
            out, size, size_in = progression._step(want, delta, state, k == 0)
            assert (size, size_in) == (node_count(out), node_count(want))
            want = _two_pass(want, delta, state)
            assert out == want
        m = monitor_step(m, s.t(k + 1), state)
        assert m.current == want
    assert progress_along(f, s, len(s) - 2) == want


def test_monitor_chain_equals_two_pass_on_random_corpus():
    rng = np.random.default_rng(32)
    for case in range(200):
        f, s = random_instance(rng, max_len=30)
        _assert_chain_matches_two_pass(_unsimplified(f, rng) if case % 2 else f, s)


#: The monitoring benchmark's formulas: the two scenario formulas, with
#: their aliases expanded, and a nested until.
NESTED_UNTIL = "G[0,10] ((x > 1) -> F[0,2] (y < 3)) & ((x > 0) U[0,5] (y > 2.6))"


def _benchmark_formulas():
    avoid, stayin = scenario_phi_avoid(), scenario_phi_stayin()
    return {
        "phi_avoid": (avoid.formula, avoid),
        "phi_stayin": (stayin.formula, stayin),
        "nested_until": (NESTED_UNTIL, None),
    }


def _random_walk(seed: int, n: int) -> Signal:
    """A robot and a drifting environment point in the 5 x 5 workspace,
    sampled every 0.1 s; positions reflect at the walls."""
    rng = np.random.default_rng(seed)
    dt = 0.1
    vel = np.clip(np.cumsum(rng.normal(0.0, 0.3 * dt, (n, 2)), axis=0), -0.5, 0.5)
    pos = _reflect(rng.uniform(0.5, 4.5, 2) + np.cumsum(vel * dt, axis=0))
    env = _reflect(2.5 + np.cumsum(rng.normal(0.0, 0.03, (n, 2)), axis=0))
    cols = {"x": pos[:, 0], "y": pos[:, 1], "vx": vel[:, 0], "vy": vel[:, 1], "xe": env[:, 0], "ye": env[:, 1]}
    return Signal(np.arange(n, dtype=np.int64) * to_ticks(dt), cols)


def _reflect(p):
    q = np.mod(p, 10.0)
    return np.where(q > 5.0, 10.0 - q, q)


@pytest.mark.parametrize("name", sorted(_benchmark_formulas()))
def test_monitor_chain_equals_two_pass_on_benchmark_formulas(name):
    text, cfg = _benchmark_formulas()[name]
    f = parse_formula(text, aliases=cfg.aliases if cfg else None)
    for seed in (2, 3, 10):  # walks that leave each formula undecided for 50 to 200 steps
        _assert_chain_matches_two_pass(f, _random_walk(seed, 2001))


def _outcome(fn, f, delta, state):
    try:
        return fn(f, delta, state)
    except (KeyError, FormulaSizeError) as exc:
        return type(exc), exc.args


def test_missing_variable_raises_as_two_pass_does():
    x, y, z = (Pred(Var(n)) for n in "xyz")
    cases = [
        And(x, y),  # x raises first
        And(Not(y), x),
        Or(TOP, z),  # a decided left operand still progresses the right one
        And(BOTTOM, z),
        Until(z, Interval(0, SEC), y),  # left before right
        Until(x, Interval(SEC, 2 * SEC), z),  # right untouched: no error
        Until(z, Interval(SEC, SEC, False, False), z),  # empty window: reads nothing
    ]
    state = {"x": -1.0}
    for f in cases:
        assert _outcome(progress, f, SEC, state) == _outcome(_two_pass, f, SEC, state)
    assert _outcome(progress, And(x, y), SEC, {}) == (KeyError, ("x",))
    rng = np.random.default_rng(33)
    for _ in range(300):
        f, s = random_instance(rng)
        f = _unsimplified(f, rng)
        state = {n: v for n, v in s.state(0).items() if rng.random() < 0.5}
        assert _outcome(progress, f, s.t(1) - s.t(0), state) == _outcome(_two_pass, f, s.t(1) - s.t(0), state)


def test_size_guard_matches_two_pass():
    leaf = parse_formula("(x>0) U[0,50] (y>0)")
    state = {"x": 1.0, "y": -1.0}
    for depth in (0, 2, 5, 7):
        f = leaf
        for _ in range(depth):
            f = Or(Until(f, Interval(0, to_ticks(50.0)), f), f)
        got, want = _outcome(progress, f, SEC, state), _outcome(_two_pass, f, SEC, state)
        assert got == want
    assert want[0] is FormulaSizeError  # depth 7 exceeds the cap


# ---------------------------------------------------------------------------
# `rotogo progress` output, pinned
#
# SHA-256 of the command's standard output for the benchmark formulas over a
# seeded 301-sample walk, recorded before progression and simplification
# were fused into one walk: the printed formulas pin structural equality.

PROGRESS_DIGESTS = {
    "phi_avoid": "f0495c58549f281214647ff951caa79a6bdc05ab45a9748b37503822d845ef51",
    "phi_stayin": "e271f7c39927d2f707e6ce339d6f5e4bfc2ef95aa07288b41193ccf97fc95e38",
    "nested_until": "46ef743cd2d9922168c325632e2774522af82f49c39c33c0e21b61458e37d118",
}


@pytest.mark.parametrize("name", sorted(PROGRESS_DIGESTS))
def test_progress_command_output_is_pinned(tmp_path, name):
    text, cfg = _benchmark_formulas()[name]
    trace = tmp_path / "walk.csv"
    write_trace_csv(_random_walk(2, 301), trace)
    args = ["progress", text, str(trace)]
    if cfg is not None:
        cfg.save(tmp_path / "config.json")
        args += ["--config", str(tmp_path / "config.json")]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(args) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PROGRESS_DIGESTS[name]
