from dataclasses import replace

import numpy as np
import pytest

from rotogo.fasteval import eval_robustness_arrays
from rotogo.formula import STATE_COMPONENTS, to_seconds, to_ticks
from rotogo.parser import parse_formula
from rotogo.planning import (
    LIMIT_PENALTY,
    ROBUSTNESS_CLAMP,
    WORKSPACE_PENALTY,
    PlanningProblem,
    clamp_robustness,
    limit_penalty,
    mission_times,
    rollout_arrays,
    sample_times,
    spline_basis,
    spline_positions,
    workspace_penalty,
)
from rotogo.progression import start_monitor
from rotogo.scenarios import ScenarioConfig, scenario_phi_stayin


def rollout(via, duration: float, start, hz: float):
    """(times, pos, vel, acc) of one plan's spline from ``start``, an
    (x, y, vx, vy) tuple."""
    start_pos, start_vel = np.array(start[:2]), np.array(start[2:])
    return rollout_arrays(np.asarray(via, dtype=np.float64), start_pos, start_vel, duration, hz)


def scenario(mission_horizon: float, n_via: int, **overrides) -> ScenarioConfig:
    """The settings a problem reads: a 0.1 s trace grid up to the mission
    end, the via-point count, the limits and the workspace."""
    return ScenarioConfig(name="test", formula="true", mission_horizon=mission_horizon, via_points=n_via, **overrides)


def plan_problem(formula, via, duration: float, start, env=(2.5, 2.5), **overrides):
    """The problem scoring a plan's whole rollout from its start state, the
    way the ``plan`` command scores its candidates."""
    cfg = scenario(duration, len(via), **overrides)
    history = np.array([*start, *env])[:, np.newaxis]
    return PlanningProblem(cfg, start_monitor(formula, 0), history)


def cost_of(via, duration: float, start, formula, **kwargs) -> float:
    problem = plan_problem(formula, via, duration, start, **kwargs)
    return float(problem.cost(np.asarray(via, dtype=np.float64).reshape(1, -1))[0])


def test_stationary_plan_stays_put():
    _, pos, vel, _ = rollout([[1.0, 2.0]] * 4, 8.0, (1.0, 2.0, 0.0, 0.0), 10.0)
    assert np.all(pos == [1.0, 2.0])
    assert np.all(vel == 0.0)


def test_single_via_point_is_the_analytic_minimum_jerk_move():
    times, pos, vel, _ = rollout([[1.0, 0.0]], 2.0, (0.0, 0.0, 0.0, 0.0), 10.0)
    assert len(times) == 21
    assert times[0] == 0.0 and times[-1] == 2.0
    tau = times / 2.0
    analytic = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    assert np.abs(pos[:, 0] - analytic).max() < 1e-9
    assert np.all(np.diff(pos[:, 0]) >= -1e-15)  # monotone x
    assert vel[0, 0] == 0.0 and abs(vel[-1, 0]) < 1e-9


def test_resolution_grid_row_count():
    times, _, _, _ = rollout([[1.0, 1.0]], 2.0, (0.0, 0.0, 0.0, 0.0), 10.0)
    assert np.array_equal(times, np.arange(21) / 10.0)


def test_boundary_conditions_and_knot_continuity_random_plans():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        via = rng.uniform(0.0, 5.0, size=(n, 2))
        duration = float(rng.uniform(1.0, 20.0))
        start = (*rng.uniform(0.0, 5.0, 2), *rng.uniform(-0.5, 0.5, 2))
        _, pos, vel, acc = rollout(via, duration, start, 100.0)
        # start state exact, terminal at rest on the last via point
        assert pos[0, 0] == start[0] and pos[0, 1] == start[1]
        assert vel[0, 0] == start[2] and vel[0, 1] == start[3]
        assert np.abs(vel[-1]).max() < 1e-9
        assert np.abs(acc[-1]).max() < 1e-9
        assert np.abs(pos[-1] - via[-1]).max() < 1e-9
        # C1 continuity across knots: evaluate both sides of each knot
        seg_t = duration / n
        knots = seg_t * np.arange(1, n)
        if knots.size:
            eps = 1e-9
            left = spline_positions(via, pos[0], vel[0], duration, knots - eps)
            right = spline_positions(via, pos[0], vel[0], duration, knots + eps)
            assert np.abs(left - right).max() < 1e-6  # position continuity at eps scale
            fine_times, _, fine_vel, _ = rollout(via, duration, start, 1000.0)
            idx = np.searchsorted(fine_times, knots)
            dv = np.abs(np.diff(fine_vel, axis=0))[idx - 1]
            assert dv.max() < 1e-2  # velocity has no jumps at knot crossings


def test_batch_rollout_matches_single():
    rng = np.random.default_rng(42)
    via = rng.uniform(0.0, 5.0, size=(6, 4, 2))
    times, pos, vel, acc = rollout_arrays(via, np.array([0.5, 2.5]), np.zeros(2), 20.0, 10.0)
    for b in range(6):
        _, single_pos, single_vel, single_acc = rollout(via[b], 20.0, (0.5, 2.5, 0.0, 0.0), 10.0)
        assert np.array_equal(single_pos, pos[b])
        assert np.array_equal(single_vel, vel[b])
        assert np.array_equal(single_acc, acc[b])


# ---------------------------------------------------------------------------
# Costs


def test_out_of_workspace_penalty_dominates():
    cost = cost_of([[8.0, 8.0]] * 4, 2.0, (7.0, 7.0, 0.0, 0.0), parse_formula("G[0,2] (x > 0)"))
    assert cost >= 21 * WORKSPACE_PENALTY


def test_stationary_goal_plan_costs_negative_robustness():
    goal = parse_formula("F[0,20] ((x > 4) & (y > 2) & (y < 3))")
    cost = cost_of([[4.5, 2.5]] * 4, 20.0, (4.5, 2.5, 0.0, 0.0), goal)
    assert cost == -0.5  # min(x-4, y-2, 3-y) = 0.5 at the goal center


def test_true_formula_maps_to_clamped_infinity():
    cost = cost_of([[1.0, 1.0]] * 2, 2.0, (1.0, 1.0, 0.0, 0.0), parse_formula("true"))
    assert cost == -ROBUSTNESS_CLAMP


def test_limit_penalty_scales_with_violation():
    # A long move in a short duration forces speeds beyond the cap.
    via = np.array([[4.5, 0.0]])
    start = (0.0, 0.0, 0.0, 0.0)
    problem = plan_problem(parse_formula("true"), via, 2.0, start, v_max=0.5, a_max=1e9)
    cost = float(problem.cost(via.reshape(1, -1))[0])
    _, vel, _ = problem.rollout(via.reshape(1, -1))
    speed = np.sqrt(vel[0, 0] * vel[0, 0] + vel[1, 0] * vel[1, 0])
    expected = LIMIT_PENALTY * np.maximum(0.0, speed - 0.5).sum()
    assert cost == -ROBUSTNESS_CLAMP + expected
    assert expected > 0
    # the spline evaluated directly gives the same penalty up to rounding
    _, _, direct_vel, _ = rollout(via, 2.0, start, 10.0)
    direct = LIMIT_PENALTY * np.maximum(0.0, np.sqrt((direct_vel**2).sum(axis=1)) - 0.5).sum()
    assert expected == pytest.approx(direct, rel=1e-9)


def test_clamp_robustness():
    assert clamp_robustness(np.array([np.inf]))[0] == ROBUSTNESS_CLAMP
    assert clamp_robustness(np.array([-np.inf]))[0] == -ROBUSTNESS_CLAMP
    assert clamp_robustness(np.array([0.25]))[0] == 0.25


def test_plan_cost_counts_touched_samples():
    problem = plan_problem(parse_formula("G[0,2] (x > 0)"), [[1.0, 1.0]] * 2, 2.0, (1.0, 1.0, 0.0, 0.0))
    assert problem.program.samples_touched == 21


# ---------------------------------------------------------------------------
# PlanningProblem


def _random_problem(rng, formula="G[0,20] ((x - xe)^2 + (y - ye)^2 > 0.25) & F[0,20] (x > 4)", prefix_len=0):
    """A problem whose monitor is anchored at the first of the last
    ``prefix_len`` history samples, or at the rollout's second sample when
    ``prefix_len`` is 0; the history holds up to two older samples besides,
    and its last column is the start state.  The duration is drawn on the
    0.1 s trace grid, and the mission ends after it."""
    n_via = int(rng.integers(1, 6))
    hz = 10.0
    duration = round(float(rng.uniform(1.0, 20.0)), 1)
    history = rng.uniform(0.0, 5.0, (len(STATE_COMPONENTS), max(prefix_len, 1) + int(rng.integers(0, 3))))
    history[2:4, -1] = rng.uniform(-0.5, 0.5, 2)
    start_pos, start_vel = history[:2, -1], history[2:4, -1]
    k, dt = history.shape[1], to_ticks(0.1)
    cfg = scenario(to_seconds((k - 1) * dt + to_ticks(duration)), n_via)
    length = sample_times(duration, hz).size
    f = parse_formula(formula)
    problem = PlanningProblem(cfg, start_monitor(f, (k - prefix_len) * dt), history)
    assert problem.duration == duration and problem.rollout_times.size == length
    assert problem.program.times.size == prefix_len + length - 1
    return problem, (start_pos, start_vel, duration, hz, n_via, f, cfg), history


def test_linear_map_rollout_matches_spline_evaluation():
    rng = np.random.default_rng(43)
    for _ in range(100):
        problem, (start_pos, start_vel, duration, hz, n_via, _, _), _ = _random_problem(rng)
        X = rng.uniform(-1.0, 6.0, size=(int(rng.integers(1, 8)), 2 * n_via))
        pos, vel, acc = problem.rollout(X)
        _, want_pos, want_vel, want_acc = rollout_arrays(X.reshape(-1, n_via, 2), start_pos, start_vel, duration, hz)
        for got, want in ((pos, want_pos), (vel, want_vel), (acc, want_acc)):
            assert got.shape == (2, X.shape[0], want.shape[1])
            # 1e-12, relative once values exceed 1: short random plans reach
            # accelerations of several hundred m/s^2
            assert np.abs(np.moveaxis(got, 0, -1) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n_via", [1, 2, 4, 7])
@pytest.mark.parametrize("duration", [0.33, 0.5, 7.5, 20.0])
def test_spline_basis_matches_the_direct_evaluation(n_via, duration):
    # The closed-form map against the direct (Horner) spline pushed through
    # every unit vector of (p0, v0, via_1..via_N) as one coordinate, on the
    # rollout grid; an off-grid duration appends the terminal sample.
    times = sample_times(duration, 10.0)
    assert times[0] == 0.0 and times[-1] == duration
    assert np.array_equal(times[:-1], np.arange(times.size - 1) / 10.0)
    probe = np.eye(n_via + 2)[:, :, np.newaxis]
    grid, pos, vel, acc = rollout_arrays(probe[:, 2:], probe[:, 0:1], probe[:, 1], duration, 10.0)
    assert np.array_equal(grid, times)
    basis = spline_basis(n_via, duration, times)
    assert basis.shape == (3, n_via + 2, times.size)
    for got, want in zip(basis, (pos[..., 0], vel[..., 0], acc[..., 0])):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_the_flown_spline_meets_the_boundary_and_knot_conditions():
    # Acceptance c08's 100 plans (its seed and draws) through the map that
    # episodes execute.  The start velocity is h * (1 / h) there, off by up
    # to an ulp, so it is not asserted exactly.
    rng = np.random.default_rng(74250917)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        via = rng.uniform(0.0, 5.0, size=(n, 2))
        duration = float(rng.uniform(1.0, 20.0))
        start_pos, start_vel = rng.uniform(0.0, 5.0, 2), rng.uniform(-0.5, 0.5, 2)
        coeffs = np.vstack([start_pos, start_vel, via]).T  # (2, N+2)
        pos, vel, acc = coeffs @ spline_basis(n, duration, sample_times(duration, 50.0))  # each (2, L)
        assert pos[0, 0] == start_pos[0] and pos[1, 0] == start_pos[1]
        assert np.abs(vel[:, -1]).max() < 1e-9 and np.abs(acc[:, -1]).max() < 1e-9
        if n > 1:
            # A jump in position or velocity at a knot shows in the mean of
            # the two sides as half its size.
            knots = duration / n * np.arange(1, n)
            h = 1e-7
            left, centre, right = (coeffs @ spline_basis(n, duration, knots + d)[:2] for d in (-h, 0.0, h))
            assert np.abs((left + right) / 2 - centre).max() < 1e-9


@pytest.mark.parametrize("duration", [20.0, 9.5, 2.5, 0.5])
def test_one_candidate_rollout_is_its_row_in_the_population(duration):
    # The executed plan is a one-candidate rollout of CMA-ES's chosen row;
    # it must hold the bytes that row had in the scored population.
    rng = np.random.default_rng(49)
    times = np.arange(1, int(round(duration * 10)) + 1, dtype=np.int64) * to_ticks(0.1)
    for n_via in (1, 4, 7):
        history = rng.uniform(0.0, 5.0, (len(STATE_COMPONENTS), 1))
        problem = PlanningProblem(scenario(duration, n_via), start_monitor(parse_formula("(x > 0)"), times[0]), history)
        X = rng.uniform(-1.0, 6.0, size=(25, 2 * n_via))
        planes = problem.rollout(X)
        for i in range(X.shape[0]):
            assert problem.rollout(X[i : i + 1]).tobytes() == planes[:, :, i : i + 1].copy().tobytes(), (n_via, i)


def test_cost_matches_prefix_plus_suffix_table():
    # The prefilled buffers hold what concatenating the executed prefix and
    # each candidate's suffix used to build, and the start-only cost equals
    # the full table's first column plus the penalties.
    rng = np.random.default_rng(44)
    for _ in range(30):
        prefix_len = int(rng.integers(1, 30))
        problem, (_, _, _, _, n_via, f, cfg), history = _random_problem(rng, prefix_len=prefix_len)
        prefix = dict(zip(STATE_COMPONENTS, history[:, -prefix_len:]))
        batch = 6
        X = rng.uniform(0.0, 5.0, size=(batch, 2 * n_via))
        cost = problem.cost(X)
        pos, vel, acc = problem.rollout(X)
        suffix = {
            "x": pos[0, :, 1:], "y": pos[1, :, 1:], "vx": vel[0, :, 1:], "vy": vel[1, :, 1:],
            "xe": np.full((batch, pos.shape[2] - 1), problem.env[0]),
            "ye": np.full((batch, pos.shape[2] - 1), problem.env[1]),
        }
        concat = {
            name: np.concatenate([np.broadcast_to(prefix[name], (batch, prefix_len)), suffix[name]], axis=1)
            for name in STATE_COMPONENTS
        }
        block = problem._buffers(batch)[1]
        for row, name in zip(block, STATE_COMPONENTS):
            assert np.array_equal(row, concat[name]), name
        rho = eval_robustness_arrays(problem.program.times, concat, f)[:, 0]
        penalty = workspace_penalty(pos, cfg.workspace) + limit_penalty(vel, acc, cfg.v_max, cfg.a_max)
        assert np.array_equal(cost, -clamp_robustness(rho) + penalty)


def test_robustness_of_given_rows_matches_table():
    # Rows from the direct spline evaluation: the problem's start-only
    # value of any given rows equals the table of the assembled signal.
    rng = np.random.default_rng(46)
    for prefix_len in (0, 1, 17):
        problem, (start_pos, start_vel, duration, hz, n_via, f, _), _ = _random_problem(rng, prefix_len=prefix_len)
        X = rng.uniform(0.0, 5.0, size=(4, 2 * n_via))
        problem.cost(X)
        _, pos, vel, _ = rollout_arrays(X[:1].reshape(n_via, 2), start_pos, start_vel, duration, hz)
        rho = problem.robustness(np.stack([pos.T, vel.T])[:, :, np.newaxis])
        block = problem._buffers(1)[1]
        table = eval_robustness_arrays(problem.program.times, dict(zip(STATE_COMPONENTS, block)), f)
        assert rho.tobytes() == table[:, 0].tobytes()
        assert block[0, 0, -1] == pos[-1, 0]


def test_cost_leaks_no_state_between_calls():
    rng = np.random.default_rng(45)
    for prefix_len in (0, 12):
        problem, (start_pos, start_vel, _, _, n_via, _, _), history = _random_problem(rng, prefix_len=prefix_len)
        X = rng.uniform(0.0, 5.0, size=(10, 2 * n_via))
        first = problem.cost(X)
        small = problem.cost(X[:3] + 0.5)
        again = problem.cost(X)
        assert np.array_equal(first, again)
        assert np.array_equal(small, problem.cost(X[:3] + 0.5))
        # a candidate's cost does not depend on the batch it is scored in
        assert np.array_equal(problem.cost(X[4:5]), first[4:5])
        # a larger batch than any before gets buffers of its own
        assert np.array_equal(problem.cost(np.vstack([X, X]))[10:], first)
        # a batch size seen before reuses its buffers, and every cached
        # entry still holds the start state, the prefix and the environment
        entry = problem._buffers(10)
        problem.cost(X + 0.5)
        assert np.array_equal(problem.cost(X), first)
        assert all(got is want for got, want in zip(problem._buffers(10), entry))
        for batch in (1, 3, 10, 20):
            coef, block = problem._buffers(batch)
            assert (coef[:, :, 0] == start_pos[:, np.newaxis]).all()
            assert (coef[:, :, 1] == start_vel[:, np.newaxis]).all()
            assert (block[:, :, :prefix_len] == history[:, np.newaxis, history.shape[1] - prefix_len :]).all()
            assert (block[4:, :, prefix_len:] == history[4:, -1, np.newaxis, np.newaxis]).all()


def test_history_must_hold_the_samples_the_program_scores():
    f = parse_formula("G[0,2] (x > 0)")
    monitor = start_monitor(f, 0)
    for bad in (np.zeros((6, 0)), np.zeros((4, 5)), np.zeros((7, 5)), np.zeros(6), np.zeros((1, 6, 5))):
        with pytest.raises(ValueError, match=r"history must be a \(6, k\) array with k >= 1"):
            PlanningProblem(scenario(2.3, 2), monitor, bad)
    for k in (24, 25):
        with pytest.raises(ValueError, match=f"history holds {k} samples, which reach the mission end at tick 2300000"):
            PlanningProblem(scenario(2.3, 2), monitor, np.zeros((6, k)))
    # From the last of seven samples, a monitor anchored at 0.2 s scores the
    # last five: the two before them are not read.
    monitor = start_monitor(f, to_ticks(0.2))
    history = np.arange(42.0).reshape(6, 7)
    earlier = history.copy()
    earlier[:, :2] = -history[:, :2]
    X = np.random.default_rng(50).uniform(0.0, 5.0, size=(3, 4))
    costs = []
    for h in (history, earlier):
        problem = PlanningProblem(scenario(2.6, 2), monitor, h)
        costs.append(problem.cost(X).tobytes())
        assert np.array_equal(problem._buffers(3)[1][:, :, :5], np.broadcast_to(history[:, np.newaxis, 2:], (6, 3, 5)))
    assert costs[0] == costs[1]


def test_suffix_only_program_reads_the_last_history_sample_alone():
    # A monitor anchored at the rollout's second sample scores no executed
    # sample (split 0): only the start state in the last column counts, not
    # the whole history that history[:, -0:] would select, so changing every
    # earlier column changes nothing.
    rng = np.random.default_rng(47)
    f = parse_formula("G[0,2] ((x - xe)^2 + (y - ye)^2 > 1) & F[0,2] (x > 2)")
    monitor = start_monitor(f, to_ticks(0.9))
    history = rng.uniform(0.0, 5.0, (6, 9))
    X = rng.uniform(0.0, 5.0, size=(5, 4))
    earlier = history.copy()
    earlier[:, :-1] = rng.uniform(0.0, 5.0, (6, 8))
    full = PlanningProblem(scenario(2.8, 2), monitor, history)
    last = PlanningProblem(scenario(2.8, 2), monitor, earlier)
    assert full.cost(X).tobytes() == last.cost(X).tobytes()
    for problem in (full, last):
        coef, block = problem._buffers(5)
        assert (coef[:, :, 0] == history[0:2, -1:]).all() and (coef[:, :, 1] == history[2:4, -1:]).all()
        assert (block[4] == history[4, -1]).all() and (block[5] == history[5, -1]).all()


def _stayin_at_replan_40():
    """phi_stayin's config, formula, trace grid and a history of samples
    0-40: the plan runs from tick 4.0 s to the mission end."""
    cfg = scenario_phi_stayin()
    return cfg, cfg.validate(), mission_times(cfg), np.random.default_rng(52).uniform(0.0, 5.0, (6, 41))


def test_program_must_be_compiled_on_the_replan_grid():
    # The problem compiles the monitor's formula on the trace grid from its
    # anchor: sample 41 scores the suffix alone, sample 40 the current
    # sample first and tick 0 the whole history.
    cfg, f, times, history = _stayin_at_replan_40()
    for split, first in ((0, 41), (1, 40), (41, 0)):
        problem = PlanningProblem(cfg, start_monitor(f, int(times[first])), history)
        assert np.array_equal(problem.program.times, times[first:]) and problem.program.formula == f
        assert problem.start_tick == 4_000_000 and problem.duration == 16.0
        assert np.array_equal(problem.rollout_times, np.arange(161) / 10.0)
        assert problem._split == split


@pytest.mark.parametrize("anchor", [50_000, -100_000, 4_200_000, 20_100_000])
def test_problem_refuses_a_monitor_anchored_off_its_grid(anchor):
    # Off the grid, before tick 0, after sample 41 and past the mission end.
    cfg, f, _, history = _stayin_at_replan_40()
    with pytest.raises(ValueError, match=f"anchored at tick {anchor}, not at a tick of the trace grid from 0 to 4100000"):
        PlanningProblem(cfg, start_monitor(f, anchor), history)


def test_problem_reuses_a_program_for_the_same_formula_and_grid():
    cfg, f, times, history = _stayin_at_replan_40()
    previous = PlanningProblem(cfg, start_monitor(f, 0), history[:, :11]).program
    # Another replan from the same anchor, with an equal formula parsed
    # afresh, scores with the same program.
    assert PlanningProblem(cfg, start_monitor(cfg.validate(), 0), history, previous).program is previous
    other = parse_formula("G[0,20] (x > 1)")
    for monitor in (start_monitor(other, 0), start_monitor(f, int(times[41]))):
        program = PlanningProblem(cfg, monitor, history, previous).program
        assert program is not previous and program.formula == monitor.current
        assert np.array_equal(program.times, times[np.searchsorted(times, monitor.anchor_time) :])


def test_a_mission_end_off_the_trace_grid_cannot_be_built():
    # A 2.35 s mission on the 0.1 s grid would end half a sample after the
    # grid's last tick; the config refuses it, so no problem is given one.
    with pytest.raises(ValueError, match="^mission_horizon must be a multiple of trace_period$"):
        scenario(2.35, 2)


def test_rollout_times_are_the_tick_grid_in_seconds():
    # A 2-tick grid: the rollout samples ticks 2, 4 and 6 from tick 2.  A
    # period in float seconds, 1.5e-6, would put them at 0, 1.5e-6 and
    # 3e-6 and end the plan short of the mission end.
    cfg = scenario(6e-6, 1, trace_period=1.5e-6, replan_period=1.5e-6, env_step_period=1.5e-6)
    problem = PlanningProblem(cfg, start_monitor(cfg.validate(), 2), np.zeros((6, 2)))
    assert problem.start_tick == 2 and problem.duration == 4e-6
    assert problem.rollout_times.tolist() == [0.0, 2e-6, 4e-6]
    assert problem.program.times.tolist() == [2, 4, 6]


@pytest.mark.parametrize("batch", [1, 25])
def test_cost_at_the_penalty_boundaries_is_the_reference_sum(batch):
    # Caps and box edges taken from the rollout's own samples: speeds and
    # accelerations exactly at the caps, positions exactly on every edge of
    # the box, and samples beyond each.  The stacked, in-place loss must
    # equal the penalty functions' sum bit for bit there.
    rng = np.random.default_rng(48 + batch)
    for prefix_len in (0, 9):
        problem, (_, _, _, _, n_via, f, cfg), history = _random_problem(rng, prefix_len=prefix_len)
        X = rng.uniform(-1.0, 6.0, size=(batch, 2 * n_via))
        pos, vel, acc = problem.rollout(X)

        def middle(values):
            return float(np.sort(values, axis=None)[values.size // 2])

        def quartiles(values):
            ordered = np.sort(values, axis=None)
            return float(ordered[values.size // 4]), float(ordered[3 * values.size // 4])

        speed = np.sqrt(vel[0] * vel[0] + vel[1] * vel[1])
        accel = np.sqrt(acc[0] * acc[0] + acc[1] * acc[1])
        v_max, a_max = middle(speed), middle(accel)
        (x_min, x_max), (y_min, y_max) = quartiles(pos[0]), quartiles(pos[1])
        workspace = (x_min, x_max, y_min, y_max)
        edge_cfg = replace(cfg, v_max=v_max, a_max=a_max, workspace=workspace)
        edge = PlanningProblem(edge_cfg, start_monitor(f, problem.program.times[0]), history, problem.program)

        cost = edge.cost(X)
        pos, vel, acc = edge.rollout(X)
        rho = edge.robustness(np.stack([pos, vel]))
        penalty = workspace_penalty(pos, workspace) + limit_penalty(vel, acc, v_max, a_max)
        assert edge.penalties(edge.rollout(X)).tobytes() == penalty.tobytes()
        assert cost.tobytes() == (-clamp_robustness(rho) + penalty).tobytes()
        assert (speed == v_max).any() and (speed > v_max).any()
        assert (accel == a_max).any() and (accel > a_max).any()
        for plane, edge_value in ((pos[0], x_min), (pos[0], x_max), (pos[1], y_min), (pos[1], y_max)):
            assert (plane == edge_value).any()
        assert (workspace_penalty(pos, workspace) > 0).any()
