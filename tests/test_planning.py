import numpy as np
import pytest

from rotogo.dynamics import RobotState
from rotogo.fasteval import Program, eval_robustness_arrays
from rotogo.formula import STATE_COMPONENTS, to_ticks
from rotogo.parser import parse_formula
from rotogo.planning import (
    LIMIT_PENALTY,
    ROBUSTNESS_CLAMP,
    WORKSPACE_PENALTY,
    Limits,
    PlanningProblem,
    Workspace,
    clamp_robustness,
    limit_penalty,
    rollout_arrays,
    sample_times,
    spline_basis,
    spline_positions,
    workspace_penalty,
)


def rollout(via, duration: float, start: RobotState, hz: float):
    """(times, pos, vel, acc) of one plan's spline from ``start``."""
    start_pos, start_vel = np.array([start.x, start.y]), np.array([start.vx, start.vy])
    return rollout_arrays(np.asarray(via, dtype=np.float64), start_pos, start_vel, duration, hz)


def plan_problem(formula, via, duration: float, start: RobotState, env=(2.5, 2.5), hz=10.0, **kwargs):
    """The problem scoring a plan's whole rollout from its start state, the
    way the ``plan`` command scores its candidates."""
    n = int(round(duration * hz)) + 1
    times = np.arange(n, dtype=np.int64) * to_ticks(1.0 / hz)
    history = np.array([start.x, start.y, start.vx, start.vy, *env])[:, np.newaxis]
    return PlanningProblem(Program(times, formula, 1), history, duration, hz, len(via), **kwargs)


def cost_of(via, duration: float, start: RobotState, formula, **kwargs) -> float:
    problem = plan_problem(formula, via, duration, start, **kwargs)
    return float(problem.cost(np.asarray(via, dtype=np.float64).reshape(1, -1))[0])


def test_stationary_plan_stays_put():
    _, pos, vel, _ = rollout([[1.0, 2.0]] * 4, 8.0, RobotState(1.0, 2.0, 0.0, 0.0), 10.0)
    assert np.all(pos == [1.0, 2.0])
    assert np.all(vel == 0.0)


def test_single_via_point_is_the_analytic_minimum_jerk_move():
    times, pos, vel, _ = rollout([[1.0, 0.0]], 2.0, RobotState(0.0, 0.0, 0.0, 0.0), 10.0)
    assert len(times) == 21
    assert times[0] == 0.0 and times[-1] == 2.0
    tau = times / 2.0
    analytic = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    assert np.abs(pos[:, 0] - analytic).max() < 1e-9
    assert np.all(np.diff(pos[:, 0]) >= -1e-15)  # monotone x
    assert vel[0, 0] == 0.0 and abs(vel[-1, 0]) < 1e-9


def test_resolution_grid_row_count():
    times, _, _, _ = rollout([[1.0, 1.0]], 2.0, RobotState(0.0, 0.0, 0.0, 0.0), 10.0)
    assert np.array_equal(times, np.arange(21) / 10.0)


def test_boundary_conditions_and_knot_continuity_random_plans():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        via = rng.uniform(0.0, 5.0, size=(n, 2))
        duration = float(rng.uniform(1.0, 20.0))
        start = RobotState(*rng.uniform(0.0, 5.0, 2), *rng.uniform(-0.5, 0.5, 2))
        _, pos, vel, acc = rollout(via, duration, start, 100.0)
        # start state exact, terminal at rest on the last via point
        assert pos[0, 0] == start.x and pos[0, 1] == start.y
        assert vel[0, 0] == start.vx and vel[0, 1] == start.vy
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
        _, single_pos, single_vel, single_acc = rollout(via[b], 20.0, RobotState(0.5, 2.5, 0.0, 0.0), 10.0)
        assert np.array_equal(single_pos, pos[b])
        assert np.array_equal(single_vel, vel[b])
        assert np.array_equal(single_acc, acc[b])


# ---------------------------------------------------------------------------
# Costs


def test_out_of_workspace_penalty_dominates():
    cost = cost_of([[8.0, 8.0]] * 4, 2.0, RobotState(7.0, 7.0, 0.0, 0.0), parse_formula("G[0,2] (x > 0)"))
    assert cost >= 21 * WORKSPACE_PENALTY


def test_stationary_goal_plan_costs_negative_robustness():
    goal = parse_formula("F[0,20] ((x > 4) & (y > 2) & (y < 3))")
    cost = cost_of([[4.5, 2.5]] * 4, 20.0, RobotState(4.5, 2.5, 0.0, 0.0), goal)
    assert cost == -0.5  # min(x-4, y-2, 3-y) = 0.5 at the goal center


def test_true_formula_maps_to_clamped_infinity():
    cost = cost_of([[1.0, 1.0]] * 2, 2.0, RobotState(1.0, 1.0, 0.0, 0.0), parse_formula("true"))
    assert cost == -ROBUSTNESS_CLAMP


def test_limit_penalty_scales_with_violation():
    # A long move in a short duration forces speeds beyond the cap.
    via = np.array([[4.5, 0.0]])
    start = RobotState(0.0, 0.0, 0.0, 0.0)
    problem = plan_problem(parse_formula("true"), via, 2.0, start, limits=Limits(v_max=0.5, a_max=1e9))
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
    problem = plan_problem(parse_formula("G[0,2] (x > 0)"), [[1.0, 1.0]] * 2, 2.0, RobotState(1.0, 1.0, 0.0, 0.0))
    assert problem.program.samples_touched == 21


# ---------------------------------------------------------------------------
# PlanningProblem


def _random_problem(rng, formula="G[0,20] ((x - xe)^2 + (y - ye)^2 > 0.25) & F[0,20] (x > 4)", prefix_len=0):
    """A problem whose program scores the last ``prefix_len`` history
    samples before the rollout suffix; the history holds up to two older
    samples besides, and its last column is the start state."""
    n_via = int(rng.integers(1, 6))
    hz = 10.0
    duration = float(rng.uniform(1.0, 20.0))
    history = rng.uniform(0.0, 5.0, (len(STATE_COMPONENTS), max(prefix_len, 1) + int(rng.integers(0, 3))))
    history[2:4, -1] = rng.uniform(-0.5, 0.5, 2)
    start_pos, start_vel = history[:2, -1], history[2:4, -1]
    length = rollout_arrays(np.zeros((n_via, 2)), start_pos, start_vel, duration, hz)[0].size
    times = np.arange(prefix_len + length - 1, dtype=np.int64) * to_ticks(0.1)
    f = parse_formula(formula)
    problem = PlanningProblem(Program(times, f, 1), history, duration, hz, n_via)
    return problem, (start_pos, start_vel, duration, hz, n_via, f), history


def test_linear_map_rollout_matches_spline_evaluation():
    rng = np.random.default_rng(43)
    for _ in range(100):
        problem, (start_pos, start_vel, duration, hz, n_via, _), _ = _random_problem(rng)
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


@pytest.mark.parametrize("duration", [20.0, 9.5, 2.5, 0.5])
def test_one_candidate_rollout_is_its_row_in_the_population(duration):
    # The executed plan is a one-candidate rollout of CMA-ES's chosen row;
    # it must hold the bytes that row had in the scored population.
    rng = np.random.default_rng(49)
    times = np.arange(int(round(duration * 10)), dtype=np.int64) * to_ticks(0.1)
    for n_via in (1, 4, 7):
        history = rng.uniform(0.0, 5.0, (len(STATE_COMPONENTS), 1))
        problem = PlanningProblem(Program(times, parse_formula("(x > 0)"), 1), history, duration, 10.0, n_via)
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
        problem, (_, _, _, _, n_via, f), history = _random_problem(rng, prefix_len=prefix_len)
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
        buffers = problem._buffers(batch)[2]
        for name in STATE_COMPONENTS:
            assert np.array_equal(buffers[name], concat[name]), name
        rho = eval_robustness_arrays(problem.times, concat, f)[:, 0]
        penalty = workspace_penalty(pos, Workspace()) + limit_penalty(vel, acc, Limits())
        assert np.array_equal(cost, -clamp_robustness(rho) + penalty)


def test_robustness_of_given_rows_matches_table():
    # Rows from the direct spline evaluation: the problem's start-only
    # value of any given rows equals the table of the assembled signal.
    rng = np.random.default_rng(46)
    for prefix_len in (0, 1, 17):
        problem, (start_pos, start_vel, duration, hz, n_via, f), _ = _random_problem(rng, prefix_len=prefix_len)
        X = rng.uniform(0.0, 5.0, size=(4, 2 * n_via))
        problem.cost(X)
        _, pos, vel, _ = rollout_arrays(X[:1].reshape(n_via, 2), start_pos, start_vel, duration, hz)
        rho = problem.robustness(np.stack([pos.T, vel.T])[:, :, np.newaxis])
        table = eval_robustness_arrays(problem.times, problem._buffers(1)[2], f)
        assert rho.tobytes() == table[:, 0].tobytes()
        assert problem._buffers(1)[2]["x"][0, -1] == pos[-1, 0]


def test_cost_leaks_no_state_between_calls():
    rng = np.random.default_rng(45)
    for prefix_len in (0, 12):
        problem, (start_pos, start_vel, _, _, n_via, _), history = _random_problem(rng, prefix_len=prefix_len)
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
            coef, _, rows = problem._buffers(batch)
            assert (coef[:, :, 0] == start_pos[:, np.newaxis]).all()
            assert (coef[:, :, 1] == start_vel[:, np.newaxis]).all()
            for name, row in zip(STATE_COMPONENTS, history[:, history.shape[1] - prefix_len :]):
                assert (rows[name][:, :prefix_len] == row).all(), name
            assert (rows["xe"][:, prefix_len:] == history[4, -1]).all()
            assert (rows["ye"][:, prefix_len:] == history[5, -1]).all()


def test_history_must_hold_the_samples_the_program_scores():
    times = np.arange(25, dtype=np.int64) * to_ticks(0.1)  # 21-sample rollout leaves 5
    program = Program(times, parse_formula("G[0,2] (x > 0)"), 1)
    with pytest.raises(ValueError, match="history holds 4 samples; the program scores 5"):
        PlanningProblem(program, np.zeros((6, 4)), 2.0, 10.0, 2)
    for bad in (np.zeros((6, 0)), np.zeros((4, 5)), np.zeros((7, 5)), np.zeros(6), np.zeros((1, 6, 5))):
        with pytest.raises(ValueError, match=r"history must be a \(6, k\) array with k >= 1"):
            PlanningProblem(program, bad, 2.0, 10.0, 2)
    # A longer history is scored from its last five samples on.
    history = np.arange(42.0).reshape(6, 7)
    rows = PlanningProblem(program, history, 2.0, 10.0, 2)._buffers(1)[2]
    for name, row in zip(STATE_COMPONENTS, history):
        assert np.array_equal(rows[name][0, :5], row[2:]), name


def test_suffix_only_program_reads_the_last_history_sample_alone():
    # A program over the rollout's samples after the first scores no
    # executed sample (split 0): only the start state in the last column
    # counts, not the whole history that history[:, -0:] would select.
    rng = np.random.default_rng(47)
    times = np.arange(1, 21, dtype=np.int64) * to_ticks(0.1)
    program = Program(times, parse_formula("G[0,2] ((x - xe)^2 + (y - ye)^2 > 1) & F[0,2] (x > 2)"), 1)
    history = rng.uniform(0.0, 5.0, (6, 9))
    X = rng.uniform(0.0, 5.0, size=(5, 4))
    full = PlanningProblem(program, history, 2.0, 10.0, 2)
    last = PlanningProblem(program, history[:, -1:], 2.0, 10.0, 2)
    assert full.cost(X).tobytes() == last.cost(X).tobytes()
    for problem in (full, last):
        coef, _, rows = problem._buffers(5)
        assert (coef[:, :, 0] == history[0:2, -1:]).all() and (coef[:, :, 1] == history[2:4, -1:]).all()
        assert (rows["xe"] == history[4, -1]).all() and (rows["ye"] == history[5, -1]).all()


@pytest.mark.parametrize("batch", [1, 25])
def test_cost_at_the_penalty_boundaries_is_the_reference_sum(batch):
    # Caps and box edges taken from the rollout's own samples: speeds and
    # accelerations exactly at the caps, positions exactly on every edge of
    # the box, and samples beyond each.  The stacked, in-place loss must
    # equal the penalty functions' sum bit for bit there.
    rng = np.random.default_rng(48 + batch)
    for prefix_len in (0, 9):
        problem, (_, _, duration, hz, n_via, _), history = _random_problem(rng, prefix_len=prefix_len)
        X = rng.uniform(-1.0, 6.0, size=(batch, 2 * n_via))
        pos, vel, acc = problem.rollout(X)

        def middle(values):
            return float(np.sort(values, axis=None)[values.size // 2])

        def quartiles(values):
            ordered = np.sort(values, axis=None)
            return float(ordered[values.size // 4]), float(ordered[3 * values.size // 4])

        speed = np.sqrt(vel[0] * vel[0] + vel[1] * vel[1])
        accel = np.sqrt(acc[0] * acc[0] + acc[1] * acc[1])
        limits = Limits(v_max=middle(speed), a_max=middle(accel))
        (x_min, x_max), (y_min, y_max) = quartiles(pos[0]), quartiles(pos[1])
        workspace = Workspace(x_min, x_max, y_min, y_max)
        edge = PlanningProblem(problem.program, history, duration, hz, n_via, limits, workspace)

        cost = edge.cost(X)
        pos, vel, acc = edge.rollout(X)
        rho = edge.robustness(np.stack([pos, vel]))
        want = -clamp_robustness(rho) + (workspace_penalty(pos, workspace) + limit_penalty(vel, acc, limits))
        assert cost.tobytes() == want.tobytes()
        assert (speed == limits.v_max).any() and (speed > limits.v_max).any()
        assert (accel == limits.a_max).any() and (accel > limits.a_max).any()
        for plane, edge_value in ((pos[0], x_min), (pos[0], x_max), (pos[1], y_min), (pos[1], y_max)):
            assert (plane == edge_value).any()
        assert (workspace_penalty(pos, workspace) > 0).any()
