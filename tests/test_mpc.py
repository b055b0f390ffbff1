import math
from dataclasses import replace

import numpy as np
import pytest

from rotogo.dynamics import DoubleIntegrator
from rotogo.fasteval import Program, eval_robustness_all, eval_robustness_arrays
from rotogo.formula import STATE_COMPONENTS, to_ticks
from rotogo.mpc import batch_stats, mission_times, mpc_run, replan
from rotogo.planning import (
    PlanningProblem,
    clamp_robustness,
    limit_penalty,
    sample_times,
    spline_basis,
    spline_positions,
    workspace_penalty,
)
from rotogo.progression import monitor_step, progress_along, start_monitor
from rotogo.scenarios import MODES, ScenarioConfig, get_scenario, scenario_phi_avoid, scenario_phi_stayin
from rotogo.semantics import rotogo
from rotogo.signals import Signal, validate_trace

from episode_digest import episode_digest
from test_cmaes import _reference_minimize


def tiny_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        formula="G[0,2] (x > -100)",
        robot_start=(1.0, 1.0, 0.0, 0.0),
        env_start=(3.0, 3.0),
        mission_horizon=2.0,
        env_noise_std=0.0,
        objective_mode="rotogo",
        seed=0,
        first_attempt_iterations=10,
        cmaes_iterations=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Dynamics


def test_robot_step_from_rest():
    assert DoubleIntegrator.step((0.0, 0.0, 0.0, 0.0), (1.0, 0.0), 1.0) == (0.5, 0.0, 1.0, 0.0)


def test_robot_step_pure_drift():
    assert DoubleIntegrator.step((1.0, 2.0, 0.25, -0.5), (0.0, 0.0), 2.0) == (1.5, 1.0, 0.25, -0.5)


def test_zero_order_hold_semigroup_property():
    rng = np.random.default_rng(51)
    for _ in range(100):
        start = tuple(rng.uniform(-1, 1, size=4))
        u = tuple(rng.uniform(-1, 1, size=2))
        dt = float(rng.uniform(0.01, 1.0))
        two = DoubleIntegrator.step(DoubleIntegrator.step(start, u, dt), u, dt)
        one = DoubleIntegrator.step(start, u, 2 * dt)
        assert two == pytest.approx(one, abs=1e-12)


# ---------------------------------------------------------------------------
# The loop


def test_vacuously_easy_mission_succeeds():
    result = mpc_run(tiny_scenario())
    assert result.success and result.final_robustness > 0
    assert len(result.trace) == 21


def test_executed_trace_is_dynamically_valid():
    result = mpc_run(tiny_scenario(formula="G[0,2] (x > 0)", env_noise_std=0.02))
    report = validate_trace(result.trace, to_ticks(0.1), DoubleIntegrator())
    assert report.valid, report


def test_same_seed_reproduces_bitwise():
    cfg = tiny_scenario(env_noise_std=0.01, seed=5)
    a, b = mpc_run(cfg), mpc_run(cfg)
    assert np.array_equal(a.trace.times, b.trace.times)
    for name in a.trace.components:
        assert np.array_equal(a.trace.components[name], b.trace.components[name])
    assert a.final_robustness == b.final_robustness


@pytest.mark.parametrize("mode", MODES)
def test_episode_matches_the_reference_optimizer_bytewise(monkeypatch, mode):
    # This episode's candidates leave the workspace and exceed the limits,
    # and its objectives reach finite and (rotogo mode) infinite values, so
    # every term of the loss is live.
    cfg = tiny_scenario(
        formula="G[0,2] ((x - xe)^2 + (y - ye)^2 < 9)", env_noise_std=0.02, seed=4, objective_mode=mode,
    )
    lean = mpc_run(cfg)
    monkeypatch.setattr("rotogo.mpc.cmaes_minimize", _reference_minimize)
    reference = mpc_run(cfg)
    assert len(reference.replans) == 4
    assert episode_digest(lean) == episode_digest(reference)


def test_modes_share_the_environment_stream():
    cfg = tiny_scenario(env_noise_std=0.02, seed=9)
    a = mpc_run(cfg)
    b = mpc_run(cfg.with_mode("robustness"))
    assert np.array_equal(a.trace.components["xe"], b.trace.components["xe"])
    assert np.array_equal(a.trace.components["ye"], b.trace.components["ye"])


def test_unbounded_formula_rejected():
    with pytest.raises(ValueError, match="bounded"):
        tiny_scenario(formula="F[0,inf) (x > 0)")


def test_mission_shorter_than_formula_horizon_rejected():
    with pytest.raises(ValueError, match="horizon"):
        tiny_scenario(formula="G[0,5] (x > 0)")


def test_replan_period_must_align():
    with pytest.raises(ValueError, match="multiple"):
        tiny_scenario(replan_period=0.25)


def test_a_period_that_rounds_onto_the_grid_flies_that_grid():
    # 0.1000004 s rounds to the 0.1 s grid.  The planner and the dynamics
    # step on the grid's ticks, so the episode is the 0.1 s one, byte for byte.
    cfg = tiny_scenario(env_noise_std=0.01, seed=4)
    on_grid, rounded = mpc_run(cfg), mpc_run(replace(cfg, trace_period=0.1000004))
    assert episode_digest(rounded) == episode_digest(on_grid)
    assert validate_trace(rounded.trace, to_ticks(0.1), DoubleIntegrator()).valid


def test_a_two_tick_grid_replans_up_to_the_mission_end():
    # Periods of 1.5e-6 s round to 2 ticks, and the mission ends at tick 6.
    period = 1.5e-6
    cfg = tiny_scenario(
        formula="(x > 0)", mission_horizon=6e-6, trace_period=period, replan_period=period, env_step_period=period
    )
    result = mpc_run(cfg)
    assert result.trace.times.tolist() == [0, 2, 4, 6]
    assert [r.index for r in result.replans] == [0, 1, 2]
    assert validate_trace(result.trace, 2, DoubleIntegrator()).valid


def _history(result, record):
    """The executed history a replan was given: samples 0..index of the trace."""
    return np.array([result.trace.components[name][: record.index + 1] for name in STATE_COMPONENTS])


def _rebuild_objective_signal(result, record, cfg):
    """Assemble executed-history ++ best-plan-suffix at a replan instant.

    The suffix is sampled the way the loop samples the plan it executes: a
    two-row coefficient block, one row per coordinate, times the spline map
    on the rollout grid."""
    history = _history(result, record)
    current = history[:, -1]
    times = sample_times(record.plan_duration, 1.0 / cfg.trace_period)
    coef = np.column_stack([current[:2], current[2:4], record.via_points.T])
    pos, vel, _ = coef @ spline_basis(cfg.via_points, record.plan_duration, times)  # each (2, L)
    n_suffix = pos.shape[1] - 1
    suffix = np.vstack([pos[:, 1:], vel[:, 1:], np.repeat(current[4:, np.newaxis], n_suffix, axis=1)])
    block = np.hstack([history, suffix])
    return Signal(result.trace.times[: block.shape[1]], dict(zip(STATE_COMPONENTS, block)))


def test_rotogo_objective_matches_direct_definition_in_the_live_loop():
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        cmaes_iterations=4,
        first_attempt_iterations=6,
    )
    f0 = cfg.validate()
    result = mpc_run(cfg)
    assert result.replans
    for record in result.replans:
        assembled = _rebuild_objective_signal(result, record, cfg)
        direct = rotogo(assembled, assembled.t0, to_ticks(record.time), f0)
        assert direct == record.objective_robustness, record.time


@pytest.mark.parametrize("mode", ["robustness", "rotogo"])
def test_best_plan_robustness_is_the_table_value(mode):
    # The logged objective robustness of every replan is the full table's
    # first value on the executed prefix plus the plan's suffix, scored by
    # the formula that mode's objective uses.
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        objective_mode=mode,
        cmaes_iterations=4,
        first_attempt_iterations=6,
    )
    f0 = cfg.validate()
    result = mpc_run(cfg)
    assert result.replans
    for record in result.replans:
        assembled = _rebuild_objective_signal(result, record, cfg)
        if mode == "robustness":
            first, formula = 0, f0
        else:
            first, formula = record.index + 1, progress_along(f0, result.trace, record.index)
        comps = {name: col[np.newaxis, first:] for name, col in assembled.components.items()}
        table = eval_robustness_arrays(assembled.times[first:], comps, formula)
        assert np.float64(record.objective_robustness).tobytes() == table[0, 0].tobytes(), record.time


def test_run_logs_the_record_of_every_plan_it_executes(monkeypatch):
    import rotogo.mpc

    plans = []

    def recording_replan(*args, **kwargs):
        plans.append(replan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(rotogo.mpc, "replan", recording_replan)
    result = mpc_run(tiny_scenario(seed=4, cmaes_iterations=3, first_attempt_iterations=4))
    assert len(result.replans) == len(plans) == 4
    assert all(record is plan.record for record, plan in zip(result.replans, plans))
    assert [plan.start_tick for plan in plans] == [to_ticks(record.time) for record in result.replans]


@pytest.mark.parametrize("mode", MODES)
def test_record_cost_is_the_loss_of_the_executed_rows(monkeypatch, mode):
    # Every record's cost is, bit for bit, the loss of the rows the plan
    # holds.  The plan executes a one-candidate product, which can round
    # differently from the chosen candidate's row in the population
    # product that CMA-ES scored: at 300 candidates, 7 via points and 201
    # samples some rows differ (on a 2-core x86-64 box with OpenBLAS only in
    # the terminal acceleration, which the limit penalty clips to zero).
    # The goal is out of reach at v_max, so the limit penalty is live.
    import rotogo.mpc

    plans = []

    def recording_replan(*args, **kwargs):
        plans.append(replan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(rotogo.mpc, "replan", recording_replan)
    for scale in ({}, {"population_size": 300, "via_points": 7, "mission_horizon": 20.0}):
        plans.clear()
        cfg = tiny_scenario(
            formula="F[0,2] (x > 1.8)", v_max=0.3, env_noise_std=0.02, seed=4, objective_mode=mode, **scale
        )
        result = mpc_run(cfg)
        assert [plan.record for plan in plans] == result.replans
        assert len(plans) == round(cfg.mission_horizon / cfg.replan_period)
        penalties = []
        for plan in plans:
            penalty = workspace_penalty(plan.pos.T, cfg.workspace) + limit_penalty(
                plan.vel.T, plan.acc.T, cfg.v_max, cfg.a_max
            )
            want = -clamp_robustness(np.float64(plan.record.objective_robustness)) + penalty
            assert np.float64(plan.record.cost).tobytes() == want.tobytes(), plan.record.time
            penalties.append(penalty)
        assert max(penalties) > 0


def test_replan_warm_start_policy(monkeypatch):
    # The first replan searches from the current position for
    # first_attempt_iterations generations at the full step size.  A later
    # one starts from the previous plan's path, keeps it as a candidate, runs
    # cmaes_iterations and shrinks the step size only when the previous
    # plan's objective robustness was positive.
    import rotogo.mpc

    calls = []
    minimize = rotogo.mpc.cmaes_minimize

    def recording(x0, config, *, batch_objective, inject=None):
        calls.append((x0, config, inject))
        return minimize(x0, config, batch_objective=batch_objective, inject=inject)

    monkeypatch.setattr(rotogo.mpc, "cmaes_minimize", recording)
    # A 20 s mission keeps the step-size cap (half the distance left at
    # v_max) above both configured step sizes.
    cfg = tiny_scenario(mission_horizon=20.0, first_attempt_iterations=7, cmaes_iterations=3)
    monitor = start_monitor(cfg.validate(), 0)
    history = np.array([*cfg.robot_start, *cfg.env_start])[:, np.newaxis]
    first = replan(cfg, monitor, history, seed=1)
    x0, config, inject = calls[-1]
    assert config.max_iterations == cfg.first_attempt_iterations
    assert config.initial_step_size == cfg.initial_step_size
    assert np.array_equal(x0, np.tile(history[:2, 0], cfg.via_points))
    assert inject is None and first.record.warm_started is False

    later = np.repeat(history, 6, axis=1)  # at rest until t = 0.5 s
    for rho in (0.25, 0.0, -0.25):
        previous = replace(first, record=replace(first.record, objective_robustness=rho))
        plan = replan(cfg, monitor, later, previous, seed=2)
        x0, config, inject = calls[-1]
        assert config.max_iterations == cfg.cmaes_iterations
        assert config.initial_step_size == (cfg.warm_start_step_size if rho > 0 else cfg.initial_step_size)
        assert np.array_equal(x0, previous.resampled_via(to_ticks(0.5)).reshape(-1))
        # The warm start lies on the previous plan's spline at the new knots.
        record = previous.record
        knots = 0.5 + np.arange(1, cfg.via_points + 1) / cfg.via_points * (cfg.mission_horizon - 0.5)
        direct = spline_positions(
            record.via_points, np.array(record.robot[:2]), np.array(record.robot[2:]), record.plan_duration, knots
        )
        assert np.abs(x0.reshape(-1, 2) - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())
        assert np.array_equal(inject, x0)
        assert plan.record.warm_started is (rho > 0)
        assert plan.record.index == 5 and plan.start_tick == to_ticks(0.5)


@pytest.mark.parametrize("mode", MODES)
def test_every_objective_is_the_monitors_formula_from_its_anchor(monkeypatch, mode):
    # Robustness mode's monitor never steps, so every replan shares one
    # objective, f0 from tick 0; rotogo mode's objective at a replan is f0
    # progressed through the executed samples, from the next sample on.
    import rotogo.mpc

    plans = []

    def recording_replan(*args, **kwargs):
        plans.append(replan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(rotogo.mpc, "replan", recording_replan)
    cfg = tiny_scenario(
        formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)", env_noise_std=0.01, seed=6, objective_mode=mode
    )
    f0, trace_dt = cfg.validate(), to_ticks(cfg.trace_period)
    result = mpc_run(cfg)
    assert len(plans) == 4
    for plan in plans:
        objective, record = plan.objective, plan.record
        if mode == "robustness":
            assert objective is plans[0].objective and objective.formula == f0
            assert np.array_equal(objective.times, result.trace.times)
        else:
            assert objective.formula == progress_along(f0, result.trace, record.index)
            assert objective.times[0] == to_ticks(record.time) + trace_dt
            assert np.array_equal(objective.times, result.trace.times[record.index + 1 :])


def _stayin_history(i: int) -> np.ndarray:
    """Samples 0..i of a phi_stayin history that stays inside the region."""
    rng = np.random.default_rng(52)
    env = rng.uniform(2.0, 3.0, (2, i + 1))
    return np.vstack([env + rng.uniform(-0.5, 0.5, (2, i + 1)), rng.uniform(-0.3, 0.3, (2, i + 1)), env])


@pytest.mark.parametrize("anchor", [50_000, -100_000, 4_200_000, 20_100_000])
def test_replan_refuses_a_monitor_anchored_off_its_grid(anchor):
    # At replan 40 the history holds samples 0-40, so the anchor must be a
    # tick of the trace grid from 0 to sample 41 (4.1 s): these are off the
    # grid, before tick 0, after sample 41 and past the mission end.
    cfg = scenario_phi_stayin()
    monitor = start_monitor(cfg.validate(), anchor)
    with pytest.raises(ValueError, match=f"anchored at tick {anchor}, not at a tick of the trace grid from 0 to 4100000"):
        replan(cfg, monitor, _stayin_history(40), seed=1)


def test_replan_compiles_the_monitor_from_its_anchor():
    # The progressed formula at replan 40 is anchored at sample 41, so its
    # objective scores the suffix alone, from times[41]; a program on
    # times[40:] would score the current sample first, one sample early.
    cfg = replace(scenario_phi_stayin(), first_attempt_iterations=5)
    times, i = mission_times(cfg), 40
    history = _stayin_history(i)
    monitor = start_monitor(cfg.validate(), 0)
    for j in range(i + 1):
        monitor = monitor_step(monitor, int(times[j + 1]), dict(zip(STATE_COMPONENTS, history[:, j].tolist())))
    assert monitor.verdict == "undecided"
    plan = replan(cfg, monitor, history, seed=1)
    assert np.array_equal(plan.objective.times, times[i + 1 :]) and plan.objective.formula == monitor.current
    problem = PlanningProblem(cfg, monitor, history)
    assert PlanningProblem(cfg, monitor, history, plan.objective).program is plan.objective
    planes = problem.rollout(plan.record.via_points.reshape(1, -1))
    rho = problem.robustness(planes)
    assert np.float64(plan.record.objective_robustness).tobytes() == rho.tobytes()
    assert np.float64(plan.record.cost).tobytes() == problem.loss(rho, planes).tobytes()
    assert plan.record.samples_touched == problem.program.samples_touched == len(times) - i - 1


#: ``episode_digest`` of the built-in scenarios at seeds 1-2 in both modes.
#: A change that moves trajectory floats must say so: it re-takes this table
#: from ``tests/episode_digest.py``, which prints seeds 1-5.  The digests
#: hold for one floating-point environment (numpy with its bundled
#: OpenBLAS on x86-64); another BLAS may round the rollout product
#: differently.
PINNED_DIGESTS = {
    ("phi_avoid", "robustness", 1): "f9366ef80f6377c18dd37d178d6f3558aa8f5b2959a49f4c33249b4489838048",
    ("phi_avoid", "robustness", 2): "f5bfafca671c628d2bbf0e958a071c067468cdf5156c2222a17fecc54ca467d0",
    ("phi_avoid", "rotogo", 1): "a84cdaee16960fcad0f126875a422bb7b4a9693f395f1eb68ea01ad602b5e44b",
    ("phi_avoid", "rotogo", 2): "3ebc77142ee94838c57ebd2e465c73f680ff874d51e6e154f57c7679eee8d1d3",
    ("phi_stayin", "robustness", 1): "c984489df6137e4b5d3284ed7de0dd4500b77d2747c9df00f8b651c4581a4e87",
    ("phi_stayin", "robustness", 2): "d515b9bec13c624cab1965db946f873ebf8e3a0dff8321f3201a13e2aad86420",
    ("phi_stayin", "rotogo", 1): "121aaac67e156c646030d12612d78db69e63ac3d04a0e23c66b7bc28d837f7bc",
    ("phi_stayin", "rotogo", 2): "c3a525bb198f9ecf002139a273bae41ea91954ab476f786e32d7573bcf3c4a76",
}


@pytest.mark.parametrize("scenario, mode, seed", list(PINNED_DIGESTS))
def test_episode_digests_are_pinned(scenario, mode, seed):
    result = mpc_run(get_scenario(scenario, mode=mode, seed=seed))
    assert episode_digest(result) == PINNED_DIGESTS[scenario, mode, seed]


def test_robustness_mode_never_progresses_the_formula(monkeypatch):
    import rotogo.mpc

    cfg = tiny_scenario(formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)", objective_mode="robustness", seed=6)
    want = mpc_run(cfg)

    def progressed(*args, **kwargs):
        raise AssertionError("robustness mode progressed the formula")

    monkeypatch.setattr(rotogo.mpc, "monitor_step", progressed)
    got = mpc_run(cfg)
    assert [r.objective_robustness for r in got.replans] == [r.objective_robustness for r in want.replans]
    assert got.final_robustness == want.final_robustness


def test_robustness_mode_compiles_one_program(monkeypatch):
    # f0 over the whole mission is the objective of every replan, compiled
    # once and passed on from plan to plan; the final score compiles it once
    # more.
    import rotogo.mpc
    import rotogo.planning

    cfg = tiny_scenario(formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)", objective_mode="robustness", seed=6)
    built = []

    class Counted(Program):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rotogo.mpc, "Program", Counted)
    monkeypatch.setattr(rotogo.planning, "Program", Counted)
    result = mpc_run(cfg)
    assert len(result.replans) > 1
    assert len(built) == 2
    for times, f, width, names in built:
        assert np.array_equal(times, result.trace.times) and f == cfg.validate() and width == 1
        assert names == STATE_COMPONENTS


@pytest.mark.parametrize("mode", ["robustness", "rotogo"])
def test_final_robustness_is_the_table_value(mode):
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        objective_mode=mode,
    )
    result = mpc_run(cfg)
    table = eval_robustness_all(result.trace, cfg.validate())
    assert np.float64(result.final_robustness).tobytes() == table[0].tobytes()


def test_rotogo_mode_touches_only_the_suffix():
    cfg = tiny_scenario(formula="G[0,2] (x > 0)", seed=2)
    result = mpc_run(cfg)
    touched = [r.samples_touched for r in result.replans]
    remaining = [len(result.trace) - r.index - 1 for r in result.replans]
    assert touched == remaining
    assert all(a > b for a, b in zip(touched, touched[1:]))  # strictly decreasing


def test_robustness_mode_touches_full_history():
    cfg = tiny_scenario(formula="G[0,2] (x > 0)", seed=2, objective_mode="robustness")
    result = mpc_run(cfg)
    touched = [r.samples_touched for r in result.replans]
    assert touched == [len(result.trace)] * len(result.replans)


def test_robustness_objective_reproducible_offline():
    # The first replan's logged cost equals an offline re-evaluation of the
    # logged best plan through the public cost function, bit for bit.
    cfg = tiny_scenario(
        formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)",
        objective_mode="robustness",
        seed=6,
    )
    result = mpc_run(cfg)
    record = result.replans[0]
    history = _history(result, record)
    assert record.robot + record.env == tuple(history[:, -1])
    problem = PlanningProblem(cfg, start_monitor(cfg.validate(), 0), history)
    assert problem.duration == record.plan_duration
    cost = problem.cost(record.via_points.reshape(1, -1))[0]
    assert cost == record.cost


@pytest.mark.parametrize("name", ["trace_period", "replan_period", "env_step_period"])
@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_nonpositive_period_rejected_by_name(name, bad):
    # Checked before any modulo, so a zero period cannot divide by zero.
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        tiny_scenario(**{name: bad}).validate()


def test_zero_replan_period_stops_the_run_up_front():
    with pytest.raises(ValueError, match="replan_period must be positive"):
        mpc_run(tiny_scenario(replan_period=0.0))


def test_min_distance_uses_configured_radius():
    cfg = tiny_scenario(min_distance_radius=0.5)
    result = mpc_run(cfg)
    c = result.trace.components
    dist = np.sqrt((c["x"] - c["xe"]) ** 2 + (c["y"] - c["ye"]) ** 2)
    assert result.min_distance == pytest.approx(float(dist.min()) - 0.5, abs=0)


# ---------------------------------------------------------------------------
# Statistics


def _fake_result(rho, dist=0.1, scenario="phi_avoid", mode="rotogo"):
    from rotogo.mpc import RunResult

    trace = Signal(np.array([0], dtype=np.int64), {"x": np.array([0.0])})
    return RunResult(
        scenario=scenario,
        mode=mode,
        seed=0,
        trace=trace,
        replans=[],
        final_robustness=rho,
        success=rho > 0,
        min_distance=dist,
    )


def test_batch_stats_single_success():
    row = batch_stats([_fake_result(0.05)])
    assert row.success_rate == 1.0 and row.mean_robustness == 0.05 and row.episodes == 1


def test_batch_stats_half_success():
    row = batch_stats([_fake_result(0.05), _fake_result(-0.2)])
    assert row.success_rate == 0.5


def test_batch_stats_excludes_infinities_from_mean():
    row = batch_stats([_fake_result(math.inf), _fake_result(0.5), _fake_result(-math.inf)])
    assert row.mean_robustness == 0.5


def test_batch_stats_requires_results():
    with pytest.raises(ValueError):
        batch_stats([])


def test_builtin_scenarios_validate():
    for name, mode in (("phi_avoid", "rotogo"), ("phi_stayin", "robustness")):
        cfg = get_scenario(name, mode=mode)
        f = cfg.validate()
        assert f is not None


def test_phi_stayin_region_value_on_top_of_env():
    from rotogo.parser import parse_formula
    from rotogo.scenarios import scenario_phi_stayin
    from rotogo.semantics import robustness

    cfg = scenario_phi_stayin()
    region = parse_formula("(region)", aliases=cfg.aliases)
    s = Signal(
        np.array([0], dtype=np.int64),
        {"x": [2.5], "y": [2.5], "vx": [0.0], "vy": [0.0], "xe": [2.5], "ye": [2.5]},
    )
    assert robustness(s, 0, region) == 2.0


def test_scenario_config_json_round_trip(tmp_path):
    cfg = scenario_phi_avoid(mode="robustness", seed=17)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ScenarioConfig.load(path) == cfg


# ---------------------------------------------------------------------------
# The benchmark's layer wrappers


def test_benchmark_layer_wrappers_see_an_episode(tmp_path, monkeypatch):
    """The benchmark times an episode's layers by wrapping names on
    ``rotogo.mpc``; a replan that stopped calling through them would leave
    its layer table empty while every other test passes."""
    from pathlib import Path

    import rotogo.mpc
    import rotogo.scenarios

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import Tracer
    from workloads import MpcWorkload

    # Every attribute the tracer replaces is restored after the test.
    for name in (
        "rollout_arrays", "spline_positions", "workspace_penalty", "limit_penalty",
        "eval_robustness_arrays", "eval_robustness_all", "cmaes_minimize", "monitor_step",
    ):
        monkeypatch.setattr(rotogo.mpc, name, getattr(rotogo.mpc, name))
    monkeypatch.setattr(rotogo.scenarios, "parse_formula", rotogo.scenarios.parse_formula)

    workload = MpcWorkload("mpc_stayin", 1, tmp_path)
    workload.cfg = tiny_scenario(formula="G[0,2] ((x - xe)^2 + (y - ye)^2 < 8)", cmaes_iterations=3)
    workload.f0 = workload.cfg.validate()
    tracer = Tracer()
    workload.install(tracer)
    unit = workload.run(0)

    assert workload.check(unit) == []
    results, _ = unit
    assert [r.mode for r in results] == ["robustness", "rotogo"]
    cfg = workload.cfg
    replans = round(cfg.mission_horizon / cfg.replan_period)
    per_episode = cfg.first_attempt_iterations + (replans - 1) * cfg.cmaes_iterations
    assert [len(r.replans) for r in results] == [replans, replans]
    assert tracer.counts["cmaes.generations"] == 2 * per_episode
    totals = tracer.totals()
    for span in ("cmaes.minimize", "mpc.objective"):
        assert totals.get(span, {}).get("calls", 0) > 0, span
    # Every spline an episode runs comes from its problem's basis, so the
    # direct evaluators those two spans wrap are never called.
    for span in ("planning.rollout", "planning.spline"):
        assert totals.get(span, {}).get("calls", 0) == 0, span
