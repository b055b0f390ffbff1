import math

import numpy as np
import pytest

from rotogo.dynamics import DoubleIntegrator
from rotogo.fasteval import Program, eval_robustness_all, eval_robustness_arrays
from rotogo.formula import STATE_COMPONENTS, to_ticks
from rotogo.mpc import batch_stats, mpc_run, replan
from rotogo.planning import rollout_arrays
from rotogo.progression import progress_along
from rotogo.scenarios import MODES, ScenarioConfig, scenario_phi_avoid
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
    cfg = tiny_scenario(formula="F[0,inf) (x > 0)")
    with pytest.raises(ValueError, match="bounded"):
        mpc_run(cfg)


def test_mission_shorter_than_formula_horizon_rejected():
    cfg = tiny_scenario(formula="G[0,5] (x > 0)")
    with pytest.raises(ValueError, match="horizon"):
        mpc_run(cfg)


def test_replan_period_must_align():
    cfg = tiny_scenario(replan_period=0.25)
    with pytest.raises(ValueError, match="multiple"):
        mpc_run(cfg)


def _rebuild_objective_signal(result, record, cfg):
    """Assemble executed-prefix ++ best-plan-suffix at a replan instant."""
    hz = 1.0 / cfg.trace_period
    start_pos = np.array(record.robot[:2])
    start_vel = np.array(record.robot[2:])
    _, pos, vel, _ = rollout_arrays(
        record.via_points, start_pos, start_vel, record.plan_duration, hz
    )
    n_suffix = pos.shape[0] - 1
    suffix = {
        "x": pos[1:, 0],
        "y": pos[1:, 1],
        "vx": vel[1:, 0],
        "vy": vel[1:, 1],
        "xe": np.full(n_suffix, record.env[0]),
        "ye": np.full(n_suffix, record.env[1]),
    }
    split = record.index + 1
    return Signal(
        result.trace.times[: split + n_suffix],
        {name: np.concatenate([result.trace.components[name][:split], col]) for name, col in suffix.items()},
    )


def test_rotogo_objective_matches_direct_definition_in_the_live_loop():
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        cmaes_iterations=4,
        first_attempt_iterations=6,
    )
    f0 = cfg.parsed_formula()
    result = mpc_run(cfg)
    assert result.replans
    for record in result.replans:
        assembled = _rebuild_objective_signal(result, record, cfg)
        direct = rotogo(assembled, assembled.t0, to_ticks(record.time), f0)
        assert direct == record.objective_robustness, record.time


@pytest.mark.parametrize("mode", ["robustness", "rotogo"])
def test_best_plan_robustness_is_the_table_value(mode):
    # The logged objective robustness of every replan is the full table's
    # first value on the executed prefix plus the plan's directly evaluated
    # (Horner) suffix, scored by the formula that mode's objective uses.
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        objective_mode=mode,
        cmaes_iterations=4,
        first_attempt_iterations=6,
    )
    f0 = cfg.parsed_formula()
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
    # f0 over the whole mission is the objective of every replan and the
    # final score, so the episode compiles it once.
    import rotogo.mpc

    cfg = tiny_scenario(formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)", objective_mode="robustness", seed=6)
    built = []

    class Counted(Program):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rotogo.mpc, "Program", Counted)
    result = mpc_run(cfg)
    assert len(result.replans) > 1
    assert len(built) == 1
    times, f, width = built[0]
    assert np.array_equal(times, result.trace.times) and f == cfg.parsed_formula() and width == 1


@pytest.mark.parametrize("mode", ["robustness", "rotogo"])
def test_final_robustness_is_the_table_value(mode):
    cfg = tiny_scenario(
        formula="G[0,2] !((x - xe)^2 + (y - ye)^2 < 0.25) & F[0,2] (x > 1.4)",
        env_noise_std=0.01,
        seed=3,
        objective_mode=mode,
    )
    result = mpc_run(cfg)
    table = eval_robustness_all(result.trace, cfg.parsed_formula())
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
    from rotogo.planning import PlanningProblem

    cfg = tiny_scenario(
        formula="G[0,2] (x > 0.5) & F[0,2] (x > 1.2)",
        objective_mode="robustness",
        seed=6,
    )
    result = mpc_run(cfg)
    record = result.replans[0]
    executed = result.trace.prefix(record.index)
    problem = PlanningProblem(
        Program(result.trace.times, cfg.parsed_formula(), 1), np.array(record.robot[:2]), np.array(record.robot[2:]),
        record.env, record.plan_duration, 1.0 / cfg.trace_period, cfg.via_points,
        cfg.limits(), cfg.workspace_box(), prefix={name: executed.components[name] for name in STATE_COMPONENTS},
    )
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
        from rotogo.scenarios import get_scenario

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
    for span in ("cmaes.minimize", "mpc.objective", "planning.rollout", "planning.spline"):
        assert totals.get(span, {}).get("calls", 0) > 0, span
