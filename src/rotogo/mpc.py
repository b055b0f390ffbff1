"""Model-predictive control loop comparing two planning objectives.

At every replan instant the robot optimizes a via-point suffix trajectory
with CMA-ES.  In ``robustness`` mode the objective is the robustness of the
executed history concatenated with the candidate suffix, scored by the
original formula from mission start; past proximity to obstacles caps it
forever.  In ``rotogo`` mode the formula is progressed through each executed
sample and the candidate suffix alone is scored by the progressed formula
from the next sample time, which equals the robustness-to-go of the
original formula from the current time.  Only the suffix is ever evaluated,
so per-replan work shrinks with the remaining horizon.

Everything runs in simulated time and is deterministic for a given seed:
the environment noise and the per-replan optimizer seeds come from separate
child streams, so paired runs of the two modes see identical disturbances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DoubleIntegrator, EnvState, RobotState
# eval_robustness_all, eval_robustness_arrays, limit_penalty and
# workspace_penalty are not called here: PlanningProblem computes the
# penalties, and compiled programs score the candidates and the executed
# trace.  The names stay importable here because the benchmark's tracer
# (perfbench/workloads.py) wraps them on this module.
from .fasteval import Program, TouchCounter, eval_robustness_all, eval_robustness_arrays  # noqa: F401
from .formula import node_count, to_seconds, to_ticks
from .cmaes import CmaesConfig, cmaes_minimize
from .planning import (  # noqa: F401
    PlanningProblem,
    limit_penalty,
    rollout_arrays,
    spline_positions,
    workspace_penalty,
)
from .progression import monitor_step, start_monitor
from .scenarios import ScenarioConfig
from .signals import Signal
from .semantics import POS_INF, NEG_INF


@dataclass(frozen=True)
class ReplanRecord:
    index: int  # trace sample index of the replan instant
    time: float  # seconds
    robot: tuple[float, float, float, float]
    env: tuple[float, float]
    via_points: np.ndarray
    plan_duration: float
    cost: float
    objective_robustness: float  # robustness of the best plan's objective signal
    formula_nodes: int  # size of the formula the objective scored
    samples_touched: int  # distinct signal samples per objective evaluation
    warm_started: bool


@dataclass
class RunResult:
    scenario: str
    mode: str
    seed: int
    trace: Signal
    replans: list[ReplanRecord]
    final_robustness: float
    success: bool
    min_distance: float

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "final_robustness": _json_float(self.final_robustness),
            "success": self.success,
            "min_distance": self.min_distance,
            "replans": len(self.replans),
        }


def _json_float(v: float):
    if v == POS_INF:
        return "+inf"
    if v == NEG_INF:
        return "-inf"
    return v


@dataclass(frozen=True)
class StatsRow:
    problem: str
    mode: str
    episodes: int
    mean_robustness: float  # over finite outcomes only
    pos_inf_count: int
    neg_inf_count: int
    mean_min_distance: float
    success_rate: float


def batch_stats(results: list[RunResult]) -> StatsRow:
    if not results:
        raise ValueError("batch_stats requires at least one result")
    finite = [r.final_robustness for r in results if math.isfinite(r.final_robustness)]
    mean_rho = float(np.mean(finite)) if finite else math.nan
    return StatsRow(
        problem=results[0].scenario,
        mode=results[0].mode,
        episodes=len(results),
        mean_robustness=mean_rho,
        pos_inf_count=sum(1 for r in results if r.final_robustness == POS_INF),
        neg_inf_count=sum(1 for r in results if r.final_robustness == NEG_INF),
        mean_min_distance=float(np.mean([r.min_distance for r in results])),
        success_rate=float(np.mean([r.success for r in results])),
    )


# ---------------------------------------------------------------------------
# The loop


@dataclass
class _ActivePlan:
    start_tick: int
    acc: np.ndarray  # (L, 2) accelerations on the trace grid
    via: np.ndarray
    duration: float
    start_pos: np.ndarray
    start_vel: np.ndarray

    def control_at(self, t_tick: int, trace_dt: int) -> tuple[float, float]:
        j = (t_tick - self.start_tick) // trace_dt
        j = min(max(j, 0), self.acc.shape[0] - 1)
        return float(self.acc[j, 0]), float(self.acc[j, 1])

    def resampled_via(self, new_start_tick: int, n_via: int, mission_end: int) -> np.ndarray:
        """Via points for the next replan window, taken along this plan's path.

        Via points are absolute waypoints; reusing them verbatim after time
        has passed would re-time already-passed waypoints into the shrunken
        window and bend the plan back on itself.  Sampling this plan's own
        spline at the new knot times slides the window forward instead.
        """
        elapsed = to_seconds(new_start_tick - self.start_tick)
        remaining = to_seconds(mission_end - new_start_tick)
        local = elapsed + (np.arange(1, n_via + 1) / n_via) * remaining
        return spline_positions(self.via, self.start_pos, self.start_vel, self.duration, local)


def mpc_run(cfg: ScenarioConfig) -> RunResult:
    """Run one episode of the configured scenario."""
    f0 = cfg.validate()
    trace_dt = to_ticks(cfg.trace_period)
    replan_dt = to_ticks(cfg.replan_period)
    env_dt = to_ticks(cfg.env_step_period)
    mission_end = to_ticks(cfg.mission_horizon)
    n_samples = mission_end // trace_dt + 1
    micro_per_step = trace_dt // env_dt

    env_ss, opt_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    env_draws = np.random.default_rng(env_ss).normal(0.0, 1.0, size=((n_samples - 1) * micro_per_step, 2))
    env_draws *= cfg.env_noise_std
    opt_seeds = np.random.default_rng(opt_ss)

    robot = RobotState(*cfg.robot_start)
    env = EnvState(*cfg.env_start)
    # Only rotogo mode scores the progressed formula, so only it progresses.
    progressing = cfg.objective_mode == "rotogo"
    monitor = start_monitor(f0, 0)
    limits = cfg.limits()
    workspace = cfg.workspace_box()
    hz = 1.0 / cfg.trace_period

    times = np.arange(n_samples, dtype=np.int64) * trace_dt
    cols = {n: np.zeros(n_samples) for n in ("x", "y", "vx", "vy", "xe", "ye", "ax", "ay", "w1", "w2")}
    # The robustness of f0 at mission start over the whole mission: the
    # objective of every robustness-mode replan and the episode's final
    # score, compiled once.
    scored = Program(times, f0, 1)
    scored_nodes = node_count(f0)

    active: Optional[_ActivePlan] = None
    prev_rho = NEG_INF
    replans: list[ReplanRecord] = []

    for i in range(n_samples):
        t_i = int(times[i])
        obs = {
            "x": robot.x,
            "y": robot.y,
            "vx": robot.vx,
            "vy": robot.vy,
            "xe": env.xe,
            "ye": env.ye,
        }
        if progressing and i < n_samples - 1:
            monitor = monitor_step(monitor, t_i + trace_dt, obs)

        if t_i % replan_dt == 0 and t_i < mission_end:
            if progressing:
                # The progressed formula, anchored at t_i + trace_dt, scores
                # the candidate suffix alone.
                objective = Program(times[i + 1 :], monitor.current, 1)
                nodes, prefix = node_count(monitor.current), None
            else:
                # The executed history including the current observation,
                # shared by all candidates, then each candidate's suffix.
                objective, nodes = scored, scored_nodes
                prefix = {name: np.append(cols[name][:i], value) for name, value in obs.items()}
            warm = prev_rho > 0 and active is not None
            plan, record = _replan(
                cfg, objective, nodes, prefix, robot, env, t_i, mission_end, hz,
                limits, workspace,
                mean_via=active.resampled_via(t_i, cfg.via_points, mission_end) if active is not None else None,
                warm=warm,
                seed=int(opt_seeds.integers(0, 2**63)),
                index=i,
            )
            active = plan
            prev_rho = record.objective_robustness
            replans.append(record)

        u = active.control_at(t_i, trace_dt) if active is not None else (0.0, 0.0)
        for name, value in obs.items():
            cols[name][i] = value
        cols["ax"][i], cols["ay"][i] = u

        if i < n_samples - 1:
            robot = RobotState(*DoubleIntegrator.step((robot.x, robot.y, robot.vx, robot.vy), u, cfg.trace_period))
            xe_prev, ye_prev = env.xe, env.ye
            block = env_draws[i * micro_per_step : (i + 1) * micro_per_step]
            env = EnvState(xe_prev + float(block[:, 0].sum()), ye_prev + float(block[:, 1].sum()))
            cols["w1"][i], cols["w2"][i] = env.xe - xe_prev, env.ye - ye_prev

    trace = Signal(times, cols)
    final_rho = float(scored.run({name: col[np.newaxis] for name, col in trace.components.items()})[0, 0])
    dist = np.sqrt((cols["x"] - cols["xe"]) ** 2 + (cols["y"] - cols["ye"]) ** 2)
    return RunResult(
        scenario=cfg.name,
        mode=cfg.objective_mode,
        seed=cfg.seed,
        trace=trace,
        replans=replans,
        final_robustness=final_rho,
        success=final_rho > 0,
        min_distance=float(dist.min() - cfg.min_distance_radius),
    )


def _replan(
    cfg: ScenarioConfig,
    objective: Program,
    formula_nodes: int,
    prefix: Optional[dict[str, np.ndarray]],
    robot: RobotState,
    env: EnvState,
    t_i: int,
    mission_end: int,
    hz: float,
    limits,
    workspace,
    mean_via: Optional[np.ndarray],
    warm: bool,
    seed: int,
    index: int,
):
    """One CMA-ES replan at sample ``index``: the candidates are scored by
    ``objective``, a width-1 program of ``formula_nodes`` formula nodes,
    after the executed ``prefix`` (none in rotogo mode)."""
    duration = to_seconds(mission_end - t_i)
    n_via = cfg.via_points
    start_pos = np.array([robot.x, robot.y])
    start_vel = np.array([robot.vx, robot.vy])
    lam = cfg.population_size
    counter = TouchCounter()
    problem = PlanningProblem(
        objective, start_pos, start_vel, (env.xe, env.ye), duration, hz, n_via,
        limits, workspace, prefix=prefix, counter=counter,
    )

    # The previous plan's via points seed the search mean whenever one
    # exists; a positive previous objective additionally shrinks the step
    # size (warm start), otherwise the full exploration step size applies.
    x0 = mean_via.reshape(-1) if mean_via is not None else np.tile(start_pos, n_via)
    sigma = cfg.warm_start_step_size if warm else cfg.initial_step_size
    # Under the shrinking horizon the reachable disc contracts; sampling via
    # points beyond it only buys limit penalties, so cap the step size by the
    # distance the robot could still cover.  At full horizon the cap is
    # inactive and the configured step sizes apply unchanged.
    sigma = max(min(sigma, 0.5 * limits.v_max * duration), 1e-3)
    config = CmaesConfig(
        population_size=lam,
        initial_step_size=cfg.initial_step_size,
        warm_start_step_size=cfg.warm_start_step_size,
        max_iterations=cfg.cmaes_iterations if mean_via is not None else cfg.first_attempt_iterations,
        seed=seed,
    )
    result = cmaes_minimize(
        x0, config, step_size=sigma, batch_objective=problem.cost,
        inject=x0 if mean_via is not None else None,
    )

    best_via = result.best_x.reshape(n_via, 2)
    # The plan executes the directly evaluated spline, so its logged
    # robustness scores those rows rather than the linear map's.
    _, pos, vel, acc = rollout_arrays(best_via, start_pos, start_vel, duration, hz)
    best_rho = float(problem.robustness(pos.T[:, np.newaxis], vel.T[:, np.newaxis])[0])

    plan = _ActivePlan(
        start_tick=t_i, acc=acc, via=best_via, duration=duration,
        start_pos=start_pos, start_vel=start_vel,
    )
    record = ReplanRecord(
        index=index,
        time=to_seconds(t_i),
        robot=(robot.x, robot.y, robot.vx, robot.vy),
        env=(env.xe, env.ye),
        via_points=best_via,
        plan_duration=duration,
        cost=result.best_value,
        objective_robustness=best_rho,
        formula_nodes=formula_nodes,
        samples_touched=counter.samples,
        warm_started=warm,
    )
    return plan, record

