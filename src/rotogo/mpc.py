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

from .dynamics import DoubleIntegrator
# eval_robustness_all, eval_robustness_arrays, limit_penalty,
# rollout_arrays, spline_positions and workspace_penalty are not called
# here: PlanningProblem computes the rollouts and the penalties, spline_basis
# the warm start, and compiled programs score the candidates and the
# executed trace.  The names stay importable here because the benchmark's
# tracer (perfbench/workloads.py) wraps them on this module.
from .fasteval import Program, eval_robustness_all, eval_robustness_arrays  # noqa: F401
from .formula import STATE_COMPONENTS, node_count, to_seconds, to_ticks
from .cmaes import CmaesConfig, cmaes_minimize
from .planning import (  # noqa: F401
    PlanningProblem,
    limit_penalty,
    rollout_arrays,
    sample_times,
    spline_basis,
    spline_positions,
    workspace_penalty,
)
from .progression import monitor_step, start_monitor
from .scenarios import ScenarioConfig
from .signals import EXTRA_COMPONENTS, Signal
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
        mean_min_distance=float(np.mean([r.min_distance for r in results])),
        success_rate=float(np.mean([r.success for r in results])),
    )


# ---------------------------------------------------------------------------
# The loop


@dataclass
class Plan:
    """A replan's record and the rollout of its chosen via points on the
    trace grid, from ``start_tick`` on."""

    record: ReplanRecord
    start_tick: int
    times: np.ndarray  # (L,) seconds from start_tick
    pos: np.ndarray  # (L, 2) positions, velocities and accelerations
    vel: np.ndarray
    acc: np.ndarray

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
        record = self.record
        elapsed = to_seconds(new_start_tick - self.start_tick)
        remaining = to_seconds(mission_end - new_start_tick)
        local = elapsed + (np.arange(1, n_via + 1) / n_via) * remaining
        # One row per coordinate: (start position, start velocity, via points).
        coef = np.column_stack([record.robot[:2], record.robot[2:], record.via_points.T])
        basis = spline_basis(record.via_points.shape[0], record.plan_duration, local)
        return (coef @ basis[0]).T


def mission_times(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's trace grid: int64 ticks from 0 to the mission end."""
    trace_dt = to_ticks(cfg.trace_period)
    return np.arange(to_ticks(cfg.mission_horizon) // trace_dt + 1, dtype=np.int64) * trace_dt


def mpc_run(cfg: ScenarioConfig) -> RunResult:
    """Run one episode of the configured scenario."""
    f0 = cfg.validate()
    trace_dt = to_ticks(cfg.trace_period)
    replan_dt = to_ticks(cfg.replan_period)
    env_dt = to_ticks(cfg.env_step_period)
    mission_end = to_ticks(cfg.mission_horizon)
    times = mission_times(cfg)
    n_samples = len(times)
    micro_per_step = trace_dt // env_dt

    env_ss, opt_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    env_draws = np.random.default_rng(env_ss).normal(0.0, 1.0, size=((n_samples - 1) * micro_per_step, 2))
    env_draws *= cfg.env_noise_std
    opt_seeds = np.random.default_rng(opt_ss)

    # One row per trace component, the STATE_COMPONENTS rows first: column i
    # holds sample i once it is observed, so states[:, :i + 1] is the
    # executed history at sample i.
    block = np.zeros((len(STATE_COMPONENTS) + len(EXTRA_COMPONENTS), n_samples))
    cols = dict(zip((*STATE_COMPONENTS, *EXTRA_COMPONENTS), block))
    states = block[: len(STATE_COMPONENTS)]
    states[:, 0] = (*cfg.robot_start, *cfg.env_start)
    # Only rotogo mode scores the progressed formula, so only it progresses.
    progressing = cfg.objective_mode == "rotogo"
    monitor = start_monitor(f0, 0)
    # The robustness of f0 at mission start over the whole mission: the
    # objective of every robustness-mode replan and the episode's final
    # score, compiled once.
    scored = Program(times, f0, 1)

    active: Optional[Plan] = None
    replans: list[ReplanRecord] = []

    for i in range(n_samples):
        t_i = int(times[i])
        state = states[:, i].tolist()
        if progressing and i < n_samples - 1:
            monitor = monitor_step(monitor, t_i + trace_dt, dict(zip(STATE_COMPONENTS, state)))

        if t_i % replan_dt == 0 and t_i < mission_end:
            # rotogo mode scores the candidate suffix alone by the progressed
            # formula, anchored at t_i + trace_dt; robustness mode scores the
            # executed history, then each candidate's suffix, by f0.
            objective = Program(times[i + 1 :], monitor.current, 1) if progressing else scored
            active = replan(cfg, objective, states[:, : i + 1], active, seed=int(opt_seeds.integers(0, 2**63)))
            replans.append(active.record)

        u = active.control_at(t_i, trace_dt) if active is not None else (0.0, 0.0)
        cols["ax"][i], cols["ay"][i] = u

        if i < n_samples - 1:
            states[:4, i + 1] = DoubleIntegrator.step(state[:4], u, cfg.trace_period)
            xe, ye = state[4:]
            noise = env_draws[i * micro_per_step : (i + 1) * micro_per_step]
            xe_next, ye_next = xe + float(noise[:, 0].sum()), ye + float(noise[:, 1].sum())
            states[4:, i + 1] = xe_next, ye_next
            cols["w1"][i], cols["w2"][i] = xe_next - xe, ye_next - ye

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


def replan(
    cfg: ScenarioConfig,
    objective: Program,
    history: np.ndarray,
    previous: Optional[Plan] = None,
    *,
    seed: int,
) -> Plan:
    """One CMA-ES plan from the current state to the mission end.

    ``history`` is the executed trace so far, a ``(len(STATE_COMPONENTS),
    k)`` array whose last column is the current state, sample ``k - 1`` of
    the trace grid.  The candidates are scored by ``objective``, a width-1
    program, after as many of the history's last samples as its times
    leave room for (none when it scores the suffix alone, as in rotogo
    mode).  The record takes the size of the program's formula and the
    samples it reads, both fixed when it was compiled.  Without
    ``previous`` the search starts at the current position and runs
    ``first_attempt_iterations`` generations with the full step size; with
    it, the search starts at ``previous``'s path resampled onto the new
    window, keeps that as a candidate and runs ``cmaes_iterations``, with
    the warm-start step size when the previous plan's objective robustness
    was positive.  ``rotogo plan`` is the call at t = 0 with the initial
    state as the whole history.
    """
    t_i = (history.shape[1] - 1) * to_ticks(cfg.trace_period)
    mission_end = to_ticks(cfg.mission_horizon)
    duration = to_seconds(mission_end - t_i)
    hz = 1.0 / cfg.trace_period
    limits = cfg.limits()
    n_via = cfg.via_points
    problem = PlanningProblem(objective, history, duration, hz, n_via, limits, cfg.workspace_box())
    current = history[:, -1]

    if previous is None:
        x0, inject, warm = np.tile(current[:2], n_via), None, False
        iterations = cfg.first_attempt_iterations
    else:
        x0 = inject = previous.resampled_via(t_i, n_via, mission_end).reshape(-1)
        warm = previous.record.objective_robustness > 0
        iterations = cfg.cmaes_iterations
    sigma = cfg.warm_start_step_size if warm else cfg.initial_step_size
    # Under the shrinking horizon the reachable disc contracts; sampling via
    # points beyond it only buys limit penalties, so cap the step size by the
    # distance the robot could still cover.  At full horizon the cap is
    # inactive for the built-in scenarios and the configured step sizes
    # apply unchanged.
    sigma = max(min(sigma, 0.5 * limits.v_max * duration), 1e-3)
    config = CmaesConfig(
        population_size=cfg.population_size, initial_step_size=sigma, max_iterations=iterations, seed=seed,
    )
    result = cmaes_minimize(x0, config, batch_objective=problem.cost, inject=inject)

    # The plan executes the chosen candidate's row of the population
    # product, so its logged robustness and cost are the ones CMA-ES scored.
    planes = problem.rollout(result.best_x[np.newaxis])
    best_rho = float(problem.robustness(planes)[0])
    pos, vel, acc = planes[:, :, 0].transpose(0, 2, 1)  # each (L, 2)

    record = ReplanRecord(
        index=history.shape[1] - 1,
        time=to_seconds(t_i),
        robot=tuple(current[:4].tolist()),
        env=tuple(current[4:].tolist()),
        via_points=result.best_x.reshape(n_via, 2),
        plan_duration=duration,
        cost=result.best_value,
        objective_robustness=best_rho,
        formula_nodes=node_count(objective.formula),
        samples_touched=objective.samples_touched,
        warm_started=warm,
    )
    return Plan(record=record, start_tick=t_i, times=sample_times(duration, hz), pos=pos, vel=vel, acc=acc)
