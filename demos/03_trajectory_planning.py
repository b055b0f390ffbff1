"""One planning problem: via-point trajectories scored by robustness.

Solves the reach-avoid scenario's initial planning problem with CMA-ES over
four via points, then inspects the best plan: where it goes, its margin, and
how the loss is assembled from robustness and penalties.
"""
import numpy as np
from pathlib import Path

from rotogo import PlanningProblem, RobotState, scenario_phi_avoid, to_ticks
from rotogo.cmaes import CmaesConfig, cmaes_minimize
from rotogo.fasteval import Program
from rotogo.planning import rollout_arrays

cfg = scenario_phi_avoid()
phi = cfg.validate()
robot = RobotState(*cfg.robot_start)
print(f"scenario {cfg.name}: start ({robot.x}, {robot.y}), human at {cfg.env_start}")

# ---------------------------------------------------------------------------
# The decision vector is the flat list of via points.  A candidate's loss is
# the negative robustness of its rolled-out signal plus workspace and limit
# penalties.  PlanningProblem builds the rollout as a linear map once and
# evaluates the whole population in one vectorized pass; the formula's
# robustness at the first sample is a program compiled once for the grid.

hz = 1.0 / cfg.trace_period
duration = cfg.mission_horizon
n_samples = to_ticks(duration) // to_ticks(cfg.trace_period) + 1
eval_times = np.arange(n_samples, dtype=np.int64) * to_ticks(cfg.trace_period)
start_pos, start_vel = np.array([robot.x, robot.y]), np.zeros(2)
limits, workspace = cfg.limits(), cfg.workspace_box()
xe, ye = cfg.env_start
problem = PlanningProblem(
    Program(eval_times, phi, 1), start_pos, start_vel, (xe, ye), duration, hz, cfg.via_points, limits, workspace,
    # the scored signal starts at the initial state
    prefix={"x": [robot.x], "y": [robot.y], "vx": [0.0], "vy": [0.0], "xe": [xe], "ye": [ye]},
)


result = cmaes_minimize(
    np.tile(start_pos, cfg.via_points),
    CmaesConfig(seed=0, max_iterations=cfg.first_attempt_iterations),
    batch_objective=problem.cost,
)
best = result.best_x.reshape(cfg.via_points, 2)
print(f"best loss {result.best_value:.4f} after {result.evaluations} evaluations")
print("robustness of best plan:", -result.best_value)
print("via points:")
for j, (x, y) in enumerate(best, 1):
    print(f"  {j}: ({x:6.3f}, {y:6.3f})")

# The margin tops out near 0.1: the start position sits 0.1 from both static
# obstacles, and nothing the plan does later can widen that.

# ---------------------------------------------------------------------------
# Roll the winner out and check its kinematics.

times, pos, vel, acc = rollout_arrays(best, start_pos, start_vel, duration, hz)
speed = np.sqrt((vel**2).sum(axis=1))
print(f"trajectory: {len(times)} rows, peak speed {speed.max():.3f} m/s (limit {limits.v_max})")
print(f"final position ({pos[-1, 0]:.3f}, {pos[-1, 1]:.3f}), final speed {speed[-1]:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 5))
    ax.add_patch(plt.Rectangle((0.5, 0.0), 0.5, 2.4, color="0.6"))
    ax.add_patch(plt.Rectangle((0.5, 2.6), 0.5, 2.4, color="0.6"))
    ax.add_patch(plt.Circle(cfg.env_start, 0.5, color="tab:red", alpha=0.4))
    ax.add_patch(plt.Rectangle((4.0, 2.0), 1.0, 1.0, color="tab:green", alpha=0.3))
    ax.plot(pos[:, 0], pos[:, 1], "-", lw=2)
    ax.plot(*best.T, "o", ms=5)
    ax.set_xlim(0, 5), ax.set_ylim(0, 5), ax.set_aspect("equal")
    out = Path(__file__).parent / "plan_phi_avoid.png"
    fig.savefig(out, dpi=120)
    print(f"wrote {out}")
except ImportError:
    print("matplotlib not available; skipping the plot")
