"""One planning problem: via-point trajectories scored by robustness.

Solves the reach-avoid scenario's initial planning problem with CMA-ES over
four via points, then inspects the best plan: where it goes, its margin, and
how the loss is assembled from robustness and penalties.
"""
import numpy as np
from pathlib import Path

from rotogo import scenario_phi_avoid
from rotogo.fasteval import Program
from rotogo.mpc import mission_times, replan

cfg = scenario_phi_avoid()
phi = cfg.validate()
print(f"scenario {cfg.name}: start {cfg.robot_start[:2]}, human at {cfg.env_start}")

# ---------------------------------------------------------------------------
# The decision vector is the flat list of via points.  A candidate's loss is
# the negative robustness of its rolled-out signal plus workspace and limit
# penalties.  The replan builds the rollout as a linear map once and
# evaluates the whole population in one vectorized pass; the formula's
# robustness at the first sample is a program compiled once for the grid.
# This is the MPC loop's first replan, and what `rotogo plan` runs: the
# executed history is the initial state alone, one column of
# (x, y, vx, vy, xe, ye), and the scored signal starts there.

program = Program(mission_times(cfg), phi, 1)
history = np.array([*cfg.robot_start, *cfg.env_start])[:, np.newaxis]
plan = replan(cfg, program, history, seed=cfg.seed)
record = plan.record
evaluations = cfg.population_size * cfg.first_attempt_iterations
print(f"best loss {record.cost:.4f} after {evaluations} evaluations")
print("robustness of best plan:", record.objective_robustness)
print("via points:")
for j, (x, y) in enumerate(record.via_points, 1):
    print(f"  {j}: ({x:6.3f}, {y:6.3f})")

# The margin tops out near 0.1: the start position sits 0.1 from both static
# obstacles, and nothing the plan does later can widen that.

# ---------------------------------------------------------------------------
# The winner's rollout, which the replan keeps, and its kinematics.

pos = plan.pos
speed = np.sqrt((plan.vel**2).sum(axis=1))
print(f"trajectory: {len(plan.times)} rows, peak speed {speed.max():.3f} m/s (limit {cfg.v_max})")
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
    ax.plot(*record.via_points.T, "o", ms=5)
    ax.set_xlim(0, 5), ax.set_ylim(0, 5), ax.set_aspect("equal")
    out = Path(__file__).parent / "plan_phi_avoid.png"
    fig.savefig(out, dpi=120)
    print(f"wrote {out}")
except ImportError:
    print("matplotlib not available; skipping the plot")
