"""Via-point trajectory parameterization and the planning loss.

A plan is a flat list of 2-D via points over a fixed duration.  The rollout
lays minimum-jerk quintic segments through the via points: time is split
evenly, the robot starts from its current position and velocity, passes
through via points 1..N-1 with a smooth finite-difference velocity, and
comes to rest (zero velocity and acceleration) exactly at the last via
point when the duration ends.  Each segment is the unique quintic for its
endpoint position/velocity/acceleration constraints, which is the
minimum-jerk point-to-point solution; knots share their velocity and a zero
acceleration, so the spline is twice differentiable.

Per coordinate the spline is a linear map of (start position, start
velocity, via points).  :func:`spline_basis` builds that map in closed form
at any sample times, and the planner reads every spline it runs from it:
candidates, the executed plan and the warm start.  :func:`rollout_arrays`
and :func:`spline_positions` evaluate each segment's quintic directly; they
are the reference the map is tested against.

The loss for a candidate trajectory is the negative robustness of the
signal assembled from it, plus hard penalties for leaving the workspace and
soft penalties for exceeding velocity or acceleration limits.
:class:`PlanningProblem` is that loss for one replan, evaluated for a whole
population at once; it reads the trace grid in ticks, the via-point count,
the limits and the workspace from the scenario, and the formula it scores
and the tick it scores from off a monitor.  :func:`limit_penalty` and
:func:`workspace_penalty` are the penalties written out plainly, the
reference its in-place penalty code is tested against.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .fasteval import Program
from .formula import STATE_COMPONENTS, TICKS_PER_SECOND, to_seconds, to_ticks
from .progression import MonitorState
from .scenarios import ScenarioConfig

#: Cost assigned per trajectory sample outside the workspace.
WORKSPACE_PENALTY = 1e8

#: Cost per unit of velocity/acceleration limit violation per sample.
LIMIT_PENALTY = 1e6

#: Infinite robustness is mapped to +/- this value before cost arithmetic.
ROBUSTNESS_CLAMP = 1e9


def _quintic_coefficients(p0, v0, a0, p1, v1, a1, T):
    """Coefficients of the minimum-jerk quintic meeting both endpoint states.

    All arguments broadcast; returns six arrays c0..c5 with
    p(t) = c0 + c1 t + ... + c5 t^5 over t in [0, T].
    """
    T2, T3, T4, T5 = T * T, T**3, T**4, T**5
    dp = p1 - p0 - v0 * T - 0.5 * a0 * T2
    dv = v1 - v0 - a0 * T
    da = a1 - a0
    c0 = p0
    c1 = v0
    c2 = 0.5 * a0
    c3 = (10 * dp - 4 * dv * T + 0.5 * da * T2) / T3
    c4 = (-15 * dp + 7 * dv * T - da * T2) / T4
    c5 = (6 * dp - 3 * dv * T + 0.5 * da * T2) / T5
    return c0, c1, c2, c3, c4, c5


def _segment_coefficients(via: np.ndarray, start_pos: np.ndarray, start_vel: np.ndarray, duration: float):
    """Quintic coefficients for every segment; via is (..., N, 2), or
    (..., N, 1) for one coordinate.

    Knots sit at t_j = j * duration / N with via point j at knot j; knot N is
    the trajectory end, reached at rest.  Interior knot velocities are
    central finite differences of the neighboring knot positions, so the
    robot flows through via points instead of stopping at each one.  Returns
    an array of shape (..., N, 2, 6) (or (..., N, 1, 6)).
    """
    via = np.asarray(via, dtype=np.float64)
    n_via = via.shape[-2]
    batch_shape = via.shape[:-2]
    seg_t = duration / n_via

    width = via.shape[-1]
    knots_p = np.concatenate(
        [np.broadcast_to(start_pos, batch_shape + (1, width)), via], axis=-2
    )  # (..., N+1, width)
    knots_v = np.zeros(batch_shape + (n_via + 1, width))
    knots_v[..., 0, :] = start_vel
    if n_via > 1:
        knots_v[..., 1:-1, :] = (knots_p[..., 2:, :] - knots_p[..., :-2, :]) / (2.0 * seg_t)

    coeffs = np.broadcast_arrays(
        *_quintic_coefficients(
            knots_p[..., :-1, :],
            knots_v[..., :-1, :],
            0.0,
            knots_p[..., 1:, :],
            knots_v[..., 1:, :],
            0.0,
            seg_t,
        )
    )
    return np.stack(coeffs, axis=-1)  # (..., N, 2, 6)


def _sample_spline(coeffs: np.ndarray, duration: float, times: np.ndarray):
    """Evaluate a piecewise quintic at the given plan-local times."""
    n_segments = coeffs.shape[-3]
    seg_t = duration / n_segments
    seg_idx = np.minimum((times / seg_t).astype(np.int64), n_segments - 1)
    tau = times - seg_idx * seg_t

    c = coeffs[..., seg_idx, :, :]  # (..., L, 2, 6)
    # Horner evaluation of position, velocity, acceleration.
    t = tau[..., :, np.newaxis]  # broadcast over the trailing dim-2 axis
    k0, k1, k2, k3, k4, k5 = (c[..., i] for i in range(6))
    pos = ((((k5 * t + k4) * t + k3) * t + k2) * t + k1) * t + k0
    vel = (((5 * k5 * t + 4 * k4) * t + 3 * k3) * t + 2 * k2) * t + k1
    acc = ((20 * k5 * t + 12 * k4) * t + 6 * k3) * t + 2 * k2
    return pos, vel, acc


def mission_times(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's trace grid: int64 ticks from 0 to the mission end."""
    trace_dt = to_ticks(cfg.trace_period)
    return np.arange(to_ticks(cfg.mission_horizon) // trace_dt + 1, dtype=np.int64) * trace_dt


def sample_times(duration: float, resolution_hz: float) -> np.ndarray:
    """Plan-local sample times of a rollout: the resolution grid over the
    duration, plus the terminal instant when the grid misses it."""
    count = int(math.floor(duration * resolution_hz + 1e-9)) + 1
    times = np.arange(count) / resolution_hz
    if duration - times[-1] > 1e-9:
        times = np.append(times, duration)  # always sample the terminal state
    return times


def rollout_arrays(
    via: np.ndarray, start_pos: np.ndarray, start_vel: np.ndarray, duration: float, resolution_hz: float
):
    """Sample the via-point spline on the resolution grid, evaluating each
    segment's quintic directly (Horner).

    ``via`` is (..., N, 2); returns (times (L,), pos/vel/acc (..., L, 2)).
    """
    coeffs = _segment_coefficients(via, start_pos, start_vel, duration)  # (..., S, 2, 6)
    times = sample_times(duration, resolution_hz)
    pos, vel, acc = _sample_spline(coeffs, duration, times)
    return times, pos, vel, acc


def spline_positions(
    via: np.ndarray, start_pos: np.ndarray, start_vel: np.ndarray, duration: float, times: np.ndarray
) -> np.ndarray:
    """Positions of the via-point spline at arbitrary plan-local times (Horner)."""
    coeffs = _segment_coefficients(via, start_pos, start_vel, duration)
    pos, _, _ = _sample_spline(coeffs, duration, np.asarray(times, dtype=np.float64))
    return pos


#: The zero-end-acceleration quintic Hermite weights as polynomials in a
#: segment's phase u in [0, 1].  Row i holds the coefficients of u**i;
#: column 4q + w holds the q-th derivative in u (q = 0, 1, 2: position,
#: velocity, acceleration) of the weight on the segment's w-th endpoint
#: quantity, in the order (P_s, h V_s, P_s+1, h V_s+1) for segment length h.
_HERMITE = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -60.0, -36.0, 60.0, -24.0],
        [0.0, 0.0, 0.0, 0.0, -30.0, -18.0, 30.0, -12.0, 180.0, 96.0, -180.0, 84.0],
        [-10.0, -6.0, 10.0, -4.0, 60.0, 32.0, -60.0, 28.0, -120.0, -60.0, 120.0, -60.0],
        [15.0, 8.0, -15.0, 7.0, -30.0, -15.0, 30.0, -15.0, 0.0, 0.0, 0.0, 0.0],
        [-6.0, -3.0, 6.0, -3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def spline_basis(n_via: int, duration: float, times: np.ndarray) -> np.ndarray:
    """The spline's linear map at plan-local ``times``, in closed form.

    Per coordinate the spline is linear in the coefficient vector (start
    position, start velocity, via points 1..N); returns the (3, N+2, L)
    position, velocity and acceleration rows of that map, so a (B, N+2)
    coefficient block times ``basis[q]`` samples quantity q of B splines.
    Each sample weighs its segment's endpoint knots by the Hermite
    polynomials at its phase, and the knots are themselves linear in the
    coefficients: knot 0 is the start state, knot j >= 1 sits on via point
    j, interior knot velocities are central differences, and the last knot
    is at rest.
    """
    seg_t = duration / n_via
    times = np.asarray(times, dtype=np.float64)
    seg = np.minimum((times / seg_t).astype(np.int64), n_via - 1)
    powers = np.empty((6, times.size))  # u**0 .. u**5
    powers[0] = 1.0
    np.divide(times - seg * seg_t, seg_t, out=powers[1])
    for i in range(2, 6):
        np.multiply(powers[i - 1], powers[1], out=powers[i])
    # Derivatives in u become time derivatives over 1/h and 1/h**2.
    scale = np.repeat([1.0, 1.0 / seg_t, 1.0 / (seg_t * seg_t)], 4)
    weights = (_HERMITE * scale).T @ powers  # (12, L)

    # knots[j] maps the coefficients to (P_j, h V_j) of knot j.
    knots = np.zeros((n_via + 1, 2, n_via + 2))
    knots[0, 0, 0] = 1.0
    knots[0, 1, 1] = seg_t
    knots[range(1, n_via + 1), 0, range(2, n_via + 2)] = 1.0
    knots[1:-1, 1] = 0.5 * (knots[2:, 0] - knots[:-2, 0])

    # Sample l weighs the four knot quantities 2 s .. 2 s + 3 of its
    # segment s; spread holds those weights in a (3, 2 (N+1), L) block.
    spread = np.zeros((3, 2 * (n_via + 1), times.size))
    rows = 2 * seg + np.arange(4)[:, np.newaxis]
    spread[:, rows, np.arange(times.size)] = weights.reshape(3, 4, -1)
    return knots.reshape(-1, n_via + 2).T @ spread


def limit_penalty(vel: np.ndarray, acc: np.ndarray, v_max: float, a_max: float) -> np.ndarray:
    """Penalty for speed/acceleration limit violations.

    ``vel`` and ``acc`` are planar, (2, ..., L) with the x rows first; the
    penalty sums over the trailing sample axis.
    """
    vx, vy = vel
    ax, ay = acc
    speed = np.sqrt(vx * vx + vy * vy)
    accel = np.sqrt(ax * ax + ay * ay)
    over_v = np.maximum(0.0, speed - v_max).sum(axis=-1)
    over_a = np.maximum(0.0, accel - a_max).sum(axis=-1)
    return LIMIT_PENALTY * (over_v + over_a)


def workspace_penalty(pos: np.ndarray, workspace: tuple[float, float, float, float]) -> np.ndarray:
    """Penalty per sample outside the ``(x_min, x_max, y_min, y_max)`` box;
    ``pos`` is planar, (2, ..., L)."""
    x_min, x_max, y_min, y_max = workspace
    x, y = pos
    outside = (x < x_min) | (x > x_max) | (y < y_min) | (y > y_max)
    return WORKSPACE_PENALTY * outside.sum(axis=-1)


def clamp_robustness(rho: np.ndarray) -> np.ndarray:
    """Map infinite robustness to +/-ROBUSTNESS_CLAMP for finite arithmetic."""
    return np.minimum(np.maximum(rho, -ROBUSTNESS_CLAMP), ROBUSTNESS_CLAMP)


class PlanningProblem:
    """The planning loss of one replan, evaluated for whole populations.

    ``history`` holds the executed samples of ``cfg``'s trace grid, one row
    per ``STATE_COMPONENTS`` entry and one column per sample from mission
    start; its last column is the current state, and its length fixes the
    replan instant, ``start_tick``.  A candidate is a flat vector of
    ``cfg.via_points`` via points (x1, y1, x2, ...) for a spline of
    ``duration`` seconds, from that state's position and velocity to the
    mission end, sampled at the plan-local ``rollout_times``: the trace
    grid's ticks from ``start_tick`` on, in seconds.  Its loss is the
    negative robustness of ``monitor.current`` at ``monitor.anchor_time``
    on the scored signal, plus the penalties of the whole rollout for
    leaving ``cfg.workspace`` and for exceeding ``cfg.v_max`` and
    ``cfg.a_max``.  The scored signal is the trace grid from the anchor to
    the mission end: the history's samples from the anchor on (none when
    the monitor is anchored at the sample after the current one), then the
    rollout from its second sample on, with the environment held at the
    current state's (xe, ye).  An anchor off that grid, or after the sample
    that follows the current one, raises ``ValueError``.

    ``program`` is the monitor's formula compiled on that grid, a width-1
    :class:`~rotogo.fasteval.Program`; ``previous``, a program an earlier
    problem compiled, is reused when it scores the same formula on the same
    grid, so one program serves every replan that scores them.  Per
    coordinate the spline is linear in (start position, start velocity, via
    points), and both coordinates share that map, so construction builds it
    once with :func:`spline_basis` on the rollout's sample grid and
    :meth:`rollout` is a single matrix product.  Per batch size the
    coefficient buffer and the (components, B, samples) signal block that
    the program runs on, with the prefix and the environment rows already
    in place, are allocated once; each :meth:`robustness` call writes only
    the candidates' suffixes, in one copy.
    """

    def __init__(
        self, cfg: ScenarioConfig, monitor: MonitorState, history: np.ndarray, previous: Optional[Program] = None
    ):
        history = np.array(history, dtype=np.float64)
        if history.ndim != 2 or history.shape[0] != len(STATE_COMPONENTS) or history.shape[1] == 0:
            raise ValueError(
                f"history must be a ({len(STATE_COMPONENTS)}, k) array with k >= 1, not shape {history.shape}"
            )
        k, grid = history.shape[1], mission_times(cfg)
        if k >= grid.size:
            raise ValueError(f"history holds {k} samples, which reach the mission end at tick {grid[-1]}")
        self.start_tick = int(grid[k - 1])
        self.duration = to_seconds(int(grid[-1]) - self.start_tick)
        self.rollout_times = (grid[k - 1 :] - self.start_tick) / TICKS_PER_SECOND
        anchor = monitor.anchor_time
        first = int(np.searchsorted(grid, anchor))
        if not (0 <= anchor <= grid[k] and grid[first] == anchor):
            raise ValueError(
                f"the monitor is anchored at tick {anchor}, not at a tick of the trace grid from 0 to {grid[k]}"
            )
        times, f = grid[first:], monitor.current
        reuse = previous is not None and np.array_equal(previous.times, times) and previous.formula == f
        self.program = previous if reuse else Program(times, f, 1, STATE_COMPONENTS)
        self._split = k - first
        self._prefix = history[:, first:]  # (components, split)

        current = history[:, -1]
        self.env = current[4:]
        # Rows (p0, v0) of each coordinate's coefficient vector.
        self._start = np.column_stack([current[0:2], current[2:4]])
        # Stacked per-plane bounds, shaped to broadcast over (2, B, L).
        x_min, x_max, y_min, y_max = cfg.workspace
        self._lower = np.array([x_min, y_min])[:, np.newaxis, np.newaxis]
        self._upper = np.array([x_max, y_max])[:, np.newaxis, np.newaxis]
        self._caps = np.array([cfg.v_max, cfg.a_max])[:, np.newaxis, np.newaxis]

        self._basis = spline_basis(cfg.via_points, self.duration, self.rollout_times)  # (3, N+2, L)
        # Per batch size B: the (2, B, N+2) coefficient buffer and the
        # (components, B, samples) signal block.  STATE_COMPONENTS is
        # (x, y, vx, vy, xe, ye), so block rows 0-1 take the position plane,
        # rows 2-3 the velocity plane and rows 4-5 the environment.
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _buffers(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient buffer and signal block for ``batch`` candidates;
        start, prefix and environment filled in on first use."""
        entry = self._cache.get(batch)
        if entry is None:
            coef = np.empty((2, batch, self._basis.shape[1]))
            coef[:, :, :2] = self._start[:, np.newaxis, :]
            block = np.empty((len(STATE_COMPONENTS), batch, self.program.times.size))
            block[:, :, : self._split] = self._prefix[:, np.newaxis]
            block[4:, :, self._split :] = self.env[:, np.newaxis, np.newaxis]
            entry = self._cache[batch] = (coef, block)
        return entry

    def rollout(self, X: np.ndarray) -> np.ndarray:
        """Position, velocity and acceleration planes of a (B, 2N)
        population, stacked as one (3, 2, B, L) array: x rows in [:, 0],
        y rows in [:, 1]."""
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[0]
        coef = self._buffers(batch)[0]
        coef[:, :, 2:] = X.reshape(batch, -1, 2).transpose(2, 0, 1)
        # One (2B, N+2) @ (N+2, L) product per quantity, so every (B, L)
        # block of the result is contiguous.  The x and y rows are stacked,
        # so even one candidate is a two-row product and takes the same gemm
        # path as a whole population (numpy hands one-row products to gemv,
        # whose rounding can differ).
        return (coef.reshape(2 * batch, -1) @ self._basis).reshape(3, 2, batch, -1)

    def robustness(self, planes: np.ndarray) -> np.ndarray:
        """Robustness at the first sample of the scored signals whose
        rollout has position and velocity planes ``planes[0]`` and
        ``planes[1]`` (each (2, B, L)); shape (B,)."""
        batch = planes.shape[2]
        block = self._buffers(batch)[1]
        # The position and velocity planes are rows 0-3, in one copy.
        block[:4, :, self._split :] = planes[:2].reshape(4, batch, -1)[:, :, 1:]
        return self.program.run(block)[:, 0]

    def penalties(self, planes: np.ndarray) -> np.ndarray:
        """Bit for bit ``workspace_penalty(pos) + limit_penalty(vel, acc)``
        of (3, 2, B, L) rollout ``planes``; shape (B,).  The norms are taken
        in place, over the velocity and acceleration planes."""
        outside = (planes[0] < self._lower) | (planes[0] > self._upper)
        workspace = WORKSPACE_PENALTY * np.add.reduce(outside[0] | outside[1], axis=-1)

        moving = planes[1:]
        np.multiply(moving, moving, out=moving)
        norms = np.add(moving[:, 0], moving[:, 1], out=moving[:, 0])
        np.sqrt(norms, out=norms)
        norms -= self._caps
        np.maximum(norms, 0.0, out=norms)
        over = np.add.reduce(norms, axis=-1)
        return workspace + LIMIT_PENALTY * (over[0] + over[1])

    def loss(self, rho: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """``-clamp_robustness(rho) + penalties(planes)``; shape (B,)."""
        loss = clamp_robustness(rho)
        np.negative(loss, out=loss)
        loss += self.penalties(planes)
        return loss

    def cost(self, X: np.ndarray) -> np.ndarray:
        """Loss of every row of a (B, 2N) population; shape (B,)."""
        planes = self.rollout(X)
        return self.loss(self.robustness(planes), planes)
