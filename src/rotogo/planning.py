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
population at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fasteval import Program
from .formula import STATE_COMPONENTS

#: Cost assigned per trajectory sample outside the workspace.
WORKSPACE_PENALTY = 1e8

#: Cost per unit of velocity/acceleration limit violation per sample.
LIMIT_PENALTY = 1e6

#: Infinite robustness is mapped to +/- this value before cost arithmetic.
ROBUSTNESS_CLAMP = 1e9


@dataclass(frozen=True)
class Limits:
    v_max: float = 0.5
    a_max: float = 1.0


@dataclass(frozen=True)
class Workspace:
    x_min: float = 0.0
    x_max: float = 5.0
    y_min: float = 0.0
    y_max: float = 5.0

    def outside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean mask of the positions (x, y) outside the bounds."""
        return (x < self.x_min) | (x > self.x_max) | (y < self.y_min) | (y > self.y_max)


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


def limit_penalty(vel: np.ndarray, acc: np.ndarray, limits: Limits) -> np.ndarray:
    """Penalty for speed/acceleration limit violations.

    ``vel`` and ``acc`` are planar, (2, ..., L) with the x rows first; the
    penalty sums over the trailing sample axis.
    """
    vx, vy = vel
    ax, ay = acc
    speed = np.sqrt(vx * vx + vy * vy)
    accel = np.sqrt(ax * ax + ay * ay)
    over_v = np.maximum(0.0, speed - limits.v_max).sum(axis=-1)
    over_a = np.maximum(0.0, accel - limits.a_max).sum(axis=-1)
    return LIMIT_PENALTY * (over_v + over_a)


def workspace_penalty(pos: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Penalty per sample outside the workspace; ``pos`` is planar, (2, ..., L)."""
    return WORKSPACE_PENALTY * workspace.outside(pos[0], pos[1]).sum(axis=-1)


def clamp_robustness(rho: np.ndarray) -> np.ndarray:
    """Map infinite robustness to +/-ROBUSTNESS_CLAMP for finite arithmetic."""
    return np.clip(rho, -ROBUSTNESS_CLAMP, ROBUSTNESS_CLAMP)


class PlanningProblem:
    """The planning loss of one replan, evaluated for whole populations.

    ``history`` holds the executed samples, one row per
    ``STATE_COMPONENTS`` entry and one column per sample; its last column
    is the current state.  A candidate is a flat vector of ``n_via`` via
    points (x1, y1, x2, ...) for a spline of ``duration`` seconds from that
    state's position and velocity, sampled at ``resolution_hz``.  Its loss
    is the negative robustness that ``program``, a width-1
    :class:`~rotogo.fasteval.Program`, gives the scored signal at its first
    sample, plus the workspace and limit penalties of the whole rollout.
    The scored signal, sampled at the program's times, is the last
    ``split`` columns of the history (``split`` is whatever the program's
    times leave before the rollout's second sample, zero when it scores
    the suffix alone) followed by the rollout from its second sample on,
    with the environment held at the current state's (xe, ye).

    Per coordinate the spline is linear in (start position, start velocity,
    via points), and both coordinates share that map, so construction
    builds it once with :func:`spline_basis` on the rollout's sample grid
    and :meth:`rollout` is a single matrix product.  Per batch size the
    coefficient buffer and the signal block, with the prefix and the
    environment rows already in place, are allocated once; each
    :meth:`robustness` call writes only the candidates' suffixes, in one
    copy.  The program is compiled by the caller, so that one compiled for
    a formula and grid serves every replan that scores them.
    """

    def __init__(
        self,
        program: Program,
        history: np.ndarray,
        duration: float,
        resolution_hz: float,
        n_via: int,
        limits: Limits = Limits(),
        workspace: Workspace = Workspace(),
    ):
        history = np.array(history, dtype=np.float64)
        if history.ndim != 2 or history.shape[0] != len(STATE_COMPONENTS) or history.shape[1] == 0:
            raise ValueError(
                f"history must be a ({len(STATE_COMPONENTS)}, k) array with k >= 1, not shape {history.shape}"
            )
        self.program = program
        self.times = program.times
        current = history[:, -1]
        self.env = current[4:]
        # Rows (p0, v0) of each coordinate's coefficient vector.
        self._start = np.column_stack([current[0:2], current[2:4]])
        # Stacked per-plane bounds, shaped to broadcast over (2, B, L).
        self._lower = np.array([workspace.x_min, workspace.y_min])[:, np.newaxis, np.newaxis]
        self._upper = np.array([workspace.x_max, workspace.y_max])[:, np.newaxis, np.newaxis]
        self._caps = np.array([limits.v_max, limits.a_max])[:, np.newaxis, np.newaxis]

        self._basis = spline_basis(n_via, duration, sample_times(duration, resolution_hz))  # (3, N+2, L)

        self._split = self.times.size - (self._basis.shape[2] - 1)
        if self._split < 0:
            raise ValueError("times are shorter than the rollout suffix")
        k = history.shape[1]
        if self._split > k:
            raise ValueError(f"history holds {k} samples; the program scores {self._split} before the rollout suffix")
        self._prefix = history[:, k - self._split :]  # (components, split)
        # Per batch size B: the (2, B, N+2) coefficient buffer, the
        # (components, B, samples) signal block and its name -> (B, samples)
        # rows.  STATE_COMPONENTS is (x, y, vx, vy, xe, ye), so rows 0-1 take
        # the position plane, rows 2-3 the velocity plane and rows 4-5 the
        # environment.
        self._cache: dict[int, tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]] = {}

    def _buffers(self, batch: int) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """The coefficient buffer, signal block and row views for ``batch``
        candidates; start, prefix and environment filled in on first use."""
        entry = self._cache.get(batch)
        if entry is None:
            coef = np.empty((2, batch, self._basis.shape[1]))
            coef[:, :, :2] = self._start[:, np.newaxis, :]
            block = np.empty((len(STATE_COMPONENTS), batch, self.times.size))
            block[:, :, : self._split] = self._prefix[:, np.newaxis]
            block[4:, :, self._split :] = self.env[:, np.newaxis, np.newaxis]
            entry = self._cache[batch] = (coef, block, dict(zip(STATE_COMPONENTS, block)))
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
        _, block, comps = self._buffers(batch)
        # The position and velocity planes are rows 0-3, in one copy.
        block[:4, :, self._split :] = planes[:2].reshape(4, batch, -1)[:, :, 1:]
        return self.program.run(comps)[:, 0]

    def cost(self, X: np.ndarray) -> np.ndarray:
        """Loss of every row of a (B, 2N) population; shape (B,).

        Bit for bit ``-clamp_robustness(rho) + (workspace_penalty(pos) +
        limit_penalty(vel, acc))``, computed on the stacked planes.
        """
        planes = self.rollout(X)
        rho = self.robustness(planes)

        outside = (planes[0] < self._lower) | (planes[0] > self._upper)
        workspace = WORKSPACE_PENALTY * np.add.reduce(outside[0] | outside[1], axis=-1)

        # Speed and acceleration norms, in place over the (vel, acc) planes
        # now that the signal holds its copy of the velocities.
        moving = planes[1:]
        np.multiply(moving, moving, out=moving)
        norms = np.add(moving[:, 0], moving[:, 1], out=moving[:, 0])
        np.sqrt(norms, out=norms)
        norms -= self._caps
        np.maximum(norms, 0.0, out=norms)
        over = np.add.reduce(norms, axis=-1)
        limit = LIMIT_PENALTY * (over[0] + over[1])

        loss = np.maximum(rho, -ROBUSTNESS_CLAMP)
        np.minimum(loss, ROBUSTNESS_CLAMP, out=loss)
        np.negative(loss, out=loss)
        loss += workspace + limit
        return loss
