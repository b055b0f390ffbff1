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

The loss for a candidate trajectory is the negative robustness of the
signal assembled from it, plus hard penalties for leaving the workspace and
soft penalties for exceeding velocity or acceleration limits.
:class:`PlanningProblem` is that loss for one replan, evaluated for a whole
population at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fasteval import Program, TouchCounter

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
    """Quintic coefficients for every segment; via is (..., N, 2).

    Knots sit at t_j = j * duration / N with via point j at knot j; knot N is
    the trajectory end, reached at rest.  Interior knot velocities are
    central finite differences of the neighboring knot positions, so the
    robot flows through via points instead of stopping at each one.  Returns
    an array of shape (..., N, 2, 6).
    """
    via = np.asarray(via, dtype=np.float64)
    n_via = via.shape[-2]
    batch_shape = via.shape[:-2]
    seg_t = duration / n_via

    knots_p = np.concatenate(
        [np.broadcast_to(start_pos, batch_shape + (1, 2)), via], axis=-2
    )  # (..., N+1, 2)
    knots_v = np.zeros(batch_shape + (n_via + 1, 2))
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


def rollout_arrays(
    via: np.ndarray, start_pos: np.ndarray, start_vel: np.ndarray, duration: float, resolution_hz: float
):
    """Sample the via-point spline on the resolution grid.

    ``via`` is (..., N, 2); returns (times (L,), pos/vel/acc (..., L, 2)).
    """
    coeffs = _segment_coefficients(via, start_pos, start_vel, duration)  # (..., S, 2, 6)
    count = int(math.floor(duration * resolution_hz + 1e-9)) + 1
    times = np.arange(count) / resolution_hz
    if duration - times[-1] > 1e-9:
        times = np.append(times, duration)  # always sample the terminal state
    pos, vel, acc = _sample_spline(coeffs, duration, times)
    return times, pos, vel, acc


def spline_positions(
    via: np.ndarray, start_pos: np.ndarray, start_vel: np.ndarray, duration: float, times: np.ndarray
) -> np.ndarray:
    """Positions of the via-point spline at arbitrary plan-local times."""
    coeffs = _segment_coefficients(via, start_pos, start_vel, duration)
    pos, _, _ = _sample_spline(coeffs, duration, np.asarray(times, dtype=np.float64))
    return pos


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


#: Signal components of a scored candidate, in buffer order.
COMPONENTS = ("x", "y", "vx", "vy", "xe", "ye")


class PlanningProblem:
    """The planning loss of one replan, evaluated for whole populations.

    A candidate is a flat vector of ``n_via`` via points (x1, y1, x2, ...)
    for a spline of ``duration`` seconds from ``start_pos``/``start_vel``,
    sampled at ``resolution_hz``.  Its loss is the negative robustness that
    ``program``, a width-1 :class:`~rotogo.fasteval.Program`, gives the
    scored signal at its first sample, plus the workspace and limit
    penalties of the whole rollout.  The scored signal, sampled at the
    program's times, is ``prefix`` (executed samples, one array per
    component; none when omitted) followed by the rollout from its second
    sample on, with the environment held at ``env`` = (xe, ye).

    Per coordinate the spline is linear in (start position, start velocity,
    via points), so construction samples it once per unit vector and
    :meth:`rollout` is a single matrix product.  The signal buffers are
    allocated once, with the prefix and the environment columns already in
    place; each :meth:`cost` call writes only the candidates' suffixes.  The
    program is compiled by the caller, so that one compiled for a formula
    and grid serves every replan that scores them, and it is run by every
    :meth:`cost` and :meth:`robustness` call.
    """

    def __init__(
        self,
        program: Program,
        start_pos: np.ndarray,
        start_vel: np.ndarray,
        env: tuple[float, float],
        duration: float,
        resolution_hz: float,
        n_via: int,
        limits: Limits = Limits(),
        workspace: Workspace = Workspace(),
        prefix: Optional[dict[str, np.ndarray]] = None,
        counter: Optional[TouchCounter] = None,
    ):
        self.program = program
        self.times = program.times
        self.n_via = n_via
        self.limits = limits
        self.workspace = workspace
        self.counter = counter
        self.env = env
        # Rows (p0, v0) of each coordinate's coefficient vector.
        self._start = np.column_stack([start_pos, start_vel]).astype(np.float64)

        # Unit vector k of (p0, v0, via_1..via_N), fed to both coordinates.
        probe = np.eye(n_via + 2)
        _, pos, vel, acc = rollout_arrays(
            np.repeat(probe[:, 2:, np.newaxis], 2, axis=2),
            np.repeat(probe[:, 0:1, np.newaxis], 2, axis=2),
            np.repeat(probe[:, 1:2], 2, axis=1),
            duration,
            resolution_hz,
        )
        self.length = pos.shape[1]
        self._basis = np.stack([pos[..., 0], vel[..., 0], acc[..., 0]])  # (3, N+2, L)

        self._split = self.times.size - (self.length - 1)
        if self._split < 0:
            raise ValueError("times are shorter than the rollout suffix")
        if prefix is None:
            prefix = {name: () for name in COMPONENTS}
        self._prefix = {name: np.asarray(prefix[name], dtype=np.float64) for name in COMPONENTS}
        if any(col.shape != (self._split,) for col in self._prefix.values()):
            raise ValueError(f"prefix columns must hold the {self._split} samples before the rollout suffix")
        self._buffers: dict[str, np.ndarray] = {}

    def rollout(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, velocities and accelerations of a (B, 2N) population.

        Each is planar, shape (2, B, L): x rows in [0], y rows in [1].
        """
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[0]
        coef = np.empty((2, batch, self.n_via + 2))
        coef[:, :, :2] = self._start[:, np.newaxis, :]
        coef[:, :, 2:] = X.reshape(batch, self.n_via, 2).transpose(2, 0, 1)
        # One (2B, N+2) @ (N+2, L) product per quantity, so every (B, L)
        # block of the result is contiguous.  The x and y rows are stacked,
        # so even one candidate is a two-row product and takes the same gemm
        # path as a whole population (numpy hands one-row products to gemv,
        # whose rounding can differ).
        out = (coef.reshape(2 * batch, -1) @ self._basis).reshape(3, 2, batch, self.length)
        return out[0], out[1], out[2]

    def signal(self, batch: int) -> dict[str, np.ndarray]:
        """The (batch, n) component buffers, prefix and environment filled in."""
        if not self._buffers or self._buffers["x"].shape[0] < batch:
            split = self._split
            for name in COMPONENTS:
                buf = self._buffers[name] = np.empty((batch, self.times.size))
                buf[:, :split] = self._prefix[name]
            self._buffers["xe"][:, split:] = self.env[0]
            self._buffers["ye"][:, split:] = self.env[1]
        return {name: buf[:batch] for name, buf in self._buffers.items()}

    def robustness(self, pos: np.ndarray, vel: np.ndarray, counter: Optional[TouchCounter] = None) -> np.ndarray:
        """Robustness at the first sample of the scored signals whose
        rollout rows are ``pos`` and ``vel`` (planar, (2, B, L)); shape (B,).

        ``counter``, when given, records the samples the evaluation read.
        """
        comps = self.signal(pos.shape[1])
        split = self._split
        for name, rows in (("x", pos[0]), ("y", pos[1]), ("vx", vel[0]), ("vy", vel[1])):
            comps[name][:, split:] = rows[:, 1:]
        return self.program.run(comps, counter)[:, 0]

    def cost(self, X: np.ndarray) -> np.ndarray:
        """Loss of every row of a (B, 2N) population; shape (B,)."""
        pos, vel, acc = self.rollout(X)
        rho = self.robustness(pos, vel, self.counter)
        penalty = workspace_penalty(pos, self.workspace) + limit_penalty(vel, acc, self.limits)
        return -clamp_robustness(rho) + penalty
