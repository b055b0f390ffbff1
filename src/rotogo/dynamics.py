"""Double-integrator robot and randomly drifting environment."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0


@dataclass(frozen=True)
class EnvState:
    xe: float
    ye: float


class DoubleIntegrator:
    """Exact zero-order-hold integration of planar double-integrator dynamics."""

    @staticmethod
    def step(robot: tuple[float, float, float, float], u: tuple[float, float], dt: float):
        x, y, vx, vy = robot
        ax, ay = u
        return (
            x + vx * dt + 0.5 * ax * dt * dt,
            y + vy * dt + 0.5 * ay * dt * dt,
            vx + ax * dt,
            vy + ay * dt,
        )
