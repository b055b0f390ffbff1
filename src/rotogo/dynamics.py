"""Double-integrator robot dynamics."""
from __future__ import annotations


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
