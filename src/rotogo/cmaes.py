"""Covariance matrix adaptation evolution strategy, (mu/mu_w, lambda) flavor.

Weighted recombination of the best half of each population, cumulative
step-size adaptation, and a rank-one plus rank-mu covariance update.  The
implementation is plain numpy and fully deterministic for a given seed:
candidate evaluation results are consumed in candidate-index order and ties
in the fitness ranking are broken stably.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class CmaesConfig:
    population_size: int = 25
    initial_step_size: float = math.sqrt(10.0)
    max_iterations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if not self.initial_step_size > 0:
            raise ValueError("initial_step_size must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    best_value: float          # best objective value seen this iteration
    best_so_far: float         # elitist best across all evaluations so far
    best_x: np.ndarray         # this iteration's best candidate
    mean: np.ndarray
    step_size: float


@dataclass
class CmaesResult:
    best_x: np.ndarray
    best_value: float
    history: list[IterationRecord] = field(default_factory=list)
    evaluations: int = 0


class ObjectiveError(RuntimeError):
    """An objective returned a non-finite value.

    Penalties must be encoded as large finite numbers; infinities and NaNs
    would poison the recombination arithmetic.
    """


def cmaes_minimize(
    x0: Sequence[float],
    config: CmaesConfig,
    *,
    batch_objective: Callable[[np.ndarray], np.ndarray],
    inject: Optional[np.ndarray] = None,
) -> CmaesResult:
    """Minimize ``batch_objective`` starting from ``x0``.

    ``batch_objective`` maps a (lambda, dim) array of candidates to their
    (lambda,) values, so a caller can score a whole population at once.
    Runs exactly ``config.max_iterations`` generations.

    ``inject``, when given, replaces the first candidate of the first
    generation, so a known incumbent solution participates in the ranking
    and the returned best can never fall below it.
    """
    mean = np.array(x0, dtype=np.float64)
    if mean.ndim != 1 or mean.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    n = mean.size
    sigma = float(config.initial_step_size)
    lam = config.population_size
    rng = np.random.default_rng(np.random.PCG64(config.seed))

    # Selection and recombination parameters.
    mu = lam // 2
    raw = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = 1.0 / np.sum(weights**2)

    # Adaptation time constants and learning rates.
    cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    cs = (mueff + 2) / (n + mueff + 5)
    c1 = 2 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    damps = 1 + 2 * max(0.0, math.sqrt((mueff - 1) / (n + 1)) - 1) + cs
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

    cov = np.eye(n)
    p_sigma = np.zeros(n)
    p_cov = np.zeros(n)
    eigvecs = np.eye(n)
    sqrt_eigvals = np.ones(n)

    best_x = mean.copy()
    best_value = math.inf
    evaluations = 0
    history: list[IterationRecord] = []

    for iteration in range(config.max_iterations):
        z = rng.standard_normal((lam, n))
        y = (z * sqrt_eigvals) @ eigvecs.T
        if iteration == 0 and inject is not None:
            y[0] = (np.asarray(inject, dtype=np.float64) - mean) / sigma
        candidates = mean + sigma * y

        values = np.asarray(batch_objective(candidates), dtype=np.float64)
        if values.shape != (lam,):
            raise ValueError(f"objective returned shape {values.shape}, expected ({lam},)")
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ObjectiveError(f"objective returned {values[bad]} for candidate {bad}")
        evaluations += lam

        order = np.argsort(values, kind="stable")
        if values[order[0]] < best_value:
            best_value = float(values[order[0]])
            best_x = candidates[order[0]].copy()

        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        # Cumulative step-size adaptation in the whitened frame.
        inv_sqrt_y = ((y_w @ eigvecs) / sqrt_eigvals) @ eigvecs.T
        p_sigma = (1 - cs) * p_sigma + math.sqrt(cs * (2 - cs) * mueff) * inv_sqrt_y
        # What np.linalg.norm computes for a vector, taken once.
        ps_norm = math.sqrt(p_sigma.dot(p_sigma))
        expected_decay = math.sqrt(1 - (1 - cs) ** (2 * (iteration + 1)))
        h_sigma = ps_norm / expected_decay / chi_n < 1.4 + 2 / (n + 1)
        p_cov = (1 - cc) * p_cov + h_sigma * math.sqrt(cc * (2 - cc) * mueff) * y_w

        # Rank-one and rank-mu covariance updates.
        c1a = c1 * (1 - (not h_sigma) * cc * (2 - cc))
        cov = (
            (1 - c1a - cmu) * cov
            + c1 * (p_cov[:, np.newaxis] * p_cov)
            + cmu * (y_sel.T * weights) @ y_sel
        )
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1))

        cov = (cov + cov.T) / 2
        # Hansen's lazy-update criterion, lambda / ((c1 + cmu) n 10), is under
        # one generation of evaluations at these sizes, so the decomposition
        # is refreshed every generation.
        eigvals, eigvecs = np.linalg.eigh(cov)
        sqrt_eigvals = np.sqrt(np.maximum(eigvals, 1e-20))

        history.append(
            IterationRecord(
                iteration=iteration,
                best_value=float(values[order[0]]),
                best_so_far=best_value,
                best_x=candidates[order[0]].copy(),
                mean=mean.copy(),
                step_size=sigma,
            )
        )

    return CmaesResult(best_x=best_x, best_value=best_value, history=history, evaluations=evaluations)
