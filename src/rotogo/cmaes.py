"""Covariance matrix adaptation evolution strategy, (mu/mu_w, lambda) flavor.

Weighted recombination of the best half of each population, cumulative
step-size adaptation, and a rank-one plus rank-mu covariance update.  The
implementation is plain numpy and fully deterministic for a given seed:
candidate evaluation results are consumed in candidate-index order and ties
in the fitness ranking are broken stably.

The covariance is decomposed every generation.  :func:`symmetric_eigh` calls
the LAPACK gufunc that ``np.linalg.eigh`` dispatches to for a float64 matrix
(``numpy.linalg._umath_linalg.eigh_lo``) directly, under the same error
state, so it returns the same bits and raises ``LinAlgError`` when the
decomposition does not converge, without the wrapper's argument handling.
The gufunc is private numpy API: when it is missing, ``np.linalg.eigh`` is
used.  Nothing is decomposed at import, so that importing the module does
not make the linear-algebra library allocate its buffers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
        if not (self.initial_step_size > 0 and math.isfinite(self.initial_step_size)):
            raise ValueError("initial_step_size must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class CmaesResult:
    best_x: np.ndarray
    best_value: float
    # One (best value, step size) pair per generation: the generation's
    # lowest objective value and the step size after its update.
    history: list[tuple[float, float]]
    evaluations: int


class ObjectiveError(RuntimeError):
    """An objective returned a non-finite value.

    Penalties must be encoded as large finite numbers; infinities and NaNs
    would poison the recombination arithmetic.
    """


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _lapack_eigh(linalg_module) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``np.linalg.eigh`` for one float64 matrix, through ``linalg_module``'s
    ``eigh_lo`` gufunc when it has one."""
    gufunc = getattr(linalg_module, "eigh_lo", None)
    if gufunc is None:
        return np.linalg.eigh

    # The error state np.linalg.eigh sets: an invalid value flags a
    # decomposition that did not converge.
    @np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
    def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return gufunc(a, signature="d->dd")

    return eigh


#: Eigenvalues and eigenvectors of a symmetric float64 matrix, bit for bit
#: what ``np.linalg.eigh`` returns (see the module docstring).
symmetric_eigh = _lapack_eigh(getattr(np.linalg, "_umath_linalg", None))


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
    and the returned best can never fall below it.  It must have the shape
    of ``x0``; both must be finite.
    """
    mean = np.array(x0, dtype=np.float64)
    if mean.ndim != 1 or mean.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    if not np.isfinite(mean).all():
        raise ValueError("x0 must be finite")
    if inject is not None:
        inject = np.asarray(inject, dtype=np.float64)
        if inject.shape != mean.shape:
            raise ValueError(f"inject has shape {inject.shape}, expected {mean.shape} like x0")
        if not np.isfinite(inject).all():
            raise ValueError("inject must be finite")
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

    # The update's constant factors, each computed as the update spells it.
    ps_decay = 1 - cs
    ps_gain = math.sqrt(cs * (2 - cs) * mueff)
    pc_decay = 1 - cc
    pc_gain = math.sqrt(cc * (2 - cc) * mueff)
    h_threshold = 1.4 + 2 / (n + 1)
    sigma_rate = cs / damps
    # The factor of the old covariance, 1 - c1a - cmu, for h_sigma False
    # and True.
    cov_decay = [1 - c1 * (1 - (not h_sigma) * cc * (2 - cc)) - cmu for h_sigma in (False, True)]

    cov = np.eye(n)
    p_sigma = np.zeros(n)
    p_cov = np.zeros(n)
    eigvecs = np.eye(n)
    sqrt_eigvals = np.ones(n)

    best_x = mean.copy()
    best_value = math.inf
    history: list[tuple[float, float]] = []

    # One draw for the whole run: the same stream, in the same order, as one
    # (lam, n) draw per generation.
    normals = rng.standard_normal((config.max_iterations, lam, n))
    for iteration, z in enumerate(normals):
        y = (z * sqrt_eigvals) @ eigvecs.T
        if iteration == 0 and inject is not None:
            y[0] = (inject - mean) / sigma
        candidates = mean + sigma * y

        values = np.asarray(batch_objective(candidates), dtype=np.float64)
        if values.shape != (lam,):
            raise ValueError(f"objective returned shape {values.shape}, expected ({lam},)")
        order = values.argsort(kind="stable")
        # The sort puts -inf first and +inf and NaN last.
        best = order[0]
        if not (math.isfinite(values[best]) and math.isfinite(values[order[-1]])):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ObjectiveError(f"objective returned {values[bad]} for candidate {bad}")

        gen_best = float(values[best])
        if gen_best < best_value:
            best_value = gen_best
            best_x = candidates[best].copy()

        y_sel = y.take(order[:mu], axis=0)
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        # Cumulative step-size adaptation in the whitened frame.
        inv_sqrt_y = ((y_w @ eigvecs) / sqrt_eigvals) @ eigvecs.T
        p_sigma = ps_decay * p_sigma + ps_gain * inv_sqrt_y
        # What np.linalg.norm computes for a vector, taken once.
        ps_norm = math.sqrt(p_sigma.dot(p_sigma))
        expected_decay = math.sqrt(1 - ps_decay ** (2 * (iteration + 1)))
        h_sigma = ps_norm / expected_decay / chi_n < h_threshold
        p_cov = pc_decay * p_cov + h_sigma * pc_gain * y_w

        # Rank-one and rank-mu covariance updates.
        cov = (
            cov_decay[h_sigma] * cov
            + c1 * (p_cov[:, np.newaxis] * p_cov)
            + cmu * (y_sel.T * weights) @ y_sel
        )
        sigma *= math.exp(sigma_rate * (ps_norm / chi_n - 1))

        cov = (cov + cov.T) / 2
        # Hansen's lazy-update criterion, lambda / ((c1 + cmu) n 10), is under
        # one generation of evaluations at these sizes, so the decomposition
        # is refreshed every generation.
        eigvals, eigvecs = symmetric_eigh(cov)
        sqrt_eigvals = np.sqrt(np.maximum(eigvals, 1e-20))

        history.append((gen_best, sigma))

    return CmaesResult(
        best_x=best_x, best_value=best_value, history=history, evaluations=lam * config.max_iterations,
    )
