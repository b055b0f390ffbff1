import math

import numpy as np
import pytest

from rotogo.cmaes import CmaesConfig, ObjectiveError, cmaes_minimize


def quadratic(X):
    """A batch objective: one value per row of X."""
    return (X[:, 0] - 2.0) ** 2 + (X[:, 1] + 1.0) ** 2


def test_analytic_quadratic_minimum_recovered_all_seeds():
    for seed in range(10):
        cfg = CmaesConfig(seed=seed, max_iterations=60, initial_step_size=1.0)
        result = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
        assert abs(result.best_x[0] - 2.0) < 1e-3
        assert abs(result.best_x[1] + 1.0) < 1e-3


def test_sphere_ten_dimensional():
    ok = 0
    for seed in range(10):
        cfg = CmaesConfig(seed=seed, max_iterations=200, initial_step_size=1.0, population_size=25)
        x0 = np.full(10, 5.0 / math.sqrt(10.0))
        result = cmaes_minimize(x0, cfg, batch_objective=lambda X: (X * X).sum(axis=1))
        ok += result.best_value < 1e-6
    assert ok == 10


def test_same_seed_gives_bit_identical_history():
    cfg = CmaesConfig(seed=7, max_iterations=25)
    a = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
    b = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_x, b.best_x)
    for ra, rb in zip(a.history, b.history):
        assert np.array_equal(ra.mean, rb.mean)
        assert np.array_equal(ra.best_x, rb.best_x)
        assert ra.step_size == rb.step_size
        assert ra.best_value == rb.best_value


def test_elitist_best_is_non_increasing():
    cfg = CmaesConfig(seed=3, max_iterations=40, initial_step_size=2.0)
    result = cmaes_minimize([5.0, 5.0], cfg, batch_objective=quadratic)
    values = [rec.best_so_far for rec in result.history]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert result.best_value == values[-1]


def test_mean_sequence_translation_equivariant():
    # Exact equality is impossible in floating point (addition does not
    # associate); the sequences agree to near machine precision.
    shift = np.array([3.0, -2.0])
    cfg = CmaesConfig(seed=5, max_iterations=30, initial_step_size=1.0)
    base = cmaes_minimize([0.5, 0.25], cfg, batch_objective=quadratic)
    shifted = cmaes_minimize(np.array([0.5, 0.25]) + shift, cfg, batch_objective=lambda X: quadratic(X - shift))
    for ra, rb in zip(base.history, shifted.history):
        assert np.max(np.abs(rb.mean - shift - ra.mean)) < 1e-12
        assert rb.step_size == pytest.approx(ra.step_size, rel=1e-12)


def test_non_finite_objective_is_an_error_not_a_penalty():
    def bad(X):
        return np.where(X[:, 0] > 0, math.inf, (X * X).sum(axis=1))

    with pytest.raises(ObjectiveError):
        cmaes_minimize([0.0, 0.0], CmaesConfig(seed=1, max_iterations=10), batch_objective=bad)


def test_injected_incumbent_floors_the_result():
    # Even with a hopeless step size and budget, the injected solution is
    # evaluated, so the result can never be worse than it.
    incumbent = np.array([2.0, -1.0])
    cfg = CmaesConfig(seed=2, max_iterations=1, initial_step_size=50.0)
    result = cmaes_minimize([40.0, 40.0], cfg, batch_objective=quadratic, inject=incumbent)
    assert result.best_value <= quadratic(incumbent[np.newaxis])[0] + 1e-12


def test_population_size_floor():
    with pytest.raises(ValueError):
        CmaesConfig(population_size=3)


@pytest.mark.parametrize("iterations", [0, -3])
def test_max_iterations_floor(iterations):
    # A run of no generation would return the unevaluated x0 with best_value inf.
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        CmaesConfig(max_iterations=iterations)
