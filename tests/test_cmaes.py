import hashlib
import math
import struct

import numpy as np
import pytest

from rotogo.cmaes import CmaesConfig, ObjectiveError, cmaes_minimize

# The history of CmaesConfig(seed=7, max_iterations=25) on the quadratic.
HISTORY_SHA256 = "e8f1ebfe7c1fbb69f92bc10443a847903b3e789706fb5a50449893397d9af086"


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


def recording(objective):
    """``objective`` plus the list of candidate batches it was called with.

    Each batch is ``mean + step_size * y``, so the batches carry what the
    optimizer's mean and step size did."""
    batches = []

    def batch_objective(X):
        batches.append(X.copy())
        return objective(X)

    return batch_objective, batches


def test_same_seed_gives_bit_identical_history():
    cfg = CmaesConfig(seed=7, max_iterations=25)
    runs = []
    for _ in range(2):
        objective, batches = recording(quadratic)
        runs.append((cmaes_minimize([0.0, 0.0], cfg, batch_objective=objective), batches))
    (a, batches_a), (b, batches_b) = runs
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_x, b.best_x)
    assert a.history == b.history
    assert len(batches_a) == len(batches_b) == cfg.max_iterations
    for xa, xb in zip(batches_a, batches_b):
        assert xa.tobytes() == xb.tobytes()


def test_history_is_one_best_value_and_step_size_per_generation():
    # SHA-256 over the little-endian (best value, step size) doubles.  The
    # pin predates the pair history, so it checks that no float moved.
    cfg = CmaesConfig(seed=7, max_iterations=25)
    result = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
    assert len(result.history) == cfg.max_iterations
    digest = hashlib.sha256(b"".join(struct.pack("<dd", v, s) for v, s in result.history)).hexdigest()
    assert digest == HISTORY_SHA256


def test_elitist_best_is_non_increasing():
    cfg = CmaesConfig(seed=3, max_iterations=40, initial_step_size=2.0)
    objective, batches = recording(quadratic)
    result = cmaes_minimize([5.0, 5.0], cfg, batch_objective=objective)
    values = np.concatenate([quadratic(X) for X in batches])
    candidates = np.concatenate(batches)
    assert result.best_value == values.min()
    first = int(np.flatnonzero(values == values.min())[0])
    assert result.best_x.tobytes() == candidates[first].tobytes()
    assert result.best_value == min(v for v, _ in result.history)


def test_mean_sequence_translation_equivariant():
    # Exact equality is impossible in floating point (addition does not
    # associate); the candidate batches, mean + step_size * y with the same
    # y, agree to near machine precision.
    shift = np.array([3.0, -2.0])
    cfg = CmaesConfig(seed=5, max_iterations=30, initial_step_size=1.0)
    base_objective, base_batches = recording(quadratic)
    shifted_objective, shifted_batches = recording(lambda X: quadratic(X - shift))
    base = cmaes_minimize([0.5, 0.25], cfg, batch_objective=base_objective)
    shifted = cmaes_minimize(np.array([0.5, 0.25]) + shift, cfg, batch_objective=shifted_objective)
    assert len(base_batches) == len(shifted_batches) == cfg.max_iterations
    for xa, xb in zip(base_batches, shifted_batches):
        assert np.max(np.abs(xb - shift - xa)) < 1e-12
    for (_, sa), (_, sb) in zip(base.history, shifted.history):
        assert sb == pytest.approx(sa, rel=1e-12)


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
