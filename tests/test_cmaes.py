import hashlib
import math
import struct
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from rotogo import cmaes
from rotogo.cmaes import CmaesConfig, CmaesResult, ObjectiveError, cmaes_minimize

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


# ---------------------------------------------------------------------------
# The oracle: cmaes_minimize does the same floating-point operations as the
# plain loop, with fewer numpy calls.


def _reference_minimize(
    x0: Sequence[float],
    config: CmaesConfig,
    *,
    batch_objective: Callable[[np.ndarray], np.ndarray],
    inject: Optional[np.ndarray] = None,
) -> CmaesResult:
    """The generation loop as first written, one numpy call per formula
    term: the oracle that ``cmaes_minimize`` must match bit for bit."""
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
    history: list[tuple[float, float]] = []

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

        history.append((float(values[order[0]]), sigma))

    return CmaesResult(best_x=best_x, best_value=best_value, history=history, evaluations=evaluations)


def rosenbrock(X):
    return ((1 - X[:, :-1]) ** 2).sum(axis=1) + 100 * ((X[:, 1:] - X[:, :-1] ** 2) ** 2).sum(axis=1)


@pytest.mark.parametrize("n", [2, 8, 10])
@pytest.mark.parametrize("lam", [4, 25])
@pytest.mark.parametrize("with_inject", [False, True])
def test_minimize_matches_reference_bit_for_bit(n, lam, with_inject):
    for seed in range(3):
        rng = np.random.default_rng([seed, n, lam])
        x0 = rng.uniform(-2.0, 2.0, n)
        inject = rng.uniform(-2.0, 2.0, n) if with_inject else None
        cfg = CmaesConfig(population_size=lam, initial_step_size=0.7, max_iterations=40, seed=seed)
        runs = []
        for minimize in (_reference_minimize, cmaes_minimize):
            objective, batches = recording(rosenbrock)
            runs.append((minimize(x0, cfg, batch_objective=objective, inject=inject), batches))
        (want, want_batches), (got, got_batches) = runs
        assert got.history == want.history
        assert got.best_x.tobytes() == want.best_x.tobytes()
        assert got.best_value == want.best_value
        assert got.evaluations == want.evaluations
        assert len(got_batches) == len(want_batches) == cfg.max_iterations
        for a, b in zip(got_batches, want_batches):
            assert a.tobytes() == b.tobytes()


def test_symmetric_eigh_equals_numpy_eigh():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((8, 8))
        cov = a @ a.T + 1e-3 * np.eye(8)
        cov = (cov + cov.T) / 2
        got, want = cmaes.symmetric_eigh(cov), np.linalg.eigh(cov)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_symmetric_eigh_raises_on_nan_covariance():
    # LAPACK does not converge on an all-NaN matrix; np.linalg.eigh raises.
    cov = np.full((8, 8), np.nan)
    for eigh in (np.linalg.eigh, cmaes.symmetric_eigh):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigh(cov)


def test_symmetric_eigh_falls_back_without_the_gufunc(monkeypatch):
    gufuncs = np.linalg._umath_linalg
    assert cmaes._lapack_eigh(gufuncs) is not np.linalg.eigh
    monkeypatch.delattr(gufuncs, "eigh_lo")
    assert cmaes._lapack_eigh(gufuncs) is np.linalg.eigh
    assert cmaes._lapack_eigh(None) is np.linalg.eigh


# ---------------------------------------------------------------------------
# Input checks


@pytest.mark.parametrize(
    "x0, inject, message",
    [
        ([0.0, np.nan, 1.0], None, "x0 must be finite"),
        ([0.0, 1.0, np.inf], None, "x0 must be finite"),
        ([0.0, 0.0, 0.0], 7.0, r"inject has shape \(\), expected \(3,\)"),
        ([0.0, 0.0, 0.0], np.array([5.0]), r"inject has shape \(1,\), expected \(3,\)"),
        ([0.0, 0.0, 0.0], np.zeros((1, 3)), r"inject has shape \(1, 3\), expected \(3,\)"),
        ([0.0, 0.0, 0.0], np.array([1.0, np.nan, 0.0]), "inject must be finite"),
        ([0.0, 0.0, 0.0], np.array([1.0, 0.0, -np.inf]), "inject must be finite"),
    ],
)
def test_invalid_start_or_incumbent_is_rejected(x0, inject, message):
    calls = []
    with pytest.raises(ValueError, match=message):
        cmaes_minimize(x0, CmaesConfig(max_iterations=2), batch_objective=calls.append, inject=inject)
    assert calls == []


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
def test_step_size_must_be_positive_and_finite(step):
    with pytest.raises(ValueError, match="initial_step_size must be positive and finite"):
        CmaesConfig(initial_step_size=step)
