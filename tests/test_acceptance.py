"""Acceptance suite: every release criterion, one test per criterion.

The first block checks the core identities on randomized corpora at fixed
seeds (exact extended-real equality everywhere).  The second block runs the
closed-loop benchmark at reduced scale and checks the direction and order of
magnitude of the headline comparison, not exact figures, since episodes are
stochastic.  Each test prints one PASS line; run with ``pytest -s
tests/test_acceptance.py`` to see them.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from rotogo.cmaes import CmaesConfig, cmaes_minimize
from rotogo.dynamics import RobotState
from rotogo.mpc import batch_stats, mpc_run
from rotogo.planning import rollout_arrays, spline_positions
from rotogo.scenarios import scenario_phi_avoid, scenario_phi_stayin
from rotogo.selftest import run_selftest

ACCEPT_SEED = 74250917
PAIRED_SEED = 3  # fixed seed for the deterministic static comparison


def _passline(n, text):
    print(f"\n[acceptance] criterion {n:02d} PASS: {text}")


def _run_property(name: str, cases: int):
    result = run_selftest(cases=cases, seed=ACCEPT_SEED, only={name})
    report = result.reports[0]
    assert report.cases == cases
    assert report.failures == 0, report.detail
    return report


# ---------------------------------------------------------------------------
# Property-based criteria


def test_c01_progression_equivalence_differential_suite():
    start = time.monotonic()
    report = _run_property("progression_equivalence", 1000)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    _passline(1, f"{report.cases} progression-vs-direct instances exactly equal in {elapsed:.1f}s")


def test_c02_soundness_sign_consistency():
    report = _run_property("sign_consistency", 3000)
    _passline(2, f"{report.cases} sign-consistency checks across cut placements, 100% consistent")


def test_c03_cut_before_signal_reduces_to_robustness():
    report = _run_property("cut_before_time_matches_robustness", 1000)
    _passline(3, f"{report.cases} early-cut instances equal plain robustness exactly")


def test_c04_single_step_identities():
    at_cut = _run_property("single_step_at_cut", 1000)
    after_cut = _run_property("single_step_after_cut", 1000)
    _passline(4, f"{at_cut.cases} at-cut and {after_cut.cases} after-cut single-step identities exact")


def test_c05_simplify_soundness():
    report = _run_property("simplify_preserves_semantics", 20000)
    _passline(5, f"{report.cases} simplify checks (1000 formulas x 20 signals), bit-exact")


def test_c06_suffix_only_dependence():
    report = _run_property("suffix_independence", 200)
    _passline(6, f"{report.cases} prefix mutations left progressed-formula robustness unchanged")


def test_c07_cmaes_sanity():
    def quadratic(X):
        return (X[:, 0] - 2.0) ** 2 + (X[:, 1] + 1.0) ** 2

    for seed in range(10):
        cfg = CmaesConfig(seed=seed, max_iterations=60, initial_step_size=1.0)
        result = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
        assert abs(result.best_x[0] - 2.0) < 1e-3 and abs(result.best_x[1] + 1.0) < 1e-3
    cfg = CmaesConfig(seed=123, max_iterations=30)
    a = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
    b = cmaes_minimize([0.0, 0.0], cfg, batch_objective=quadratic)
    assert a.best_value == b.best_value
    for ra, rb in zip(a.history, b.history):
        assert np.array_equal(ra.mean, rb.mean) and ra.step_size == rb.step_size
    _passline(7, "quadratic minimum recovered to 1e-3 on 10/10 seeds; replay bit-identical")


def test_c08_rollout_boundary_and_knot_continuity():
    rng = np.random.default_rng(ACCEPT_SEED)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        via = rng.uniform(0.0, 5.0, size=(n, 2))
        duration = float(rng.uniform(1.0, 20.0))
        start = RobotState(*rng.uniform(0.0, 5.0, 2), *rng.uniform(-0.5, 0.5, 2))
        _, pos, vel, acc = rollout_arrays(via, start.position(), np.array([start.vx, start.vy]), duration, 50.0)
        assert pos[0, 0] == start.x and pos[0, 1] == start.y
        assert vel[0, 0] == start.vx and vel[0, 1] == start.vy
        assert np.abs(vel[-1]).max() < 1e-9 and np.abs(acc[-1]).max() < 1e-9
        # both-sided evaluation at interior knots
        if n > 1:
            knots = duration / n * np.arange(1, n)
            h = 1e-7
            p_l = spline_positions(via, pos[0], vel[0], duration, knots - h)
            p_r = spline_positions(via, pos[0], vel[0], duration, knots + h)
            v_est_gap = np.abs(p_r - p_l) / (2 * h)  # finite, no jump to 1e-9 scale
            p_c = spline_positions(via, pos[0], vel[0], duration, knots)
            assert np.abs((p_l + p_r) / 2 - p_c).max() < 1e-9
    _passline(8, "100 random plans: exact boundary conditions, C1 knots at 1e-9")


# ---------------------------------------------------------------------------
# Closed-loop criteria


@pytest.fixture(scope="module")
def static_pair():
    base = replace(scenario_phi_avoid(seed=PAIRED_SEED), env_noise_std=0.0)
    start = time.monotonic()
    rotogo_run = mpc_run(base.with_mode("rotogo"))
    robustness_run = mpc_run(base.with_mode("robustness"))
    elapsed = time.monotonic() - start
    return rotogo_run, robustness_run, elapsed


@pytest.fixture(scope="module")
def dynamic_bench():
    episodes = 20
    out = {}
    start = time.monotonic()
    for maker, problem in ((scenario_phi_avoid, "phi_avoid"), (scenario_phi_stayin, "phi_stayin")):
        rows = {}
        runs = {}
        for mode in ("rotogo", "robustness"):
            results = [mpc_run(maker(mode=mode, seed=1000 + ep)) for ep in range(episodes)]
            rows[mode] = batch_stats(results)
            runs[mode] = results
        out[problem] = (rows, runs)
    out["elapsed"] = time.monotonic() - start
    return out


def test_c09_static_paired_comparison(static_pair):
    rotogo_run, robustness_run, elapsed = static_pair
    assert elapsed < 120.0, f"paired run took {elapsed:.0f}s"
    assert rotogo_run.min_distance > robustness_run.min_distance
    assert rotogo_run.min_distance >= 0.5
    _passline(
        9,
        f"static pair (seed {PAIRED_SEED}): rotogo clearance {rotogo_run.min_distance:.3f} m "
        f"> robustness {robustness_run.min_distance:.3f} m in {elapsed:.0f}s",
    )


def test_c10_dynamic_benchmark_success_margins(dynamic_bench):
    assert dynamic_bench["elapsed"] < 1200.0
    margins = {"phi_avoid": 0.10, "phi_stayin": 0.05}
    for problem, needed in margins.items():
        rows, _ = dynamic_bench[problem]
        gap = rows["rotogo"].success_rate - rows["robustness"].success_rate
        assert gap >= needed, (
            f"{problem}: rotogo {rows['rotogo'].success_rate:.2f} vs "
            f"robustness {rows['robustness'].success_rate:.2f} (need gap {needed})"
        )
    avoid, stay = dynamic_bench["phi_avoid"][0], dynamic_bench["phi_stayin"][0]
    _passline(
        10,
        "20-episode success rates: "
        f"phi_avoid {avoid['rotogo'].success_rate:.2f}/{avoid['robustness'].success_rate:.2f}, "
        f"phi_stayin {stay['rotogo'].success_rate:.2f}/{stay['robustness'].success_rate:.2f} "
        f"in {dynamic_bench['elapsed']:.0f}s",
    )


def test_c11_max_robustness_ceiling(static_pair, dynamic_bench):
    ceiling = 0.1 + 1e-9
    checked = 0
    for run in static_pair[:2]:
        if run.success:
            assert run.final_robustness <= ceiling
            checked += 1
    _, runs = dynamic_bench["phi_avoid"]
    for mode_results in runs.values():
        for run in mode_results:
            if run.success:
                assert run.final_robustness <= ceiling, run.final_robustness
                checked += 1
    assert checked > 0
    _passline(11, f"{checked} successful avoid runs all respect the 0.1 start-pinned ceiling")


def test_c12_progression_efficiency(static_pair):
    rotogo_run, robustness_run, _ = static_pair
    total = len(rotogo_run.trace)
    touched = [r.samples_touched for r in rotogo_run.replans]
    remaining = [total - r.index - 1 for r in rotogo_run.replans]
    assert all(t <= r for t, r in zip(touched, remaining))
    assert all(a > b for a, b in zip(touched, touched[1:])), touched
    full = [r.samples_touched for r in robustness_run.replans]
    assert all(t == total for t in full)
    _passline(
        12,
        f"rotogo touches shrink {touched[0]} -> {touched[-1]} samples per replan; "
        f"robustness touches all {total} every time",
    )
