import hashlib

import numpy as np
import pytest

from rotogo.formula import And, BOTTOM, Bottom, Const, Neg, Not, Or, Pred, TOP, Top, Until, Var
from rotogo.progression import simplify
from rotogo.selftest import DEFAULT_SEED, run_selftest
from rotogo.signals import Signal
from rotogo.testgen import has_exact_zero


def test_default_corpus_passes():
    result = run_selftest(cases=120)
    assert result.passed
    assert all(r.cases == 120 for r in result.reports)


def _report_digest(result) -> str:
    rows = [(r.name, r.cases, r.failures, r.detail) for r in result.reports]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_reports_are_deterministic_for_a_seed():
    a = run_selftest(cases=60, seed=DEFAULT_SEED)
    b = run_selftest(cases=60, seed=DEFAULT_SEED)
    assert [(r.name, r.cases, r.failures) for r in a.reports] == [
        (r.name, r.cases, r.failures) for r in b.reports
    ]
    # The reports are pinned. A passing report carries no detail, so the
    # corrupted rule's counterexamples are what pin the draws and their text.
    assert _report_digest(a) == "36c31c8ffb826b9c688a3af980efc1878184a9893d4aaa7b5aa198420051339f"
    corrupted = run_selftest(cases=120, progress_fn=_corrupted_progress)
    assert [r.name for r in corrupted.reports if r.failures] == [
        "progression_equivalence", "single_step_at_cut", "single_step_after_cut", "progression_chain"
    ]
    assert _report_digest(corrupted) == "163869f859c24f25c72de6257a4fac8b78643f6df946263ff29653930f15328e"


def test_zero_cases_is_a_vacuous_pass():
    result = run_selftest(cases=0)
    assert result.passed
    assert all(r.cases == 0 for r in result.reports)


def test_negative_cases_and_unknown_names_are_errors():
    with pytest.raises(ValueError, match="cases must be >= 0, got -3"):
        run_selftest(cases=-3)
    with pytest.raises(ValueError, match="unknown selftest properties: typo"):
        run_selftest(cases=5, only={"typo", "sign_consistency"})


def _corrupted_progress(f, delta, state):
    """Progression that forgets the right operand may hold immediately."""

    def walk(g):
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Pred):
            return TOP if g.fn.eval(state) > 0 else BOTTOM
        if isinstance(g, Not):
            return Not(walk(g.child))
        if isinstance(g, And):
            return And(walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
        if isinstance(g, Until):
            shifted = g.interval.shift_truncate(delta)
            tail = BOTTOM if shifted.is_empty() else Until(g.left, shifted, g.right)
            return And(walk(g.left), tail)  # drops the 0-in-interval disjunct
        raise TypeError(g)

    return simplify(walk(f))


def test_corrupted_progression_rule_is_caught_and_shrunk():
    result = run_selftest(cases=400, progress_fn=_corrupted_progress, only={"progression_equivalence"})
    report = result.reports[0]
    assert report.failures > 0
    assert report.detail is not None
    assert "formula:" in report.detail and "cut_index:" in report.detail
    # the shrinker should reduce the witness to a handful of samples
    ticks_line = next(line for line in report.detail.splitlines() if "sample ticks" in line)
    assert ticks_line.count(",") <= 4


def test_exact_zero_check_decides_redraws():
    # The check decides which drawn instances are redrawn, so the corpus stream.
    s = Signal(np.arange(3, dtype=np.int64), {"x": np.array([1.0, 0.0, 2.0]), "y": np.array([1.0, 2.0, 3.0])})
    assert has_exact_zero(Pred(Var("x")), s)
    assert has_exact_zero(Pred(Neg(Var("x"))), s)  # -0.0 is a zero too
    assert not has_exact_zero(Pred(Var("y")), s)
    assert has_exact_zero(And(Pred(Var("y")), Pred(Const(0.0))), s)  # a constant predicate
    assert not has_exact_zero(Pred(Const(-1.5)), s)
