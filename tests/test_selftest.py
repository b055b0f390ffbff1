import hashlib

import numpy as np
import pytest

from rotogo import selftest
from rotogo.formula import And, BOTTOM, Bottom, Const, Neg, Not, Or, Pred, TOP, Top, Until, Var
from rotogo.parser import format_formula
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


def test_reports_are_deterministic_for_a_seed(monkeypatch):
    a = run_selftest(cases=60, seed=DEFAULT_SEED)
    b = run_selftest(cases=60, seed=DEFAULT_SEED)
    assert [(r.name, r.cases, r.failures) for r in a.reports] == [
        (r.name, r.cases, r.failures) for r in b.reports
    ]
    # The reports are pinned. A passing report carries no detail, so the
    # corrupted rule's counterexamples are what pin the draws and their text.
    assert _report_digest(a) == "36c31c8ffb826b9c688a3af980efc1878184a9893d4aaa7b5aa198420051339f"
    monkeypatch.setattr(selftest, "progress", _corrupted_progress)
    corrupted = run_selftest(cases=120)
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


def test_empty_selection_is_an_error():
    with pytest.raises(ValueError, match="no selftest properties selected"):
        run_selftest(cases=5, only=set())


def _draw_digests(monkeypatch, seed: int, cases: int = 20) -> dict[str, str]:
    """One SHA-256 per property over the formulas, intervals and signals it
    draws in ``cases`` checks, run alone."""
    draws: list[bytes] = []

    def signal_bytes(s: Signal) -> bytes:
        return s.times.tobytes() + b"".join(name.encode() + col.tobytes() for name, col in s.components.items())

    def recording(fn, to_bytes):
        def draw(*args, **kwargs):
            out = fn(*args, **kwargs)
            draws.append(to_bytes(out))
            return out

        return draw

    monkeypatch.setattr(selftest, "random_instance", recording(
        selftest.random_instance, lambda fs: format_formula(fs[0]).encode() + signal_bytes(fs[1])
    ))
    monkeypatch.setattr(selftest, "random_signal", recording(selftest.random_signal, signal_bytes))
    monkeypatch.setattr(selftest, "random_interval", recording(selftest.random_interval, lambda i: repr(i).encode()))
    digests = {}
    for name in [r.name for r in run_selftest(cases=0).reports]:
        draws.clear()
        run_selftest(cases=cases, seed=seed, only={name})
        digests[name] = hashlib.sha256(b"".join(draws)).hexdigest()
    return digests


#: The draws of every property at DEFAULT_SEED.  Passing reports carry no
#: draws, so these, not the report digest, pin each property's stream.
_DRAW_DIGESTS = {
    "progression_equivalence": "8dca302b0a4522f211d2ad981e193adb1dcd31c47a7162874cab7be41260cae9",
    "sign_consistency": "6717c966baabb03c273ff0ae553d4fb46fff2605a760f91c9ea8562bccb345c1",
    "cut_before_time_matches_robustness": "aa120cb52314f91b9dbc375e2e4eaba48e2a23d404cb591c0451d6afcb71b587",
    "single_step_at_cut": "c19abe1442e69dc9e70279bdbfb80f0b8a75b5cd8276257c6fe2e6b3ed70a8fe",
    "single_step_after_cut": "4722f70ca2914ed01721b77996a3bb78fb526a8c29a0e0dc427925330f68930c",
    "progression_chain": "bbc7b7fa80b950e9bff1455aa90a9df77a56de209b66ccbe8bca515dc1654efe",
    "simplify_preserves_semantics": "294f72400add14e91f741b0222f21f6a07b4183a3e2db10c4247d4cf59a82bf2",
    "suffix_independence": "33ad763ce34f92cf5582fd44e6489f55979ef14a13f192d20dd53baad587c5ec",
    "sup_domain_shift": "60f9ad72a1487279239302bd9135023e15dc5956571474973c2074e5a9ad693f",
    "masked_prefix_insensitive": "490163258a43851bb18745014e4e7cb64526f9501ee03aba6cbdc8ea6f9b6cd3",
    "negation_duality": "5b7467f4bed87a97ebd081fe9b98c11cd01af0ded8c2da71222162b8afbf1051",
    "disjunction_demorgan": "99414ef547e7c89c6c23bbf6fed06b59507f106206d70f1aef73e92414b9cfe5",
    "fast_matches_reference": "d895973541015ccd2d831b24a4a421ec59503dac72c74e6ffba626a70fa97278",
    "finite_value_has_witness": "ecfd8b26ed7339f919a16ea4680f36fc702fac82ca04c9bc2b3c590d4aeececd",
}


def test_every_property_draw_stream_is_pinned(monkeypatch):
    digests = _draw_digests(monkeypatch, DEFAULT_SEED)
    assert digests == _DRAW_DIGESTS
    other = _draw_digests(monkeypatch, 1)
    assert all(other[name] != digest for name, digest in digests.items())


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


def test_corrupted_progression_rule_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(selftest, "progress", _corrupted_progress)
    result = run_selftest(cases=400, only={"progression_equivalence"})
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
