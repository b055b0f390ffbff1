"""Randomized property suite: the toolkit checks its own core identities.

Every property is a differential test between two independently implemented
paths (direct recursion vs. progression, reference vs. vectorized evaluator,
formula vs. its rewriting) and requires exact extended-real equality.  The
suite runs from a fixed seed so failures are reproducible, and failing
progression-equivalence instances are shrunk to small counterexamples by
greedy subtree replacement and signal truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .formula import And, Formula, Interval, Not, Or, Until, formula_predicates, to_ticks
from .fasteval import eval_robustness_all, eval_robustness_start
from .parser import format_formula
from .progression import progress, simplify
from .semantics import robustness, robustness_witness, rotogo, sat
from .signals import Signal
from .testgen import random_instance, random_interval, shrink_instance

DEFAULT_SEED = 74250917


@dataclass
class PropertyReport:
    name: str
    cases: int
    failures: int
    detail: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class SelfTestResult:
    reports: list[PropertyReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _ext_eq(a: float, b: float) -> bool:
    return a == b


def _fold(f0: Formula, signal: Signal, upto_index: int, progress_fn) -> Formula:
    f = f0
    for k in range(upto_index + 1):
        f = progress_fn(f, signal.t(k + 1) - signal.t(k), signal.state(k))
    return f


def _describe(f: Formula, s: Signal, extra: str) -> str:
    times = ", ".join(str(t) for t in s.times.tolist())
    comps = {k: [round(float(v), 6) for v in col] for k, col in s.components.items()}
    return f"formula: {format_formula(f)}\n  sample ticks: [{times}]\n  components: {comps}\n  {extra}"


# ---------------------------------------------------------------------------
# Properties.  Each runs until `cases` checks have been performed and reports
# the number of failures plus a (shrunk, where available) counterexample.


def _prop_progression_equivalence(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        for cut in range(len(s) - 1):
            if done >= cases:
                break
            done += 1
            got = robustness(s, s.t(cut + 1), _fold(f, s, cut, progress_fn))
            want = rotogo(s, s.t0, s.t(cut), f)
            if not _ext_eq(got, want):
                failures += 1
                if detail is None:
                    detail = _shrink_progression_failure(f, s, cut, progress_fn)
    return PropertyReport("progression_equivalence", done, failures, detail)


def _shrink_progression_failure(f: Formula, s: Signal, cut: int, progress_fn) -> str:
    def still_failing(g: Formula, sig: Signal) -> bool:
        for c in range(min(cut + 1, len(sig) - 1)):
            try:
                got = robustness(sig, sig.t(c + 1), _fold(g, sig, c, progress_fn))
                want = rotogo(sig, sig.t0, sig.t(c), g)
            except Exception:
                return False
            if not _ext_eq(got, want):
                return True
        return False

    small_f, small_s = shrink_instance(f, s, still_failing)
    for c in range(len(small_s) - 1):
        got = robustness(small_s, small_s.t(c + 1), _fold(small_f, small_s, c, progress_fn))
        want = rotogo(small_s, small_s.t0, small_s.t(c), small_f)
        if not _ext_eq(got, want):
            return _describe(
                small_f,
                small_s,
                f"cut_index: {c}\n  via progression: {got}\n  direct robustness-to-go: {want}",
            )
    return _describe(small_f, small_s, "counterexample no longer reproduces after shrinking")


def _prop_sign_consistency(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        before = s.t0 - to_ticks(1.0)
        interior = s.t(int(rng.integers(0, len(s))))
        for t_hat in (before, s.t0, interior):
            if done >= cases:
                break
            done += 1
            value = rotogo(s, s.t0, t_hat, f)
            holds = (value > 0) == sat(s, s.t0, f)
            if not holds:
                failures += 1
                if detail is None:
                    detail = _describe(f, s, f"t_hat: {t_hat}, rotogo: {value}, sat: {sat(s, s.t0, f)}")
    return PropertyReport("sign_consistency", done, failures, detail)


def _prop_cut_before_signal(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s)))
        t_k = s.t(k)
        t_hat = t_k - int(rng.integers(1, to_ticks(2.0)))
        done += 1
        got = rotogo(s, t_k, t_hat, f)
        want = robustness(s, t_k, f)
        if not _ext_eq(got, want):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"k: {k}, t_hat: {t_hat}, rotogo: {got}, robustness: {want}")
    return PropertyReport("cut_before_time_matches_robustness", done, failures, detail)


def _prop_single_step_at_cut(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s) - 1))
        done += 1
        got = rotogo(s, s.t(k), s.t(k), f)
        stepped = progress_fn(f, s.t(k + 1) - s.t(k), s.state(k))
        want = robustness(s, s.t(k + 1), stepped)
        if not _ext_eq(got, want):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"k: {k}, rotogo at cut: {got}, progressed robustness: {want}")
    return PropertyReport("single_step_at_cut", done, failures, detail)


def _prop_single_step_after_cut(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s) - 1))
        if rng.random() < 0.5:
            t_hat = s.t(int(rng.integers(k + 1, len(s))))
        else:
            t_hat = s.t(k) + int(rng.integers(1, to_ticks(3.0)))
        done += 1
        got = rotogo(s, s.t(k), t_hat, f)
        stepped = progress_fn(f, s.t(k + 1) - s.t(k), s.state(k))
        want = rotogo(s, s.t(k + 1), t_hat, stepped)
        if not _ext_eq(got, want):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"k: {k}, t_hat: {t_hat}, got: {got}, want: {want}")
    return PropertyReport("single_step_after_cut", done, failures, detail)


def _prop_progression_chain(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        i = int(rng.integers(1, len(s)))
        t_i = s.t(i)
        base = rotogo(s, s.t0, t_i, f)
        g = f
        for k in range(1, i + 1):
            if done >= cases:
                break
            g = progress_fn(g, s.t(k) - s.t(k - 1), s.state(k - 1))
            done += 1
            got = rotogo(s, s.t(k), t_i, g)
            if not _ext_eq(got, base):
                failures += 1
                if detail is None:
                    detail = _describe(f, s, f"i: {i}, k: {k}, chained: {got}, direct: {base}")
    return PropertyReport("progression_chain", done, failures, detail)


def _prop_simplify_preserves_semantics(rng, cases: int, progress_fn, signals_per_formula: int = 20) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, first = random_instance(rng)
        g = simplify(f)
        for i in range(signals_per_formula):
            if done >= cases:
                break
            s = first if i == 0 else _fresh_signal_for(f, rng)
            done += 1
            if not _ext_eq(robustness(s, s.t0, f), robustness(s, s.t0, g)):
                failures += 1
                if detail is None:
                    detail = _describe(f, s, f"simplified: {format_formula(g)}")
                continue
            t_hat = s.t(int(rng.integers(0, len(s))))
            if not _ext_eq(rotogo(s, s.t0, t_hat, f), rotogo(s, s.t0, t_hat, g)):
                failures += 1
                if detail is None:
                    detail = _describe(f, s, f"simplified: {format_formula(g)} (rotogo mismatch, t_hat={t_hat})")
    return PropertyReport("simplify_preserves_semantics", done, failures, detail)


def _fresh_signal_for(f: Formula, rng) -> Signal:
    from .testgen import random_signal

    while True:
        s = random_signal(rng)
        if not _instance_has_zero(f, s):
            return s


def _prop_suffix_independence(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng, min_len=3)
        cut = int(rng.integers(0, len(s) - 1))
        progressed = _fold(f, s, cut, progress_fn)
        base = robustness(s, s.t(cut + 1), progressed)
        mutated = s
        for j in range(cut + 1):
            mutated = mutated.replaced(j, {n: float(rng.uniform(-10, 10)) for n in s.components})
        done += 1
        got = robustness(mutated, mutated.t(cut + 1), progressed)
        if not _ext_eq(got, base):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"cut: {cut}, before mutation: {base}, after: {got}")
    return PropertyReport("suffix_independence", done, failures, detail)


def _prop_sup_domain_shift(rng, cases: int, progress_fn) -> PropertyReport:
    # For untils with strictly positive lower bound, dropping sup candidates
    # before the next sample does not change the value.
    done = failures = 0
    detail = None
    while done < cases:
        _, s = random_instance(rng)
        left, _ = random_instance(rng, max_depth=2, max_temporal=1)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        interval = random_interval(rng)
        if interval.lower == 0:
            interval = Interval(to_ticks(0.05), interval.upper, interval.lower_closed, interval.upper_closed)
        f = Until(left, interval, right)
        if _instance_has_zero(f, s):
            continue
        k = int(rng.integers(0, len(s) - 1))
        t_k = s.t(k)
        done += 1
        full = robustness(s, t_k, f)
        restricted = _until_restricted_sup(s, t_k, f, s.t(k + 1))
        if not _ext_eq(full, restricted):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"k: {k}, full: {full}, restricted: {restricted}")
    return PropertyReport("sup_domain_shift", done, failures, detail)


def _until_restricted_sup(s: Signal, t, f: Until, t_next) -> float:
    best = -math.inf
    for tp in s.times_in(f.interval, offset=t):
        if tp < t_next:
            continue
        v = robustness(s, tp, f.right)
        for tpp in s.times_between(t, tp):
            v = min(v, robustness(s, tpp, f.left))
        best = max(best, v)
    return best


def _instance_has_zero(f: Formula, s: Signal) -> bool:
    for p in formula_predicates(f):
        values = p.fn.eval(s.components)
        if np.ndim(values) == 0:
            if values == 0.0:
                return True
        elif np.any(np.asarray(values) == 0.0):
            return True
    return False


def _prop_masked_prefix_insensitive(rng, cases: int, progress_fn) -> PropertyReport:
    # Changing a sample at or before the cut leaves rotogo unchanged as long
    # as no predicate of the formula flips sign at that sample.
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        preds = formula_predicates(f)
        if not preds:
            continue
        i = int(rng.integers(0, len(s)))
        t_hat = s.t(i)
        j = int(rng.integers(0, i + 1))
        old_state = s.state(j)
        new_state = {n: v * float(rng.uniform(0.5, 1.5)) + float(rng.normal(0, 1e-4)) for n, v in old_state.items()}
        signs_ok = all(
            (p.fn.eval(old_state) > 0) == (p.fn.eval(new_state) > 0) and p.fn.eval(new_state) != 0.0
            for p in preds
        )
        if not signs_ok:
            continue
        done += 1
        base = rotogo(s, s.t0, t_hat, f)
        got = rotogo(s.replaced(j, new_state), s.t0, t_hat, f)
        if not _ext_eq(got, base):
            failures += 1
            if detail is None:
                detail = _describe(f, s, f"t_hat: {t_hat}, mutated index: {j}, before: {base}, after: {got}")
    return PropertyReport("masked_prefix_insensitive", done, failures, detail)


def _prop_negation_duality(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        t_hat = s.t(int(rng.integers(0, len(s))))
        done += 1
        ok = _ext_eq(robustness(s, s.t0, Not(f)), -robustness(s, s.t0, f)) and _ext_eq(
            rotogo(s, s.t0, t_hat, Not(f)), -rotogo(s, s.t0, t_hat, f)
        )
        if not ok:
            failures += 1
            if detail is None:
                detail = _describe(f, s, "negation duality violated")
    return PropertyReport("negation_duality", done, failures, detail)


def _prop_disjunction_demorgan(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        a, s = random_instance(rng)
        b, _ = random_instance(rng)
        if _instance_has_zero(b, s):
            continue
        done += 1
        direct = robustness(s, s.t0, Or(a, b))
        desugared = robustness(s, s.t0, Not(And(Not(a), Not(b))))
        parts = max(robustness(s, s.t0, a), robustness(s, s.t0, b))
        if not (_ext_eq(direct, desugared) and _ext_eq(direct, parts)):
            failures += 1
            if detail is None:
                detail = _describe(Or(a, b), s, f"direct: {direct}, desugared: {desugared}, max of parts: {parts}")
    return PropertyReport("disjunction_demorgan", done, failures, detail)


def _prop_fast_matches_reference(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        table = eval_robustness_all(s, f)
        # The planner's start-only evaluation must reproduce the table's
        # first value; it rides along with the instance's index-0 case.
        start = float(eval_robustness_start(s.times, {n: c[np.newaxis] for n, c in s.components.items()}, f)[0])
        for j in range(len(s)):
            if done >= cases:
                break
            done += 1
            want = robustness(s, s.t(j), f)
            if not _ext_eq(float(table[j]), want) or (j == 0 and not _ext_eq(start, float(table[0]))):
                failures += 1
                if detail is None:
                    detail = _describe(
                        f, s, f"index: {j}, fast: {float(table[j])}, start-only: {start}, reference: {want}"
                    )
    return PropertyReport("fast_matches_reference", done, failures, detail)


def _prop_finite_value_has_witness(rng, cases: int, progress_fn) -> PropertyReport:
    done = failures = 0
    detail = None
    while done < cases:
        f, s = random_instance(rng)
        done += 1
        value, witness = robustness_witness(s, s.t0, f)
        if math.isinf(value):
            continue
        if witness is None or witness.value(s) != value:
            failures += 1
            if detail is None:
                got = None if witness is None else witness.value(s)
                detail = _describe(f, s, f"value: {value}, witness value: {got}")
    return PropertyReport("finite_value_has_witness", done, failures, detail)


_PROPERTIES: list[tuple[str, Callable]] = [
    ("progression_equivalence", _prop_progression_equivalence),
    ("sign_consistency", _prop_sign_consistency),
    ("cut_before_time_matches_robustness", _prop_cut_before_signal),
    ("single_step_at_cut", _prop_single_step_at_cut),
    ("single_step_after_cut", _prop_single_step_after_cut),
    ("progression_chain", _prop_progression_chain),
    ("simplify_preserves_semantics", _prop_simplify_preserves_semantics),
    ("suffix_independence", _prop_suffix_independence),
    ("sup_domain_shift", _prop_sup_domain_shift),
    ("masked_prefix_insensitive", _prop_masked_prefix_insensitive),
    ("negation_duality", _prop_negation_duality),
    ("disjunction_demorgan", _prop_disjunction_demorgan),
    ("fast_matches_reference", _prop_fast_matches_reference),
    ("finite_value_has_witness", _prop_finite_value_has_witness),
]


def run_selftest(
    cases: int = 1000,
    seed: int = DEFAULT_SEED,
    progress_fn: Optional[Callable] = None,
    only: Optional[set[str]] = None,
) -> SelfTestResult:
    """Run the property corpus; `progress_fn` overrides the progression rule
    (used by mutation tests that verify the suite catches a corrupted rule)."""
    fn = progress_fn if progress_fn is not None else progress
    result = SelfTestResult()
    for index, (name, prop) in enumerate(_PROPERTIES):
        if only is not None and name not in only:
            continue
        rng = np.random.default_rng([seed, index])
        if cases <= 0:
            result.reports.append(PropertyReport(name, 0, 0, None))
            continue
        result.reports.append(prop(rng, cases, fn))
    return result
