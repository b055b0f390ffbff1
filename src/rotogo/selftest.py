"""Randomized property suite: the toolkit checks its own core identities.

Every property is a differential test between two independently implemented
paths (direct recursion vs. progression, reference vs. vectorized evaluator,
formula vs. its rewriting) and requires exact extended-real equality.  The
suite runs from a fixed seed so failures are reproducible, and failing
progression-equivalence instances are shrunk to small counterexamples by
greedy subtree replacement and signal truncation.

Each property is an endless generator of checks over its own random stream;
`run_selftest` is the one harness that pulls, counts and describes them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np

from .formula import And, Formula, Interval, Not, Or, Top, Until, formula_predicates, to_ticks
from .fasteval import Program, eval_robustness_all
from .parser import format_formula
from .progression import progress, simplify
from .semantics import robustness, robustness_witness, rotogo, sat
from .signals import Signal
from .testgen import has_exact_zero, random_instance, random_interval, random_signal, shrink_instance

DEFAULT_SEED = 74250917

#: Signals drawn per formula by ``simplify_preserves_semantics``.
_SIGNALS_PER_FORMULA = 20

#: One check's outcome: None when the identity holds, otherwise a function
#: that builds the counterexample text.
_Check = Optional[Callable[[], str]]


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


def _fold(f0: Formula, signal: Signal, upto_index: int) -> Formula:
    f = f0
    for k in range(upto_index + 1):
        f = progress(f, signal.t(k + 1) - signal.t(k), signal.state(k))
    return f


def _describe(f: Formula, s: Signal, extra: str) -> str:
    times = ", ".join(str(t) for t in s.times.tolist())
    comps = {k: [round(float(v), 6) for v in col] for k, col in s.components.items()}
    return f"formula: {format_formula(f)}\n  sample ticks: [{times}]\n  components: {comps}\n  {extra}"


# ---------------------------------------------------------------------------
# Properties.  Each takes (rng) and yields one `_Check` per check forever; a
# describe function reads the generator's current locals, so the harness
# calls it before pulling the next check.  They progress through this
# module's `progress`, looked up at every call, so a mutation test can
# swap in a corrupted rule by patching that name.


def _prop_progression_equivalence(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        for cut in range(len(s) - 1):
            got = robustness(s, s.t(cut + 1), _fold(f, s, cut))
            want = rotogo(s, s.t0, s.t(cut), f)
            yield None if got == want else lambda: _shrink_progression_failure(f, s, cut)


def _shrink_progression_failure(f: Formula, s: Signal, cut: int) -> str:
    def still_failing(g: Formula, sig: Signal) -> bool:
        for c in range(min(cut + 1, len(sig) - 1)):
            try:
                got = robustness(sig, sig.t(c + 1), _fold(g, sig, c))
                want = rotogo(sig, sig.t0, sig.t(c), g)
            except Exception:
                return False
            if got != want:
                return True
        return False

    small_f, small_s = shrink_instance(f, s, still_failing)
    for c in range(len(small_s) - 1):
        got = robustness(small_s, small_s.t(c + 1), _fold(small_f, small_s, c))
        want = rotogo(small_s, small_s.t0, small_s.t(c), small_f)
        if got != want:
            return _describe(
                small_f,
                small_s,
                f"cut_index: {c}\n  via progression: {got}\n  direct robustness-to-go: {want}",
            )
    return _describe(small_f, small_s, "counterexample no longer reproduces after shrinking")


def _prop_sign_consistency(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        before = s.t0 - to_ticks(1.0)
        interior = s.t(int(rng.integers(0, len(s))))
        for t_hat in (before, s.t0, interior):
            value = rotogo(s, s.t0, t_hat, f)
            holds = (value > 0) == sat(s, s.t0, f)
            yield None if holds else lambda: _describe(
                f, s, f"t_hat: {t_hat}, rotogo: {value}, sat: {sat(s, s.t0, f)}"
            )


def _prop_cut_before_signal(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s)))
        t_k = s.t(k)
        t_hat = t_k - int(rng.integers(1, to_ticks(2.0)))
        got = rotogo(s, t_k, t_hat, f)
        want = robustness(s, t_k, f)
        yield None if got == want else lambda: _describe(
            f, s, f"k: {k}, t_hat: {t_hat}, rotogo: {got}, robustness: {want}"
        )


def _prop_single_step_at_cut(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s) - 1))
        got = rotogo(s, s.t(k), s.t(k), f)
        stepped = progress(f, s.t(k + 1) - s.t(k), s.state(k))
        want = robustness(s, s.t(k + 1), stepped)
        yield None if got == want else lambda: _describe(
            f, s, f"k: {k}, rotogo at cut: {got}, progressed robustness: {want}"
        )


def _prop_single_step_after_cut(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        k = int(rng.integers(0, len(s) - 1))
        if rng.random() < 0.5:
            t_hat = s.t(int(rng.integers(k + 1, len(s))))
        else:
            t_hat = s.t(k) + int(rng.integers(1, to_ticks(3.0)))
        got = rotogo(s, s.t(k), t_hat, f)
        stepped = progress(f, s.t(k + 1) - s.t(k), s.state(k))
        want = rotogo(s, s.t(k + 1), t_hat, stepped)
        yield None if got == want else lambda: _describe(f, s, f"k: {k}, t_hat: {t_hat}, got: {got}, want: {want}")


def _prop_progression_chain(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        i = int(rng.integers(1, len(s)))
        t_i = s.t(i)
        base = rotogo(s, s.t0, t_i, f)
        g = f
        for k in range(1, i + 1):
            g = progress(g, s.t(k) - s.t(k - 1), s.state(k - 1))
            got = rotogo(s, s.t(k), t_i, g)
            yield None if got == base else lambda: _describe(f, s, f"i: {i}, k: {k}, chained: {got}, direct: {base}")


def _prop_simplify_preserves_semantics(rng) -> Iterator[_Check]:
    while True:
        f, first = random_instance(rng)
        g = simplify(f)
        for i in range(_SIGNALS_PER_FORMULA):
            s = first if i == 0 else _fresh_signal_for(f, rng)
            if robustness(s, s.t0, f) != robustness(s, s.t0, g):
                yield lambda: _describe(f, s, f"simplified: {format_formula(g)}")
                continue
            t_hat = s.t(int(rng.integers(0, len(s))))
            same = rotogo(s, s.t0, t_hat, f) == rotogo(s, s.t0, t_hat, g)
            yield None if same else lambda: _describe(
                f, s, f"simplified: {format_formula(g)} (rotogo mismatch, t_hat={t_hat})"
            )


def _fresh_signal_for(f: Formula, rng) -> Signal:
    while True:
        s = random_signal(rng)
        if not has_exact_zero(f, s):
            return s


def _prop_suffix_independence(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        cut = int(rng.integers(0, len(s) - 1))
        progressed = _fold(f, s, cut)
        base = robustness(s, s.t(cut + 1), progressed)
        mutated = s
        for j in range(cut + 1):
            mutated = mutated.replaced(j, {n: float(rng.uniform(-10, 10)) for n in s.components})
        got = robustness(mutated, mutated.t(cut + 1), progressed)
        yield None if got == base else lambda: _describe(f, s, f"cut: {cut}, before mutation: {base}, after: {got}")


def _prop_sup_domain_shift(rng) -> Iterator[_Check]:
    # For untils with strictly positive lower bound, dropping sup candidates
    # before the next sample does not change the value.
    while True:
        _, s = random_instance(rng)
        left, _ = random_instance(rng, max_depth=2, max_temporal=1)
        right, _ = random_instance(rng, max_depth=2, max_temporal=1)
        interval = random_interval(rng)
        if interval.lower == 0:
            interval = Interval(to_ticks(0.05), interval.upper, interval.lower_closed, interval.upper_closed)
        f = Until(left, interval, right)
        if has_exact_zero(f, s):
            continue
        k = int(rng.integers(0, len(s) - 1))
        full = robustness(s, s.t(k), f)
        restricted = _until_restricted_sup(s, k, f)
        yield None if full == restricted else lambda: _describe(f, s, f"k: {k}, full: {full}, restricted: {restricted}")


def _until_restricted_sup(s: Signal, k: int, f: Until) -> float:
    """Robustness of ``f`` at sample ``k`` with the sup over candidates from
    sample ``k + 1`` on only."""
    sweep = not isinstance(f.left, Top)  # F: min(v, +inf) is v
    best = -math.inf
    lo, hi = s.index_range_in(f.interval, offset=s.t(k))
    for j in range(max(lo, k + 1), hi):
        v = robustness(s, s.t(j), f.right)
        if sweep:
            for m in range(k, j):
                v = min(v, robustness(s, s.t(m), f.left))
        best = max(best, v)
    return best


def _prop_masked_prefix_insensitive(rng) -> Iterator[_Check]:
    # Changing a sample at or before the cut leaves rotogo unchanged as long
    # as no predicate of the formula flips sign at that sample.
    while True:
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
        base = rotogo(s, s.t0, t_hat, f)
        got = rotogo(s.replaced(j, new_state), s.t0, t_hat, f)
        yield None if got == base else lambda: _describe(
            f, s, f"t_hat: {t_hat}, mutated index: {j}, before: {base}, after: {got}"
        )


def _prop_negation_duality(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        t_hat = s.t(int(rng.integers(0, len(s))))
        ok = robustness(s, s.t0, Not(f)) == -robustness(s, s.t0, f) and (
            rotogo(s, s.t0, t_hat, Not(f)) == -rotogo(s, s.t0, t_hat, f)
        )
        yield None if ok else lambda: _describe(f, s, "negation duality violated")


def _prop_disjunction_demorgan(rng) -> Iterator[_Check]:
    while True:
        a, s = random_instance(rng)
        b, _ = random_instance(rng)
        if has_exact_zero(b, s):
            continue
        direct = robustness(s, s.t0, Or(a, b))
        desugared = robustness(s, s.t0, Not(And(Not(a), Not(b))))
        parts = max(robustness(s, s.t0, a), robustness(s, s.t0, b))
        yield None if direct == desugared == parts else lambda: _describe(
            Or(a, b), s, f"direct: {direct}, desugared: {desugared}, max of parts: {parts}"
        )


def _prop_fast_matches_reference(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        table = eval_robustness_all(s, f)
        # The planner's start-only evaluation must reproduce the table's
        # first value; it rides along with the instance's index-0 case.
        start = float(Program(s.times, f, 1).run({n: c[np.newaxis] for n, c in s.components.items()})[0, 0])
        for j in range(len(s)):
            want = robustness(s, s.t(j), f)
            ok = float(table[j]) == want and (j > 0 or start == float(table[0]))
            yield None if ok else lambda: _describe(
                f, s, f"index: {j}, fast: {float(table[j])}, start-only: {start}, reference: {want}"
            )


def _prop_finite_value_has_witness(rng) -> Iterator[_Check]:
    while True:
        f, s = random_instance(rng)
        value, witness = robustness_witness(s, s.t0, f)
        ok = math.isinf(value) or (witness is not None and witness.value(s) == value)
        yield None if ok else lambda: _describe(
            f, s, f"value: {value}, witness value: {None if witness is None else witness.value(s)}"
        )


_PROPERTIES: dict[str, Callable[..., Iterator[_Check]]] = {
    "progression_equivalence": _prop_progression_equivalence,
    "sign_consistency": _prop_sign_consistency,
    "cut_before_time_matches_robustness": _prop_cut_before_signal,
    "single_step_at_cut": _prop_single_step_at_cut,
    "single_step_after_cut": _prop_single_step_after_cut,
    "progression_chain": _prop_progression_chain,
    "simplify_preserves_semantics": _prop_simplify_preserves_semantics,
    "suffix_independence": _prop_suffix_independence,
    "sup_domain_shift": _prop_sup_domain_shift,
    "masked_prefix_insensitive": _prop_masked_prefix_insensitive,
    "negation_duality": _prop_negation_duality,
    "disjunction_demorgan": _prop_disjunction_demorgan,
    "fast_matches_reference": _prop_fast_matches_reference,
    "finite_value_has_witness": _prop_finite_value_has_witness,
}


def run_selftest(cases: int = 1000, seed: int = DEFAULT_SEED, only: Optional[set[str]] = None) -> SelfTestResult:
    """Run exactly `cases` checks of each property (of those named in `only`,
    when given).  Raises ValueError for a negative `cases`, an empty `only`
    or an unknown property name."""
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    if only is not None and not only:
        raise ValueError("no selftest properties selected")
    unknown = sorted(set(only or ()) - _PROPERTIES.keys())
    if unknown:
        raise ValueError(f"unknown selftest properties: {', '.join(unknown)}")
    result = SelfTestResult()
    for index, (name, prop) in enumerate(_PROPERTIES.items()):
        if only is not None and name not in only:
            continue
        failures, detail = 0, None
        for describe in islice(prop(np.random.default_rng([seed, index])), cases):
            if describe is not None:
                failures += 1
                if detail is None:
                    detail = describe()
        result.reports.append(PropertyReport(name, cases, failures, detail))
    return result
