import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotogo.formula import (
    And,
    BinOp,
    Const,
    Interval,
    Not,
    Or,
    Pred,
    TOP,
    BOTTOM,
    Until,
    Var,
    to_ticks,
)
from rotogo.fasteval import eval_robustness_all
from rotogo.parser import MAX_NESTING, ParseError, format_formula, parse_formula
from rotogo.progression import progress, simplify
from rotogo.semantics import robustness, robustness_witness, rotogo, sat
from rotogo.signals import Signal
from rotogo.testgen import random_formula

SEC = 1_000_000


def pred(expr):
    return Pred(expr)


def test_always_desugars_to_negated_until():
    f = parse_formula("G[0,20] (x > 4)")
    inner = Pred(BinOp("-", Var("x"), Const(4.0)))
    assert f == Not(Until(TOP, Interval(0, 20 * SEC), Not(inner)))


def test_goal_conjunction_desugars_left_associated():
    f = parse_formula("F[0,20] ((x > 4) & (y > 2) & (y < 3))")
    gx = Pred(BinOp("-", Var("x"), Const(4.0)))
    gy1 = Pred(BinOp("-", Var("y"), Const(2.0)))
    gy2 = Pred(BinOp("-", Const(3.0), Var("y")))
    assert f == Until(TOP, Interval(0, 20 * SEC), And(And(gx, gy1), gy2))


def test_until_with_mixed_brackets():
    f = parse_formula("(x>1) U(2,5] (y>0)")
    assert isinstance(f, Until)
    assert f.interval == Interval(2 * SEC, 5 * SEC, False, True)


def test_implication_and_precedence():
    f = parse_formula("(x>0) -> (y>0) | (x>1) & (y>1)")
    # -> binds loosest, then |, then &
    assert isinstance(f, Or)  # Or(Not lhs, rhs)
    assert isinstance(f.left, Not)
    rhs = f.right
    assert isinstance(rhs, Or) and isinstance(rhs.right, And)


def test_until_binds_tighter_than_and():
    f = parse_formula("(x>0) U[0,1] (y>0) & (x>1)")
    assert isinstance(f, And)
    assert isinstance(f.left, Until)


def test_not_binds_tighter_than_until():
    f = parse_formula("!(x>0) U[0,1] (y>0)")
    assert isinstance(f, Until)
    assert isinstance(f.left, Not)


def test_true_false_literals():
    assert parse_formula("true") == TOP
    assert parse_formula("false") == BOTTOM
    assert parse_formula("true U[0,5] (x>0)").left == TOP


def test_aliases_resolve_recursively():
    aliases = {
        "near": "(x - xe)^2 + (y - ye)^2 < 0.25",
        "danger": "near | (x < 0)",
    }
    f = parse_formula("G[0,5] !danger", aliases=aliases)
    direct = parse_formula("G[0,5] !(((x - xe)^2 + (y - ye)^2 < 0.25) | (x < 0))")
    assert f == direct


@pytest.mark.parametrize(
    "aliases, message",
    [
        ({"a": "(x > )"}, "1:6: in alias 'a': expected a value, found ')'"),
        # the innermost malformed alias is named, whichever is read first
        ({"a": "b | (y > 1)", "b": "F[0,1] (x + > 1)"}, "1:13: in alias 'b': expected a value, found '>'"),
        ({"a": "(x > 0) &\n  (y >> 1)"}, "2:7: in alias 'a': expected a value, found '>'"),
    ],
    ids=["direct", "nested", "multi-line"],
)
def test_alias_error_points_into_the_alias_text(aliases, message):
    with pytest.raises(ParseError) as err:
        parse_formula("a", aliases=aliases)
    assert str(err.value) == message


def test_alias_may_be_one_bare_predicate():
    assert parse_formula("a", aliases={"a": "x - 1 > (y)"}) == parse_formula("(x - 1 > y)")
    with pytest.raises(ParseError, match="^1:1: state variable 'x' must be compared"):
        parse_formula("x > 0")  # only an alias text may leave out the parentheses


def test_alias_cycle_detected():
    with pytest.raises(ValueError, match="cycle"):
        parse_formula("a", aliases={"a": "b", "b": "a"})


@pytest.mark.parametrize(
    "name, reason",
    [("x", "state variable"), ("ye", "state variable"), ("true", "reserved"), ("F", "reserved"),
     ("inf", "reserved"), ("a b", "not a name"), ("", "not a name"), ("2nd", "not a name"), (3, "not a name")],
)
def test_alias_the_parser_cannot_read_is_rejected(name, reason):
    # Each would shadow a state variable, be read as a keyword, or never
    # tokenize as one name; the error names the alias, not a position.
    with pytest.raises(ValueError, match=reason) as info:
        parse_formula("G[0,1] (x > 0)", aliases={"ok": "(y > 1)", name: "(y > 1)"})
    assert repr(name) in str(info.value)
    assert parse_formula("G[0,1] _near2", aliases={"_near2": "(y > 1)"}) == parse_formula("G[0,1] (y > 1)")


def test_comparison_normalization():
    # a < b becomes b - a; <= and >= normalize identically
    assert parse_formula("(x < 3)") == parse_formula("(x <= 3)")
    assert parse_formula("(x > 3)") == parse_formula("(x >= 3)")
    assert parse_formula("(x < 3)") == Pred(BinOp("-", Const(3.0), Var("x")))
    assert parse_formula("(x > 0)") == Pred(Var("x"))


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("(z > 4)")
    assert "unknown variable" in str(err.value)
    assert err.value.line == 1 and err.value.column == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("(x + > 0)", "1:6: expected a value, found '>'"),
        ("(x y > 0)", "1:4: expected a comparison, found 'y'"),
        ("(x ^ 2.5 > 0)", "1:6: exponent must be a nonnegative integer"),
        ("(xe - > 3) & (y > 1)", "1:7: expected a value, found '>'"),
        ("(true > 0)", "1:2: 'true' cannot appear in a predicate"),
        ("G[0,1] x", "1:8: state variable 'x' must be compared, as in (x > 0)"),
        ("(x + 1)", "1:2: state variable 'x' must be compared, as in (x > 0)"),
    ],
)
def test_malformed_predicate_reports_its_own_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, ungrouped",
    [
        ("(F[0,1) (x > 0))", "F[0,1) (x > 0)"),
        ("((x > 0) U(0,1] (y > 0))", "(x > 0) U(0,1] (y > 0)"),
        ("(F(0,1] G[0,1) (x > 0))", "F(0,1] G[0,1) (x > 0)"),
    ],
)
def test_group_around_round_interval_brackets(text, ungrouped):
    # An interval's round bracket leaves a stale '(' or pops the group's.
    assert parse_formula(text) == parse_formula(ungrouped)
    assert parse_formula(f"(({text}) & (y > 1))") == And(parse_formula(ungrouped), parse_formula("(y > 1)"))


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_formula("(x > 4) &\n& (y > 2)")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text",
    [
        "(x>0) U[-1,2] (y>0)",  # negative lower bound
        "(x>0) U[3,2] (y>0)",  # lower >= upper
        "(x>0) U[2,2] (y>0)",  # degenerate at parse time
        "(x>0) U[0,inf] (y>0)",  # closed infinite bound
        "F[1,inf] (x>0)",
    ],
)
def test_bad_intervals_rejected(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_infinite_upper_open_is_accepted():
    f = parse_formula("(x>0) U[1,inf) (y>0)")
    assert f.interval.upper == math.inf and not f.interval.upper_closed


def test_integer_power_only():
    with pytest.raises(ParseError):
        parse_formula("(x^1.5 > 0)")
    f = parse_formula("(x^3 > 0)")
    assert f.fn.exponent == 3


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("(x>0) (y>0)")


@pytest.mark.parametrize(
    "text, message",
    [
        ("F[0,1e400] (x > 0)", "1:5: time bound 1e400 s is out of range"),  # infinite as a float
        ("G[0,1e303] (x > 0)", "1:5: time bound 1e303 s is out of range"),  # infinite in ticks
        ("(x > 1) U[1e400,inf) (x > 0)", "1:11: time bound 1e400 s is out of range"),
        ("F(1e400>xe", "1:3: time bound 1e400 s is out of range"),  # found by fuzzing
    ],
)
def test_infinite_time_bound_is_a_positioned_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


@given(st.integers(0, 10**9), st.integers(0, 10**7 - 1))
def test_time_bounds_are_to_ticks_of_their_seconds(whole, fraction):
    # Bounds round as trace and scenario times do, half-tick decimals included.
    text = f"{whole}.{fraction:07d}"
    f = parse_formula(f"F[{text},inf) (x > 0)")
    assert f.interval.lower == to_ticks(float(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("(1e400 > 1e400)", "1:2: number 1e400 is out of range"),
        ("(x > -1e400)", "1:7: number 1e400 is out of range"),
        ("G[0,1] ((x * 1e999) < 2)", "1:14: number 1e999 is out of range"),
        ("((1e400 > 0) & (x > 0))", "1:3: number 1e400 is out of range"),  # the inner '(' is the predicate
    ],
)
def test_infinite_predicate_constant_is_a_positioned_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_malformed_numbers_are_positioned_errors():
    with pytest.raises(ParseError, match=r"^1:5: malformed number '1\.2\.3'$"):
        parse_formula("F[0,1.2.3] (x > 0)")
    with pytest.raises(ParseError, match=r"^1:4: unexpected character"):
        parse_formula("(x^\u00b2 > 0)")  # a digit to str.isdigit(), not to float()


def _at_limit(shape: str, depth: int) -> str:
    """A formula of one shape that nests exactly ``depth`` levels."""
    return {
        # (x > 0) is a tree of depth 2, Pred over Var
        "not": "!" * (depth - 2) + "(x > 0)",
        "and": " & ".join(["(x > 0)"] * (depth - 1)),
        "until": " U[0,0.1] ".join(["(x > 0)"] * (depth - 1)),
        "eventually": "F[0,0.1] " * (depth - 2) + "(x > 0)",
        "sum": "(" + " + ".join(["x"] * (depth - 1)) + " > 0)",
        "power": "(x" + "^1" * (depth - 2) + " > 0)",
        # grouping parentheses add text nesting, not tree depth
        "parens": "(" * (depth - 1) + "(x > 0)" + ")" * (depth - 1),
        "minus": "(" + "-" * (depth - 2) + "x > 0)",
    }[shape]


@pytest.mark.parametrize("shape", ["not", "and", "until", "eventually", "sum", "power", "parens", "minus"])
def test_nesting_limit_is_exact(shape):
    parse_formula(_at_limit(shape, MAX_NESTING))
    with pytest.raises(ParseError, match=f"formula nests deeper than {MAX_NESTING} levels"):
        parse_formula(_at_limit(shape, MAX_NESTING + 1))


@pytest.mark.parametrize(
    "text, column",
    [
        ("!" * 3000 + "(x > 0)", MAX_NESTING + 1),  # the first '!' past the limit
        ("(" * 3000, MAX_NESTING + 1),
        ("(" + "-" * 3000 + "x > 0)", MAX_NESTING + 1),  # the first '-' past the limit
        (" & ".join(["(x > 0)"] * 3000), 9 + 10 * (MAX_NESTING - 2)),  # the '&' making depth 101
    ],
    ids=["not", "parens", "minus", "and"],
)
def test_deep_nesting_is_a_positioned_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value).endswith(f"formula nests deeper than {MAX_NESTING} levels")


def test_formulas_at_the_limit_run_through_every_recursive_consumer():
    # The limit must sit well below where evaluators, progression, the
    # compiler and the printer run out of stack: run them all with a few
    # hundred frames already in use.
    s = Signal(np.arange(3, dtype=np.int64) * to_ticks(0.5), {"x": np.array([1.0, -2.0, 3.0])})

    def consume(f):
        robustness(s, s.t0, f)
        rotogo(s, s.t0, s.t(1), f)
        sat(s, s.t0, f)
        robustness_witness(s, s.t0, f)
        progress(f, s.t(1) - s.t0, s.state(0))
        simplify(f)
        eval_robustness_all(s, f)
        assert parse_formula(format_formula(f)) == f

    def with_frames(k, fn):
        return with_frames(k - 1, fn) if k else fn()

    for shape in ("not", "and", "until", "eventually", "sum", "power", "parens", "minus"):
        text = _at_limit(shape, MAX_NESTING)
        f = with_frames(200, lambda: parse_formula(text))
        with_frames(200, lambda: consume(f))


_TOKENS = (
    "x", "y", "xe", "vx", "z", "F", "G", "U", "true", "false", "inf", "!", "&", "|", "(", ")", "[", "]",
    ",", ".", "->", "<", ">", "<=", ">=", "+", "-", "*", "^", "0", "1", "2", "9", "1.5", ".5", "e", "E",
    "1e400", "1e303", "1e", " ", "\n", "_", "@", "\u00b2",
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=40))
def test_parse_formula_raises_only_parse_errors(tokens):
    try:
        parse_formula("".join(tokens))
    except ParseError:
        pass


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_format_parse_round_trip_is_structural_identity(seed):
    rng = np.random.default_rng(seed)
    f = random_formula(rng, max_depth=4, max_temporal=3)
    text = format_formula(f)
    assert parse_formula(text) == f, text
    assert parse_formula("(" + text + ")") == f, text


def test_format_uses_sugar_that_reparses_identically():
    f = parse_formula("G[0,20] (x > 4)")
    text = format_formula(f)
    assert text.startswith("G[0,20]")
    assert parse_formula(text) == f


def test_benchmark_layer_wrappers_see_a_monitoring_unit(tmp_path, monkeypatch):
    """The monitoring workload's traced run wraps the public functions it
    calls, ``parse_formula`` among them; a unit that stopped calling through
    them would leave its layer table empty while every other test passes."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import Tracer
    from workloads import MonitorWorkload

    workload = MonitorWorkload("monitor_traces", 1, tmp_path)
    workload.prepare()
    tracer = Tracer()
    workload.install(tracer)
    unit = workload.run(0)

    assert workload.check(unit) == []
    totals = tracer.totals()
    for span in ("parser.parse_formula", "signals.read_trace_csv", "semantics.robustness", "fasteval.eval"):
        assert totals.get(span, {}).get("calls", 0) > 0, span
