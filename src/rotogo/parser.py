"""Concrete syntax for formulas: tokenizer, recursive-descent parser, printer.

Grammar (EBNF, whitespace insensitive):

    formula    = implies ;
    implies    = or_expr , [ "->" , implies ] ;
    or_expr    = and_expr , { "|" , and_expr } ;
    and_expr   = until_expr , { "&" , until_expr } ;
    until_expr = unary , [ "U" , interval , until_expr ] ;
    unary      = "!" , unary
               | "F" , interval , unary
               | "G" , interval , unary
               | atom ;
    atom       = "true" | "false" | ALIAS
               | "(" , predicate , ")"
               | "(" , formula , ")" ;
    predicate  = arith , ( "<" | ">" | "<=" | ">=" ) , arith ;
    arith      = term , { ( "+" | "-" ) , term } ;
    term       = factor , { "*" , factor } ;
    factor     = [ "-" ] , power ;
    power      = primary , { "^" , INT } ;
    primary    = NUMBER | VARIABLE | "(" , arith , ")" ;
    interval   = ( "[" | "(" ) , NUMBER , "," , ( NUMBER | "inf" ) , ( "]" | ")" ) ;

Interval bounds are seconds and are converted to integer ticks.  `F`, `G`
and `->` are syntactic sugar and are desugared at parse time; comparisons
are normalized to the canonical `f(state) > 0` form (`a < b` becomes
`b - a > 0`, and `<=`/`>=` normalize identically to `<`/`>`).  A number
that overflows a float (`1e400`) is rejected, in a predicate as in a time
bound.

Nesting is limited to `MAX_NESTING` levels, counted twice: the text may
open at most that many constructs inside one another (parentheses, `!`,
`F`, `G`, `U`, `->` and unary `-`), and the parsed tree, desugaring
included, may be at most that many nodes deep (so a chain of 200 `&` is
too deep, since it nests left to right).  Evaluators, progression, the
compiler and the printer all recurse on the tree and fail several times
deeper; beyond the limit parsing raises a `ParseError` at the token that
crossed it.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .formula import (
    And,
    BinOp,
    Bottom,
    Const,
    Expr,
    Formula,
    Interval,
    Neg,
    Not,
    Or,
    Pow,
    Pred,
    TOP,
    BOTTOM,
    Top,
    Until,
    Var,
    eventually,
    always,
    implies,
)

#: State components a predicate may reference.
ALLOWED_VARIABLES = frozenset({"x", "y", "vx", "vy", "xe", "ye"})

_RESERVED = frozenset({"U", "F", "G", "true", "false", "inf"})

#: How deeply a formula may nest, in its text and as a tree (module docstring).
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class _PredicateError(ParseError):
    """A token only a predicate can hold is wrong (an unknown variable name,
    a number out of range): reported as such, never backtracked over."""


class _TooDeepError(ParseError):
    """So is nesting beyond MAX_NESTING: every reading nests as deep."""

    def __init__(self, tok: _Token):
        super().__init__(f"formula nests deeper than {MAX_NESTING} levels", tok.line, tok.column)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "number", "op", "end"
    text: str
    line: int
    column: int


# Only ASCII digits: str.isdigit() also accepts digits that float() rejects.
_DIGITS = frozenset("0123456789")

_OPERATORS = ("->", "<=", ">=", "!", "&", "|", "(", ")", "[", "]", ",", "<", ">", "+", "-", "*", "^")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            while j < n and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            if text.count(".", i, j) > 1:
                raise ParseError(f"malformed number {text[i:j]!r}", line, col)
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], tick_unit: float, aliases: Mapping[str, Formula]):
        self.tokens = tokens
        self.pos = 0
        self.tick_unit = tick_unit
        self.aliases = aliases
        self.open = 0  # constructs currently open in the text
        self.depths: dict[int, tuple[object, int]] = {}  # id(node) -> (node, tree depth)

    # -- token helpers ---------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- nesting limits ----------------------------------------------------

    @contextmanager
    def nested(self, tok: _Token):
        """One more construct, opened at ``tok``, inside the current ones."""
        if self.open == MAX_NESTING:
            raise _TooDeepError(tok)
        self.open += 1
        try:
            yield
        finally:
            self.open -= 1

    def built(self, node, tok: _Token):
        """``node``, built at ``tok``, unless its tree is too deep."""
        if self.depth(node) > MAX_NESTING:
            raise _TooDeepError(tok)
        return node

    def depth(self, node) -> int:
        # Nodes this parser built are looked up; only the few a desugaring
        # adds and alias formulas are walked.  The entry keeps the node
        # alive, so its id is not reused by a node built after backtracking.
        entry = self.depths.get(id(node))
        if entry is None:
            entry = (node, 1 + max(map(self.depth, _children(node)), default=0))
            self.depths[id(node)] = entry
        return entry[1]

    # -- formula grammar -------------------------------------------------

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        tok = self.peek()
        if tok.text == "->":
            self.next()
            with self.nested(tok):
                right = self.parse_formula()
            return self.built(implies(left, right), tok)
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().text == "|":
            tok = self.next()
            node = self.built(Or(node, self.parse_and()), tok)
        return node

    def parse_and(self) -> Formula:
        node = self.parse_until()
        while self.peek().text == "&":
            tok = self.next()
            node = self.built(And(node, self.parse_until()), tok)
        return node

    def parse_until(self) -> Formula:
        node = self.parse_unary()
        tok = self.peek()
        if tok.text == "U":
            self.next()
            interval = self.parse_interval()
            with self.nested(tok):
                right = self.parse_until()
            return self.built(Until(node, interval, right), tok)
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.next()
            with self.nested(tok):
                child = self.parse_unary()
            return self.built(Not(child), tok)
        if tok.text in ("F", "G"):
            self.next()
            interval = self.parse_interval()
            with self.nested(tok):
                child = self.parse_unary()
            sugar = eventually if tok.text == "F" else always
            return self.built(sugar(interval, child), tok)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return TOP
            if tok.text == "false":
                self.next()
                return BOTTOM
            if tok.text in _RESERVED:
                raise self.error(f"misplaced keyword {tok.text!r}")
            if tok.text in self.aliases:
                self.next()
                return self.aliases[tok.text]
            raise self.error(f"unknown name {tok.text!r}")
        if tok.text == "(":
            with self.nested(tok):
                start = self.pos
                try:
                    return self.parse_predicate_atom()
                except _NotAPredicate:
                    self.pos = start
                self.expect("(")
                inner = self.parse_formula()
                self.expect(")")
                return inner
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def parse_predicate_atom(self) -> Formula:
        """Parse '( arith cmp arith )'.

        Raises _NotAPredicate when the parenthesized text is not a
        comparison, so the caller can fall back to a grouped formula.  Errors
        after the comparison operator was seen are genuine and propagate.
        """
        self.expect("(")
        try:
            lhs = self.parse_arith()
        except (_PredicateError, _TooDeepError):
            raise
        except ParseError as exc:
            raise _NotAPredicate from exc
        tok = self.peek()
        if tok.text not in ("<", ">", "<=", ">="):
            raise _NotAPredicate
        self.next()
        rhs = self.parse_arith()
        self.expect(")")
        if tok.text in (">", ">="):
            fn = _difference(lhs, rhs)
        else:
            fn = _difference(rhs, lhs)
        return self.built(Pred(fn), tok)

    # -- predicate arithmetic ---------------------------------------------

    def parse_arith(self) -> Expr:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            tok = self.next()
            node = self.built(BinOp(tok.text, node, self.parse_term()), tok)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().text == "*":
            tok = self.next()
            node = self.built(BinOp("*", node, self.parse_factor()), tok)
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            with self.nested(tok):
                child = self.parse_factor()
            if isinstance(child, Const):
                return Const(-child.value)
            return self.built(Neg(child), tok)
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_primary()
        while self.peek().text == "^":
            caret = self.next()
            tok = self.peek()
            if tok.kind != "number" or not tok.text.isdigit():
                raise self.error("exponent must be a nonnegative integer")
            self.next()
            node = self.built(Pow(node, int(tok.text)), caret)
        return node

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise _PredicateError(f"number {tok.text} is out of range", tok.line, tok.column)
            self.next()
            return Const(value)
        if tok.kind == "ident":
            if tok.text in _RESERVED or tok.text in self.aliases:
                raise self.error(f"{tok.text!r} cannot appear in a predicate")
            if tok.text not in ALLOWED_VARIABLES:
                raise _PredicateError(f"unknown variable name {tok.text!r}", tok.line, tok.column)
            self.next()
            return Var(tok.text)
        if tok.text == "(":
            self.next()
            with self.nested(tok):
                inner = self.parse_arith()
            self.expect(")")
            return inner
        raise self.error(f"expected a value, found {tok.text or 'end of input'!r}")

    # -- intervals ---------------------------------------------------------

    def parse_interval(self) -> Interval:
        open_tok = self.peek()
        if open_tok.text not in ("[", "("):
            raise self.error("expected an interval")
        self.next()
        lower_closed = open_tok.text == "["
        lo_tok = self.peek()
        lower = self.parse_time_bound(allow_inf=False)
        self.expect(",")
        hi_tok = self.peek()
        upper = self.parse_time_bound(allow_inf=True)
        close_tok = self.peek()
        if close_tok.text not in ("]", ")"):
            raise self.error("expected ']' or ')'")
        self.next()
        upper_closed = close_tok.text == "]"
        if lower < 0:
            raise ParseError("interval lower bound must be >= 0", lo_tok.line, lo_tok.column)
        if upper == math.inf:
            if upper_closed:
                raise ParseError("an infinite bound must be open", close_tok.line, close_tok.column)
        elif lower >= upper:
            raise ParseError("interval requires lower < upper", hi_tok.line, hi_tok.column)
        return Interval(lower, upper, lower_closed, upper_closed)

    def parse_time_bound(self, allow_inf: bool):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            if not allow_inf:
                raise self.error("lower bound cannot be infinite")
            self.next()
            return math.inf
        if tok.kind != "number":
            raise self.error(f"expected a time bound, found {tok.text or 'end of input'!r}")
        self.next()
        ticks = float(tok.text) / self.tick_unit
        if not math.isfinite(ticks):
            raise ParseError(f"time bound {tok.text} s is out of range", tok.line, tok.column)
        return round(ticks)


class _NotAPredicate(Exception):
    pass


def _children(node) -> tuple:
    if isinstance(node, (And, Or, Until, BinOp)):
        return node.left, node.right
    if isinstance(node, (Not, Neg)):
        return (node.child,)
    if isinstance(node, Pred):
        return (node.fn,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _difference(lhs: Expr, rhs: Expr) -> Expr:
    # Dropping the "- 0" keeps `(f > 0)` round-trips structurally stable.
    if isinstance(rhs, Const) and rhs.value == 0.0:
        return lhs
    if isinstance(lhs, Const) and lhs.value == 0.0:
        return Neg(rhs) if not isinstance(rhs, Const) else Const(-rhs.value)
    return BinOp("-", lhs, rhs)


def _resolve_aliases(
    raw: Optional[Mapping[str, Union[str, Formula]]], tick_unit: float
) -> dict[str, Formula]:
    if not raw:
        return {}
    resolved: dict[str, Formula] = {}
    resolving: set[str] = set()

    def resolve(name: str) -> Formula:
        if name in resolved:
            return resolved[name]
        if name in resolving:
            raise ValueError(f"alias cycle involving {name!r}")
        resolving.add(name)
        value = raw[name]
        if isinstance(value, Formula):
            out = value
        else:
            out = _parse(f"({value})", tick_unit, _LazyAliases(raw, resolve))
        resolving.discard(name)
        resolved[name] = out
        return out

    for key in raw:
        resolve(key)
    return resolved


class _LazyAliases(Mapping[str, Formula]):
    def __init__(self, raw, resolve):
        self._raw = raw
        self._resolve = resolve

    def __getitem__(self, key: str) -> Formula:
        return self._resolve(key)

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __contains__(self, key) -> bool:
        return key in self._raw


def _parse(text: str, tick_unit: float, aliases: Mapping[str, Formula]) -> Formula:
    parser = _Parser(_tokenize(text), tick_unit, aliases)
    out = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return out


def parse_formula(
    text: str,
    tick_unit: float = 1e-6,
    aliases: Optional[Mapping[str, Union[str, Formula]]] = None,
) -> Formula:
    """Parse concrete syntax into a desugared formula tree.

    ``tick_unit`` is the duration of one tick in seconds (1 microsecond by
    default); interval bounds are converted to ticks at parse time.
    ``aliases`` maps bare names to formula fragments (strings or already
    parsed formulas), as bound by a scenario configuration.
    """
    return _parse(text, tick_unit, _resolve_aliases(aliases, tick_unit))


# ---------------------------------------------------------------------------
# Printing.  format_formula(parse_formula(s)) reparses to a structurally
# identical tree; F/G sugar is re-emitted when the tree matches its exact
# desugaring, which reparses to the same tree.

_LVL_OR, _LVL_AND, _LVL_UNTIL, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 4, 5


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    if level < min_level:
        return f"({text})"
    return text


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Top):
        return "true", _LVL_ATOM
    if isinstance(f, Bottom):
        return "false", _LVL_ATOM
    if isinstance(f, Pred):
        return f"({_fmt_expr(f.fn, 0)} > 0)", _LVL_ATOM
    if isinstance(f, Not):
        inner = f.child
        if (
            isinstance(inner, Until)
            and isinstance(inner.left, Top)
            and isinstance(inner.right, Not)
        ):
            body = _fmt(inner.right.child, _LVL_UNARY)
            return f"G{inner.interval} {body}", _LVL_UNARY
        return f"!{_fmt(f.child, _LVL_UNARY)}", _LVL_UNARY
    if isinstance(f, Until):
        if isinstance(f.left, Top):
            return f"F{f.interval} {_fmt(f.right, _LVL_UNARY)}", _LVL_UNARY
        lhs = _fmt(f.left, _LVL_UNARY)
        rhs = _fmt(f.right, _LVL_UNTIL)
        return f"{lhs} U{f.interval} {rhs}", _LVL_UNTIL
    if isinstance(f, And):
        return f"{_fmt(f.left, _LVL_AND)} & {_fmt(f.right, _LVL_UNTIL)}", _LVL_AND
    if isinstance(f, Or):
        return f"{_fmt(f.left, _LVL_OR)} | {_fmt(f.right, _LVL_AND)}", _LVL_OR
    raise TypeError(f"not a formula: {f!r}")


_EXPR_ADD, _EXPR_MUL, _EXPR_NEG, _EXPR_POW, _EXPR_ATOM = 1, 2, 3, 4, 5


def _fmt_expr(e: Expr, min_level: int) -> str:
    text, level = _render_expr(e)
    if level < min_level:
        return f"({text})"
    return text


def _render_expr(e: Expr) -> tuple[str, int]:
    if isinstance(e, Var):
        return e.name, _EXPR_ATOM
    if isinstance(e, Const):
        return repr(e.value), _EXPR_ATOM if e.value >= 0 else _EXPR_NEG
    if isinstance(e, Neg):
        return f"-{_fmt_expr(e.child, _EXPR_NEG)}", _EXPR_NEG
    if isinstance(e, Pow):
        return f"{_fmt_expr(e.base, _EXPR_ATOM)}^{e.exponent}", _EXPR_POW
    if isinstance(e, BinOp):
        if e.op == "*":
            return f"{_fmt_expr(e.left, _EXPR_MUL)} * {_fmt_expr(e.right, _EXPR_NEG)}", _EXPR_MUL
        return f"{_fmt_expr(e.left, _EXPR_ADD)} {e.op} {_fmt_expr(e.right, _EXPR_MUL)}", _EXPR_ADD
    raise TypeError(f"not an expression: {e!r}")
