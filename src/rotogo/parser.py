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

The grammar's one ambiguity, "(" predicate ")" against "(" formula ")",
is settled from the tokens before parsing: a comparison always sits
directly inside its predicate's own parentheses, so a `(` that directly
holds a comparison opens a predicate, and any other `(` opens a grouped
formula (or, inside a predicate, a subexpression).  Each token is read
once, and an error points at the token that is wrong.  An alias text is a
formula or one bare predicate (`x > 0`, without the parentheses); an error
in it names the alias and points into the alias's own text.

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
from typing import Callable, Collection, Mapping, Optional, Union

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
    STATE_COMPONENTS,
    TICKS_PER_SECOND,
    TOP,
    BOTTOM,
    Top,
    Until,
    Var,
    eventually,
    always,
    implies,
    to_ticks,
)

_RESERVED = frozenset({"U", "F", "G", "true", "false", "inf"})

_COMPARISONS = ("<", ">", "<=", ">=")

#: How deeply a formula may nest, in its text and as a tree (module docstring).
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


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


def _predicate_opens(tokens: list[_Token]) -> set[int]:
    """The indices of the `(` tokens that directly hold a comparison, and -1
    when a comparison stands outside every parenthesis.

    An interval's round bracket may push or pop a stale entry, but the `(`
    of a predicate is pushed just before its comparison is read, with only
    balanced subexpressions between, so it is on top when that happens.
    """
    opens = set()
    stack = [-1]
    for i, tok in enumerate(tokens):
        if tok.text == "(":
            stack.append(i)
        elif tok.text == ")" and len(stack) > 1:
            stack.pop()
        elif tok.text in _COMPARISONS:
            opens.add(stack[-1])
    return opens


class _Parser:
    def __init__(self, text: str, aliases: Collection[str], resolve: Callable[[str], Formula]):
        self.tokens = _tokenize(text)
        self.predicates = _predicate_opens(self.tokens)
        self.pos = 0
        self.aliases = aliases
        self.resolve = resolve
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
            raise self.too_deep(tok)
        self.open += 1
        try:
            yield
        finally:
            self.open -= 1

    def built(self, node, tok: _Token):
        """``node``, built at ``tok``, unless its tree is too deep."""
        if self.depth(node) > MAX_NESTING:
            raise self.too_deep(tok)
        return node

    @staticmethod
    def too_deep(tok: _Token) -> ParseError:
        return ParseError(f"formula nests deeper than {MAX_NESTING} levels", tok.line, tok.column)

    def depth(self, node) -> int:
        # Nodes this parser built are looked up; only the few a desugaring
        # adds and alias formulas are walked.  The entry keeps the node
        # alive, so its id is not reused by a node built later.
        entry = self.depths.get(id(node))
        if entry is None:
            entry = (node, 1 + max(map(self.depth, _children(node)), default=0))
            self.depths[id(node)] = entry
        return entry[1]

    # -- formula grammar -------------------------------------------------

    def parse(self, bare_predicate: bool) -> Formula:
        """The whole text as a formula, or as one predicate without its
        parentheses if ``bare_predicate`` allows it and the text holds a
        comparison outside every parenthesis."""
        out = self.parse_predicate() if bare_predicate and -1 in self.predicates else self.parse_formula()
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"unexpected trailing input {tok.text!r}")
        return out

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
                return self.resolve(tok.text)
            if tok.text in STATE_COMPONENTS:
                raise self.error(f"state variable {tok.text!r} must be compared, as in ({tok.text} > 0)")
            raise self.error(f"unknown name {tok.text!r}")
        if tok.text == "(":
            with self.nested(tok):
                predicate = self.pos in self.predicates
                self.next()
                inner = self.parse_predicate() if predicate else self.parse_formula()
                self.expect(")")
            return inner
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def parse_predicate(self) -> Formula:
        lhs = self.parse_arith()
        tok = self.peek()
        if tok.text not in _COMPARISONS:
            raise self.error(f"expected a comparison, found {tok.text or 'end of input'!r}")
        self.next()
        rhs = self.parse_arith()
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
                raise self.error(f"number {tok.text} is out of range")
            self.next()
            return Const(value)
        if tok.kind == "ident":
            if tok.text in _RESERVED or tok.text in self.aliases:
                raise self.error(f"{tok.text!r} cannot appear in a predicate")
            if tok.text not in STATE_COMPONENTS:
                raise self.error(f"unknown variable name {tok.text!r}")
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
        seconds = float(tok.text)
        if not math.isfinite(seconds * TICKS_PER_SECOND):
            raise ParseError(f"time bound {tok.text} s is out of range", tok.line, tok.column)
        return to_ticks(seconds)


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


def parse_formula(text: str, *, aliases: Optional[Mapping[str, Union[str, Formula]]] = None) -> Formula:
    """Parse concrete syntax into a desugared formula tree.

    Interval bounds are seconds, converted to ticks at parse time by
    :func:`rotogo.formula.to_ticks`, as trace and scenario times are.
    ``aliases`` maps bare names to formula fragments (strings or already
    parsed formulas), as bound by a scenario configuration.
    """
    raw = aliases or {}
    for name in raw:
        # The parser reads a name as an alias only when it is one
        # identifier token and neither a keyword nor a state variable, so
        # any other alias could never be referred to.
        if not (
            isinstance(name, str)
            and (name[:1].isalpha() or name[:1] == "_")
            and all(ch.isalnum() or ch == "_" for ch in name)
        ):
            raise ValueError(f"alias {name!r} is not a name: one letter or '_', then letters, digits or '_'")
        if name in _RESERVED:
            raise ValueError(f"alias {name!r} is a reserved word")
        if name in STATE_COMPONENTS:
            raise ValueError(f"alias {name!r} shadows the state variable of that name")
    resolved: dict[str, Formula] = {}
    resolving: list[str] = []  # the aliases being read, innermost last

    def resolve(name: str) -> Formula:
        if name in resolved:
            return resolved[name]
        if name in resolving:
            raise ValueError(f"alias cycle involving {name!r}")
        resolving.append(name)
        value = raw[name]
        out = value if isinstance(value, Formula) else _Parser(value, raw, resolve).parse(bare_predicate=True)
        resolving.pop()
        resolved[name] = out
        return out

    try:
        for name in raw:
            resolve(name)
    except ParseError as exc:
        raise ParseError(f"in alias {resolving[-1]!r}: {exc.message}", exc.line, exc.column) from exc
    return _Parser(text, raw, resolve).parse(bare_predicate=False)


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
