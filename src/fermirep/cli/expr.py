"""Parser and evaluator for typed ladder-operator expressions.

Grammar (1-based mode indices, ' is the adjoint postfix):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | postfix
    postfix := atom "'"*
    atom    := NUMBER | 'i' | 'N' ['(' INT ')'] | 'a' '(' INT ')'
             | 'adag' '(' INT ')' | '(' expr ')'

Scalars mix freely with operators: a scalar added to an operator is
promoted to that multiple of the identity, so e.g.
"(adag(1)*a(3) + adag(3)*a(1)) * (1 - 2*N(2))" evaluates directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

from .. import fock
from ..fock import FockOperator

__all__ = [
    "ExprError",
    "OperatorExpression",
    "parse_expression",
    "to_source",
    "evaluate",
]


class ExprError(ValueError):
    """Parse or evaluation failure with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def annotate(self, source: str) -> str:
        return f"{self.message} at position {self.pos}\n  {source}\n  {' ' * self.pos}^"


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class Ladder:
    index: int
    dagger: bool


@dataclass(frozen=True)
class ModeNumber:
    index: int


@dataclass(frozen=True)
class TotalNumber:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "OperatorExpression"


@dataclass(frozen=True)
class Adjoint:
    operand: "OperatorExpression"


@dataclass(frozen=True)
class Add:
    left: "OperatorExpression"
    right: "OperatorExpression"


@dataclass(frozen=True)
class Sub:
    left: "OperatorExpression"
    right: "OperatorExpression"


@dataclass(frozen=True)
class Mul:
    left: "OperatorExpression"
    right: "OperatorExpression"


OperatorExpression = Union[
    Number, ImagUnit, Ladder, ModeNumber, TotalNumber, Neg, Adjoint, Add, Sub, Mul
]


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[+\-*()'])"
    r")"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.end() == match.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(source) - len(stripped)
            raise ExprError(f"unexpected character {source[bad_pos]!r}", bad_pos)
        if match.group("number") is not None:
            tokens.append(_Token("number", match.group("number"), match.start(1)))
        elif match.group("ident") is not None:
            tokens.append(_Token("ident", match.group("ident"), match.start(2)))
        else:
            tokens.append(_Token(match.group("punct"), match.group("punct"), match.start(3)))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# -- parser ------------------------------------------------------------------

# parentheses and unary minus nest at most this deep: each level costs the
# recursive-descent parser up to five Python frames, and 100 levels keep it
# well inside the interpreter's default limit of 1,000
_MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ExprError(f"expected {kind!r}, found {shown!r}", tok.pos)
        return self.advance()

    def parse(self) -> OperatorExpression:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> OperatorExpression:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> OperatorExpression:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> OperatorExpression:
        if self.peek().kind == "-":
            self._enter(self.advance())
            node = Neg(self.factor())
            self.depth -= 1
            return node
        return self.postfix()

    def _enter(self, tok: _Token) -> None:
        """One more level of nesting, opened by tok, refused past _MAX_NESTING."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprError(f"nesting deeper than {_MAX_NESTING} levels", tok.pos)

    def postfix(self) -> OperatorExpression:
        node = self.atom()
        while self.peek().kind == "'":
            self.advance()
            node = Adjoint(node)
        return node

    def _mode_index(self) -> int:
        self.expect("(")
        tok = self.expect("number")
        try:
            idx = int(tok.text)
        except ValueError:
            raise ExprError(f"mode index must be an integer, got {tok.text!r}", tok.pos)
        if idx < 1:
            raise ExprError(f"mode index must be positive, got {idx}", tok.pos)
        self.expect(")")
        return idx

    def atom(self) -> OperatorExpression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprError(f"number {tok.text!r} is not finite", tok.pos)
            return Number(value)
        if tok.kind == "(":
            self._enter(self.advance())
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return ImagUnit()
            if tok.text == "a":
                return Ladder(self._mode_index(), dagger=False)
            if tok.text == "adag":
                return Ladder(self._mode_index(), dagger=True)
            if tok.text == "N":
                if self.peek().kind == "(":
                    return ModeNumber(self._mode_index())
                return TotalNumber()
            raise ExprError(f"unknown name {tok.text!r}", tok.pos)
        shown = tok.text or "end of input"
        raise ExprError(f"expected a value, found {shown!r}", tok.pos)


def parse_expression(source: str) -> OperatorExpression:
    """Parse a source string into an expression tree."""
    return _Parser(source).parse()


# -- tree walk ---------------------------------------------------------------


def _children(node: OperatorExpression) -> tuple[OperatorExpression, ...]:
    if isinstance(node, (Neg, Adjoint)):
        return (node.operand,)
    if isinstance(node, (Add, Sub, Mul)):
        return (node.left, node.right)
    return ()


def _fold(node: OperatorExpression, visit: Callable[[OperatorExpression, list], Any]) -> Any:
    """visit(node, its children's results in order) for every node, children first.

    The walk keeps its own stack instead of recursing, so the left-deep
    tree of a long chain such as 1 + 1 + ... + 1, or a long run of
    adjoints, is folded at any length.
    """
    pending: list[tuple[OperatorExpression, bool]] = [(node, False)]
    results: list = []
    while pending:
        node, ready = pending.pop()
        kids = _children(node)
        if ready or not kids:
            start = len(results) - len(kids)
            results[start:] = [visit(node, results[start:])]
        else:
            pending.append((node, True))
            pending.extend((kid, False) for kid in reversed(kids))
    return results[0]


# -- pretty printer ----------------------------------------------------------

_PREC = {Add: 10, Sub: 10, Mul: 20, Neg: 30, Adjoint: 40}


def _wrap(node: OperatorExpression, text: str, min_prec: int) -> str:
    if _PREC.get(type(node), 50) < min_prec:
        return f"({text})"
    return text


def _source(node: OperatorExpression, texts: list[str]) -> str:
    """Canonical source of node, given its children's."""
    if isinstance(node, Number):
        v = node.value
        return str(int(v)) if v.is_integer() else repr(v)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, Ladder):
        return f"{'adag' if node.dagger else 'a'}({node.index})"
    if isinstance(node, ModeNumber):
        return f"N({node.index})"
    if isinstance(node, TotalNumber):
        return "N"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, texts[0], _PREC[Neg])}"
    if isinstance(node, Adjoint):
        return f"{_wrap(node.operand, texts[0], _PREC[Adjoint])}'"
    if isinstance(node, Add):
        return f"{_wrap(node.left, texts[0], 10)} + {_wrap(node.right, texts[1], 11)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, texts[0], 10)} - {_wrap(node.right, texts[1], 11)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, texts[0], 20)} * {_wrap(node.right, texts[1], 21)}"
    raise TypeError(f"not an expression node: {node!r}")


def to_source(node: OperatorExpression) -> str:
    """Canonical source form; parsing it back yields an identical tree."""
    return _fold(node, _source)


# -- evaluator ---------------------------------------------------------------

_Value = Union[complex, FockOperator]


def _check_index(idx: int, n: int) -> None:
    if idx > n:
        raise ValueError(f"mode index {idx} exceeds the declared mode count {n}")


def _promote(value: _Value, n: int) -> FockOperator:
    if isinstance(value, FockOperator):
        return value
    return value * FockOperator.identity(n)


def _value(node: OperatorExpression, args: list[_Value], n: int) -> _Value:
    """Value of node on n modes, given its children's."""
    if isinstance(node, Number):
        return complex(node.value)
    if isinstance(node, ImagUnit):
        return 1j
    if isinstance(node, Ladder):
        _check_index(node.index, n)
        return fock.creation(n, node.index) if node.dagger else fock.annihilation(n, node.index)
    if isinstance(node, ModeNumber):
        _check_index(node.index, n)
        return fock.number_operator(n, node.index)
    if isinstance(node, TotalNumber):
        return fock.total_number(n)
    if isinstance(node, Neg):
        return -args[0]
    if isinstance(node, Adjoint):
        value = args[0]
        return value.dagger() if isinstance(value, FockOperator) else value.conjugate()
    if isinstance(node, (Add, Sub)):
        left, right = args
        if isinstance(left, FockOperator) or isinstance(right, FockOperator):
            left, right = _promote(left, n), _promote(right, n)
        return left + right if isinstance(node, Add) else left - right
    if isinstance(node, Mul):
        left, right = args
        if isinstance(left, FockOperator) and isinstance(right, FockOperator):
            return left @ right
        if isinstance(left, FockOperator):
            return left * right
        if isinstance(right, FockOperator):
            return right * left
        return left * right
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: OperatorExpression, n: int) -> FockOperator:
    """Evaluate a tree to a single operator on the n-mode space.

    A purely scalar expression is returned as that multiple of the
    identity.  An operator with an inf or nan entry, from finite numbers
    that overflow, is refused with ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        op = _promote(_fold(node, lambda node, args: _value(node, args, n)), n)
    if not np.isfinite(op.mat.data).all():
        raise ValueError("the expression evaluates to an operator with a non-finite entry")
    return op
