"""Recursive-descent parser for coefficient expressions.

Grammar, by increasing binding power:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-'* power
    power  := atom ('^' '-'* atom)*      exponent must fold to a rational
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Binary operators of equal precedence associate to the left.  A number, and
an exponent once folded, must be a finite double; so must the value of a
power or function call without variables, as the evaluator computes it
(``10^400`` and ``exp(1000)`` are rejected), though such a subtree stays
unfolded in the tree; each is evaluated once, over its operand's value.
Variables are named u1..un, with r1..rn accepted as aliases; pi and e denote
the usual constants; function names are exp, ln, sin, cos, sqrt.

Input nested past :data:`MAX_NESTING` levels is rejected: no more
parentheses may be open at once (a call's included), and no expression tree
may be deeper, each operator, sign, power or call one level over its
operands (``1+1+...+u1`` with k plus signs is k levels deep).  Within the
bound the parser, the tape compiler and the checks stay well inside Python's
default recursion limit.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import ParseError
from .exprs import (_FOLD, FUNCTIONS, BinOp, Call, Const, Expr, NamedConst, Neg, Power, Var,
                    compile_tape, eval_tape)

MAX_NESTING = 100  # open parentheses, and levels of an expression tree

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERANDS = {BinOp: ("left", "right"), Power: ("base",), Neg: ("arg",), Call: ("arg",)}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = depth = 0  # depth: parentheses open
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        for kind in ("number", "ident", "op"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        depth += (tokens[-1].text == "(") - (tokens[-1].text == ")")
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tokens[-1].pos)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int, length: int):
        self.tokens = tokens
        self.n = n
        self.i = 0
        self.length = length
        self.folding = 0  # depth of exponents being parsed, which fold exactly
        # id(node) -> (node, tree depth, constant tree or None with a variable)
        # of every node built, the node kept alive
        self.records: dict = {}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, text: str):
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {text!r}, found end of input", self.length)
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    # precedence levels, loosest first
    def expr(self, ops: str = "+-") -> Expr:
        """A left-associative chain of the binary operators ``ops``: an expr
        of terms for "+-", a term of signed powers for "*/"."""
        operand = self.unary if ops == "*/" else functools.partial(self.expr, "*/")
        node = operand()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in ops:
            self.next()
            node = self.build(BinOp(tok.text, node, operand()), tok.pos)
        return node

    def unary(self, operand=None) -> Expr:
        """Signs, each negating what follows, then ``operand()`` (a power)."""
        signs = []
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text == "-":
            signs.append(self.next().pos)
        node = (operand or self.power)()
        for pos in reversed(signs):
            node = self.build(Neg(node), pos)
        return node

    def power(self) -> Expr:
        tok = self.peek()
        start = tok.pos if tok is not None else self.length
        node = self.atom()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text == "^":
            self.next()
            at = self.peek().pos if self.peek() is not None else self.length
            self.folding += 1
            # a signed atom: chained '^' is handled by this loop, keeping
            # equal-precedence operators left-associative
            exponent = _finite(_fold_rational(self.unary(self.atom), at), "exponent", at)
            self.folding -= 1
            node = self.build(Power(node, exponent), start)
        return node

    def build(self, node: Expr, pos: int) -> Expr:
        """``node``, recorded with its tree depth and, without a variable, its
        constant tree: the node over its operands' constant trees, a power or
        call evaluated to a constant leaf on a tape of that, once.  ParseError
        where the tree gets deeper than MAX_NESTING, and where a power or call
        has no variable and its value is not a finite double, unless it is
        part of an exponent."""
        operands = {k: self.records[id(getattr(node, k))] for k in _OPERANDS.get(type(node), ())}
        depth = max((r[1] + 1 for r in operands.values()), default=0)
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        constants, constant = {k: r[2] for k, r in operands.items()}, None
        if not isinstance(node, Var) and None not in constants.values():
            constant = replace(node, **constants) if constants else node
            if isinstance(node, (Power, Call)):
                value = float(eval_tape(compile_tape(constant, 1, 0), [[0.0]]).vals[0])
                if not self.folding and not math.isfinite(value):
                    raise ParseError(f"constant {node} is not a finite double", pos)
                constant = NamedConst(str(value), value)
        self.records[id(node)] = (node, depth, constant)
        return node

    def atom(self) -> Expr:
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        if tok.kind == "number":
            return self.build(Const(_finite(Fraction(tok.text), f"number {tok.text}", tok.pos)),
                              tok.pos)
        if tok.kind == "ident":
            return self.ident(tok)
        if tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def ident(self, tok) -> Expr:
        name = tok.text
        if name in FUNCTIONS:
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return self.build(Call(name, arg), tok.pos)
        if name in _CONSTANTS:
            return self.build(NamedConst(name, _CONSTANTS[name]), tok.pos)
        m = re.fullmatch(r"[ur](\d+)", name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable {name!r} out of range for dimension {self.n}", tok.pos
                )
            return self.build(Var(index - 1), tok.pos)
        raise ParseError(f"unknown identifier {name!r}", tok.pos)


def _fold_rational(e: Expr, pos: int) -> Fraction:
    """Constant-fold an exponent subtree to an exact rational."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        return -_fold_rational(e.arg, pos)
    if isinstance(e, BinOp):
        left = _fold_rational(e.left, pos)
        right = _fold_rational(e.right, pos)
        if e.op in _FOLD:
            return _FOLD[e.op](left, right)
        if right == 0:
            raise ParseError("division by zero in exponent", pos)
        return left / right
    if isinstance(e, Power) and e.exponent.denominator == 1:
        base = _fold_rational(e.base, pos)
        if base == 0 and e.exponent < 0:
            raise ParseError("division by zero in exponent", pos)
        if abs(e.exponent) * max(abs(base.numerator), base.denominator).bit_length() > 1 << 16:
            raise ParseError("exponent too large to fold", pos)  # far past any double
        return base ** int(e.exponent)
    raise ParseError("exponent must be a constant rational", pos)


def _finite(value: Fraction, what: str, pos: int) -> Fraction:
    """``value``; ParseError unless it is a finite double."""
    if abs(value) > sys.float_info.max:
        raise ParseError(f"{what} is not a finite double", pos)
    return value


def parse_expr(text: str, n: int) -> Expr:
    """Parse expression text over variables u1..un (aliases r1..rn)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    tokens = _tokenize(text)
    parser = _Parser(tokens, n, len(text))
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node
