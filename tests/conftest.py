"""Shared test helpers: an independent extended-precision evaluator used as
the finite-difference oracle, a smooth expression corpus, and a seeded
random expression generator.  The recursive double-precision evaluator the
tapes are compared against lives in ``oracle.py``."""

from __future__ import annotations

import numpy as np
import pytest

from hydroham.exprs import (
    BinOp,
    Call,
    Const,
    Deriv,
    Expr,
    NamedConst,
    Neg,
    Power,
    Var,
    const,
    cos,
    exp,
    sin,
    variables,
)

LD = np.longdouble


def eval_longdouble(e: Expr, point) -> np.longdouble:
    """Recursive evaluator over numpy extended precision.

    Deliberately independent of the package's evaluation path: it shares no
    code with the tapes, the jet kernels or ``oracle``, so it can serve as an
    oracle for all of them.
    """
    pt = [LD(x) for x in point]

    def rec(node):
        if isinstance(node, Const):
            return LD(node.value.numerator) / LD(node.value.denominator)
        if isinstance(node, NamedConst):
            return LD(node.value)
        if isinstance(node, Var):
            return pt[node.index]
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a, b = rec(node.left), rec(node.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
        if isinstance(node, Power):
            q = LD(node.exponent.numerator) / LD(node.exponent.denominator)
            base = rec(node.base)
            if node.exponent.denominator == 1:
                return base ** int(node.exponent)
            return np.power(base, q)
        if isinstance(node, Call):
            x = rec(node.arg)
            return {
                "exp": np.exp,
                "ln": np.log,
                "sin": np.sin,
                "cos": np.cos,
                "sqrt": np.sqrt,
            }[node.func](x)
        if isinstance(node, Deriv):
            raise NotImplementedError("oracle does not differentiate")
        raise TypeError(node)

    return rec(e)


# (text, dimension, per-variable box) triples; all smooth on their boxes.
SMOOTH_CORPUS = [
    ("exp(u1-u2)", 2, ((-0.7, 0.7), (-0.7, 0.7))),
    ("u1*u2 + u2^3", 2, ((-1, 1), (-1, 1))),
    ("sin(u1)*cos(u2)", 2, ((-1, 1), (-1, 1))),
    ("ln(1+u1^2)", 1, ((-1, 1),)),
    ("sqrt(u1+2)", 1, ((-1, 1),)),
    ("1/(2+u1*u2)", 2, ((-1, 1), (-1, 1))),
    ("exp(u1)*sin(u2) - u3^2/2", 3, ((-1, 1), (-1, 1), (-1, 1))),
    ("(u1+u2+1)*exp(u1-u2)", 2, ((-0.7, 0.7), (-0.7, 0.7))),
    ("cos(u1^2 - u2)", 2, ((-1, 1), (-1, 1))),
    ("ln(u3+2)/(1+u1^2)", 3, ((-1, 1), (-1, 1), (-1, 1))),
    ("u1^(1/2)", 1, ((0.1, 1),)),
    ("pi*u1^2 + e*u2", 2, ((-1, 1), (-1, 1))),
    ("exp(-(u1^2+u2^2)/2)", 2, ((-1, 1), (-1, 1))),
    ("u1^3 - 2*u1^2*u2 + u2^2", 2, ((-1, 1), (-1, 1))),
]


def random_smooth_expr(rng: np.random.Generator, n: int, depth: int = 3) -> Expr:
    """Seeded generator of expressions that stay bounded and smooth on
    [-1, 1]^n (divisions keep denominators away from zero, exponents small)."""
    u = variables(n)
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return u[rng.integers(n)]
        return const(int(rng.integers(-3, 4)))
    pick = rng.random()
    a = random_smooth_expr(rng, n, depth - 1)
    if pick < 0.25:
        return a + random_smooth_expr(rng, n, depth - 1)
    if pick < 0.45:
        return a - random_smooth_expr(rng, n, depth - 1)
    if pick < 0.65:
        return a * random_smooth_expr(rng, n, depth - 1)
    if pick < 0.75:
        return a / (const(2) + u[rng.integers(n)] ** 2)
    if pick < 0.85:
        return exp(const(0.4) * u[rng.integers(n)])
    if pick < 0.95:
        return sin(a) if rng.random() < 0.5 else cos(a)
    return a ** 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
