"""Truncated multivariate Taylor arithmetic, in one implementation.

Coefficients are stored densely in graded lexicographic order over the
multi-indices of total degree <= order.  The entry for a multi-index m is
Taylor-normalised, d^m f / m!, which makes multiplication a plain truncated
convolution; the derivative accessors rescale by m! on the way out.
Arithmetic and elementary functions propagate those coefficients exactly
through the truncation order (forward-mode Taylor propagation, Griewank &
Walther, Evaluating Derivatives, ch. 13): no step sizes, no cancellation
error beyond ordinary rounding.

The kernels (``_mul``, ``_binary``, ``_unary``, ``_compose``) act on
coefficient arrays of shape (ncoef, ...), elementwise along any trailing lane
axis, and flag the lanes that leave a function's domain instead of raising;
``_domain_reason`` words the error.  ``_mul`` sums each coefficient of a
truncated product as its first term plus the sequential sum of the others,
t0 + ((t1 + t2) + ...), with one slice add per rank of terms
(:func:`product_scatter`): the association np.add.reduceat gives a segment
of at most 8 terms, the most a coefficient has at order <= 3.  The batched
tapes of :mod:`hydroham.exprs` run the kernels over many points at once.  A
:class:`Jet` is a one-lane view: it holds one coefficient row (ncoef,), runs
the same kernels on it and raises :class:`JetDomainError` where they flag
the lane, so its numbers are bit for bit those of a tape lane.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

import numpy as np

MAX_ORDER = 3


class JetDomainError(ValueError):
    """A jet operation left its domain (log of non-positive value, ...)."""


@lru_cache(maxsize=None)
def multi_indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices over n variables with total degree <= order,
    graded lexicographic."""
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):
        out.extend(_degree_tuples(total, n))
    return tuple(out)


def _degree_tuples(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _degree_tuples(total - first, n - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _position(n: int, order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(multi_indices(n, order))}


@lru_cache(maxsize=None)
def _product_table(n: int, order: int):
    """Index arrays (i, j, k) with index_k = index_i + index_j, deg <= order,
    ready for vectorized accumulation."""
    idx = multi_indices(n, order)
    pos = _position(n, order)
    table = []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if sum(a) + sum(b) <= order:
                c = tuple(x + y for x, y in zip(a, b))
                table.append((i, j, pos[c]))
    ii = np.array([t[0] for t in table])
    jj = np.array([t[1] for t in table])
    kk = np.array([t[2] for t in table])
    return ii, jj, kk


@lru_cache(maxsize=None)
def product_scatter(n: int, order: int):
    """The product table of :func:`_product_table` laid out by rank, for
    :func:`_mul`, as (ii, jj, ranks, back).

    Output k's terms a[i] * b[j] are taken in the order of the table, and
    outputs are ranked by their number of terms, most first (ties in
    graded order).  Block r of ``ii``, ``jj`` holds the r-th term of every
    output that has one, in ranked order, so block r covers the first
    ``ranks[r]`` ranked outputs; ``back`` is the position of each output,
    in graded order, in block 0.  Output k is summed as np.add.reduceat
    sums a segment, its first term plus the sequential sum of the rest:
    t0 + ((t1 + t2) + ...)."""
    ii, jj, kk = _product_table(n, order)
    terms = [np.flatnonzero(kk == k) for k in range(kk.max() + 1)]  # per output, in table order
    ranked = sorted(range(len(terms)), key=lambda k: -len(terms[k]))  # stable
    blocks = [[terms[k][r] for k in ranked if len(terms[k]) > r]
              for r in range(len(terms[ranked[0]]))]
    flat = np.array([t for block in blocks for t in block])
    return ii[flat], jj[flat], tuple(len(b) for b in blocks), np.argsort(ranked)


@lru_cache(maxsize=None)
def partial_map(n: int, order: int, k: int):
    """(positions, factors) such that ``coeffs[positions] * factors`` are the
    coefficients of d_k f at ``order - 1`` from those of f at ``order``,
    as in :meth:`Jet.partial`."""
    pos_in = _position(n, order)
    positions, factors = [], []
    for m in multi_indices(n, order - 1):
        positions.append(pos_in[tuple(v + 1 if a == k else v for a, v in enumerate(m))])
        factors.append(float(m[k] + 1))
    return np.array(positions), np.array(factors)


@lru_cache(maxsize=None)
def derivative_positions(n: int, order: int):
    """Positions of the first derivatives (n,) and, for order >= 2, of the
    second derivatives (n, n) among the coefficients, with the factorial
    factors (n, n) that turn the latter into Hessian entries."""
    pos = _position(n, order)
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    first = np.array([pos[u] for u in unit])
    if order < 2:
        return first, None, None
    second = np.array([[pos[tuple(a + b for a, b in zip(unit[i], unit[j]))]
                        for j in range(n)] for i in range(n)])
    return first, second, np.where(np.eye(n, dtype=bool), 2.0, 1.0)


# -- kernels: coefficient arrays, lane axis last ------------------------------------


def _mul(a, b, scatter):
    if scatter is None:
        return a * b
    ii, jj, ranks, back = scatter
    terms = a.take(ii, 0) * b.take(jj, 0)  # ndarray.take: less call overhead than a[ii]
    ncoef, rest = ranks[:2]
    start = ncoef + rest
    for size in ranks[2:]:  # the rest of each output, summed into its second term
        terms[ncoef:ncoef + size] += terms[start:start + size]
        start += size
    terms[:rest] += terms[ncoef:ncoef + rest]
    return terms.take(back, 0)


def _binary(op, a, b, order, scatter, full):
    """(result, failing lanes or None, operand named in the error message)."""
    a_const, b_const = isinstance(a, float), isinstance(b, float)
    if op == "+":
        if a_const or b_const:
            x, c = (b, a) if a_const else (a, b)
            out = x.copy()
            out[0] = out[0] + c
            return out, None, None
        return a + b, None, None
    if op == "-":
        if b_const:
            out = a.copy()
            out[0] = out[0] - b
            return out, None, None
        if a_const:
            out = -b
            out[0] = out[0] + a
            return out, None, None
        return a - b, None, None
    if op == "*":
        if a_const or b_const:
            return a * b, None, None
        return _mul(a, b, scatter), None, None
    b = full(b)
    if order == 0:
        return a / b, b[0] == 0.0, b[0]
    recip, bad = _unary("pow", Fraction(-1), b, order, scatter)
    return _mul(full(a), recip, scatter), bad, b[0]


def _unary(op, param, x, order, scatter):
    """(result, failing lanes or None) of a function applied to x."""
    v = x[0]
    if op == "pow" and param.denominator == 1:
        e = int(param)
        if e == 0:  # the jet of 1 at every lane, an array like every other result
            return np.eye(len(x), 1).repeat(x.shape[1], 1), None
        if order == 0:
            out = v ** e
            bad = np.isinf(out) & np.isfinite(v)
            if e < 0:
                bad |= v == 0.0
            return out[None], bad
        out = x  # square-and-multiply, left to right: x*x, then *x, for |e| = 3
        for bit in bin(abs(e))[3:]:
            out = _mul(out, out, scatter)
            if bit == "1":
                out = _mul(out, x, scatter)
        if e > 0:
            return out, None
        w = out[0]
        derivs, fac = [], 1.0
        for k in range(order + 1):
            derivs.append(fac / w ** (k + 1))
            fac *= -(k + 1)
        return _compose(out, derivs, scatter), w == 0.0
    if order == 0:
        if op == "exp":
            out = np.exp(v)
            return out[None], np.isinf(out) & ~np.isinf(v)
        if op == "ln":
            return np.log(v)[None], v <= 0.0
        if op == "sqrt":
            return np.sqrt(v)[None], v < 0.0
        if op == "sin":
            return np.sin(v)[None], None
        if op == "cos":
            return np.cos(v)[None], None
        out = np.power(v, float(param))
        bad = (v < 0.0) | ((v == 0.0) & (param < 0)) | (np.isinf(out) & np.isfinite(v))
        return out[None], bad
    bad = None
    if op == "exp":
        e = np.exp(v)
        derivs, bad = [e] * (order + 1), np.isinf(e) & ~np.isinf(v)
    elif op == "ln":
        derivs, fac = [np.log(v)], 1.0
        for k in range(1, order + 1):
            derivs.append(fac / v ** k)
            fac *= -k
        bad = v <= 0.0
    elif op in ("sin", "cos"):
        s, c = np.sin(v), np.cos(v)
        cycle = [s, c, -s, -c] if op == "sin" else [c, -s, -c, s]
        derivs = [cycle[k % 4] for k in range(order + 1)]
    else:  # sqrt, or a fractional power
        q = 0.5 if op == "sqrt" else float(param)
        derivs, fac = [], 1.0
        for k in range(order + 1):
            derivs.append(fac * np.power(v, q - k))
            fac *= q - k
        bad = v <= 0.0
    return _compose(x, derivs, scatter), bad


def _compose(x, derivs, scatter):
    """A univariate function, given by its per-lane derivatives at the value,
    applied to x: Horner over delta = x - value, exact through the truncation
    order because delta has no constant term."""
    top = len(derivs) - 1
    delta = x.copy()
    delta[0] = 0.0
    acc = delta * (derivs[top] / math.factorial(top))
    acc[0] = acc[0] + derivs[top - 1] / math.factorial(top - 1)
    for k in range(top - 2, -1, -1):
        acc = _mul(acc, delta, scatter)
        acc[0] = acc[0] + derivs[k] / math.factorial(k)
    return acc


def _domain_reason(op: str, param, v: float, order: int) -> str:
    if op == "exp":
        return "overflow in exp"
    if order > 0:
        if op == "ln":
            return f"log of non-positive value {v!r}"
        if op == "sqrt" or (op == "pow" and param.denominator != 1):
            return f"fractional power of non-positive base {v!r}"
        return "division by a jet with zero value"
    if op == "/":
        return "division by zero"
    if op == "ln":
        return f"ln of non-positive value {v!r}"
    if op == "sqrt":
        return f"sqrt of negative value {v!r}"
    if v < 0.0 and param.denominator != 1:
        return f"negative base {v!r} with fractional exponent"
    if v == 0.0 and param < 0:
        return "zero base with negative exponent"
    return "overflow in power"


def _check_order(order: int, lowest: int = 1):
    if not lowest <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in {lowest}..{MAX_ORDER}, got {order}")


class Jet:
    """Taylor expansion of a scalar function of n variables at a point."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n: int, order: int, coeffs: np.ndarray):
        _check_order(order)
        self.n = n
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value: float, n: int, order: int) -> "Jet":
        c = np.zeros(len(multi_indices(n, order)))
        c[0] = value
        return cls(n, order, c)

    @classmethod
    def variable(cls, index: int, value: float, n: int, order: int) -> "Jet":
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        jet = cls.constant(value, n, order)
        jet.coeffs[1 + index] = 1.0  # graded order: the unit multi-indices follow the constant
        return jet

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def derivative(self, multi: tuple[int, ...]) -> float:
        """Mixed partial derivative d^multi f at the base point."""
        if len(multi) != self.n or sum(multi) > self.order:
            raise ValueError(f"bad multi-index {multi} for n={self.n}, order={self.order}")
        factorial = math.prod(math.factorial(k) for k in multi)
        return float(self.coeffs[_position(self.n, self.order)[multi]]) * factorial

    def gradient(self) -> np.ndarray:
        first, _, _ = derivative_positions(self.n, self.order)
        return self.coeffs[first]

    def hessian(self) -> np.ndarray:
        if self.order < 2:
            raise ValueError("hessian requires order >= 2")
        _, second, fact = derivative_positions(self.n, self.order)
        return self.coeffs[second] * fact

    def partial(self, k: int) -> "Jet":
        """The jet of d_k f, one order lower than self."""
        if self.order < 2:
            raise ValueError("partial requires order >= 2")
        if not 0 <= k < self.n:
            raise ValueError(f"variable index {k} out of range for n={self.n}")
        positions, factors = partial_map(self.n, self.order, k)
        return Jet(self.n, self.order - 1, self.coeffs[positions] * factors)

    # -- arithmetic: each operation runs a kernel on the coefficients as a
    # one-lane column (ncoef, 1), the layout of a tape lane, so every sum runs
    # in the same order as there.

    def _full(self, x):
        if isinstance(x, float):
            return Jet.constant(x, self.n, self.order).coeffs[:, None]
        return x

    def _result(self, out, bad, op, param, operand) -> "Jet":
        if bad is not None and bad[0]:
            raise JetDomainError(_domain_reason(op, param, float(operand[0]), self.order))
        return Jet(self.n, self.order, self._full(out)[:, 0])

    def _lane_binary(self, op: str, other, reflected: bool = False):
        if isinstance(other, Jet):
            if other.n != self.n or other.order != self.order:
                raise ValueError("jet shape mismatch")
            b = other.coeffs[:, None]
        elif isinstance(other, (int, float, Fraction, np.floating)):
            b = float(other)
        else:
            return NotImplemented
        a = self.coeffs[:, None]
        if reflected:
            a, b = b, a
        with np.errstate(all="ignore"):
            out, bad, operand = _binary(op, a, b, self.order,
                                        product_scatter(self.n, self.order), self._full)
        return self._result(out, bad, op, None, operand)

    def _lane_unary(self, op: str, param=None) -> "Jet":
        x = self.coeffs[:, None]
        with np.errstate(all="ignore"):
            out, bad = _unary(op, param, x, self.order, product_scatter(self.n, self.order))
        return self._result(out, bad, op, param, x[0])

    def __add__(self, other):
        return self._lane_binary("+", other)

    def __radd__(self, other):
        return self._lane_binary("+", other, reflected=True)

    def __sub__(self, other):
        return self._lane_binary("-", other)

    def __rsub__(self, other):
        return self._lane_binary("-", other, reflected=True)

    def __neg__(self):
        return Jet(self.n, self.order, -self.coeffs)

    def __mul__(self, other):
        return self._lane_binary("*", other)

    def __rmul__(self, other):
        return self._lane_binary("*", other, reflected=True)

    def __truediv__(self, other):
        return self._lane_binary("/", other)

    def __rtruediv__(self, other):
        return self._lane_binary("/", other, reflected=True)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            exponent = Fraction(int(exponent))
        if not isinstance(exponent, Fraction):
            raise TypeError(f"jet exponent must be int or Fraction, got {type(exponent)}")
        return self._lane_unary("pow", exponent)

    def exp(self) -> "Jet":
        return self._lane_unary("exp")

    def log(self) -> "Jet":
        return self._lane_unary("ln")

    def sqrt(self) -> "Jet":
        return self._lane_unary("sqrt")

    def sin(self) -> "Jet":
        return self._lane_unary("sin")

    def cos(self) -> "Jet":
        return self._lane_unary("cos")

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"
