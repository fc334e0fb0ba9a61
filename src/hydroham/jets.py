"""Truncated multivariate Taylor arithmetic.

A :class:`Jet` holds the Taylor coefficients of a smooth function at a base
point, up to a fixed total degree.  Arithmetic and elementary functions on
jets propagate those coefficients exactly through the truncation order, so a
jet is an exact forward-mode differentiation carrier: no step sizes, no
cancellation error beyond ordinary rounding.

Coefficients are stored densely in graded lexicographic order over the
multi-indices of total degree <= order.  The entry for a multi-index m is
Taylor-normalised, d^m f / m!, which makes multiplication a plain truncated
convolution; the derivative accessors rescale by m! on the way out.
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
    """The product table of :func:`_product_table` sorted by output index,
    as (ii, jj, starts): for coefficient arrays with a trailing lane axis,
    ``np.add.reduceat(a[ii] * b[jj], starts, axis=0)`` is the truncated
    product, each output summed in the same order as ``Jet.__mul__``."""
    ii, jj, kk = _product_table(n, order)
    perm = np.array(sorted(range(len(kk)), key=lambda t: kk[t]))  # stable
    starts = np.flatnonzero(np.diff(kk[perm], prepend=-1))
    return ii[perm], jj[perm], starts


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


def _multi_factorial(m: tuple[int, ...]) -> int:
    out = 1
    for k in m:
        out *= math.factorial(k)
    return out


class Jet:
    """Taylor expansion of a scalar function of n variables at a point."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n: int, order: int, coeffs: np.ndarray):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 1..{MAX_ORDER}, got {order}")
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
        c = np.zeros(len(multi_indices(n, order)))
        c[0] = value
        unit = tuple(1 if i == index else 0 for i in range(n))
        c[_position(n, order)[unit]] = 1.0
        return cls(n, order, c)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def derivative(self, multi: tuple[int, ...]) -> float:
        """Mixed partial derivative d^multi f at the base point."""
        if len(multi) != self.n or sum(multi) > self.order:
            raise ValueError(f"bad multi-index {multi} for n={self.n}, order={self.order}")
        return float(self.coeffs[_position(self.n, self.order)[multi]]) * _multi_factorial(multi)

    def gradient(self) -> np.ndarray:
        g = np.empty(self.n)
        for i in range(self.n):
            g[i] = self.derivative(tuple(1 if j == i else 0 for j in range(self.n)))
        return g

    def hessian(self) -> np.ndarray:
        if self.order < 2:
            raise ValueError("hessian requires order >= 2")
        h = np.empty((self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                m = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(self.n))
                h[i, j] = h[j, i] = self.derivative(m)
        return h

    def partial(self, k: int) -> "Jet":
        """The jet of d_k f, one order lower than self."""
        if self.order < 2:
            raise ValueError("partial requires order >= 2")
        if not 0 <= k < self.n:
            raise ValueError(f"variable index {k} out of range for n={self.n}")
        out_idx = multi_indices(self.n, self.order - 1)
        pos_in = _position(self.n, self.order)
        out = np.empty(len(out_idx))
        for i, m in enumerate(out_idx):
            shifted = tuple(v + 1 if a == k else v for a, v in enumerate(m))
            out[i] = self.coeffs[pos_in[shifted]] * (m[k] + 1)
        return Jet(self.n, self.order - 1, out)

    # -- ring operations ----------------------------------------------------

    def _like(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.n, self.order, coeffs)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.n != self.n or other.order != self.order:
                raise ValueError("jet shape mismatch")
            return other
        if isinstance(other, (int, float, Fraction, np.floating)):
            return Jet.constant(float(other), self.n, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._like(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._like(self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, np.floating)):
            return self._like(self.coeffs * float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ii, jj, kk = _product_table(self.n, self.order)
        out = np.zeros_like(self.coeffs)
        np.add.at(out, kk, self.coeffs[ii] * o.coeffs[jj])
        return self._like(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        if isinstance(exponent, (int, np.integer)):
            return self._int_pow(int(exponent))
        if isinstance(exponent, Fraction):
            v = self.value
            if v <= 0.0:
                raise JetDomainError(
                    f"fractional power of non-positive base {v!r}"
                )
            q = float(exponent)
            derivs, fac = [], 1.0
            for k in range(self.order + 1):
                derivs.append(fac * math.pow(v, q - k))
                fac *= q - k
            return self._compose(derivs)
        raise TypeError(f"jet exponent must be int or Fraction, got {type(exponent)}")

    def _int_pow(self, e: int) -> "Jet":
        if e < 0:
            return self._int_pow(-e)._reciprocal()
        out = Jet.constant(1.0, self.n, self.order)
        for _ in range(e):
            out = out * self
        return out

    def _reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise JetDomainError("division by a jet with zero value")
        derivs, fac = [], 1.0
        for k in range(self.order + 1):
            derivs.append(fac / v ** (k + 1))
            fac *= -(k + 1)
        return self._compose(derivs)

    # -- elementary functions -----------------------------------------------

    def _compose(self, derivs: list[float]) -> "Jet":
        """Apply a univariate function given by its derivatives at self.value.

        Horner over the perturbation delta = self - value; exact through the
        truncation order because delta has no constant term.
        """
        delta = self._like(self.coeffs.copy())
        delta.coeffs[0] = 0.0
        acc = Jet.constant(derivs[-1] / math.factorial(len(derivs) - 1), self.n, self.order)
        for k in range(len(derivs) - 2, -1, -1):
            acc = acc * delta + derivs[k] / math.factorial(k)
        return acc

    def exp(self) -> "Jet":
        try:
            e = math.exp(self.value)
        except OverflowError as err:
            raise JetDomainError("overflow in exp") from err
        return self._compose([e] * (self.order + 1))

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise JetDomainError(f"log of non-positive value {v!r}")
        derivs, fac = [math.log(v)], 1.0
        for k in range(1, self.order + 1):
            derivs.append(fac / v ** k)
            fac *= -k
        return self._compose(derivs)

    def sqrt(self) -> "Jet":
        return self ** Fraction(1, 2)

    def sin(self) -> "Jet":
        v = self.value
        cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        return self._compose([cycle[k % 4] for k in range(self.order + 1)])

    def cos(self) -> "Jet":
        v = self.value
        cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
        return self._compose([cycle[k % 4] for k in range(self.order + 1)])

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"
