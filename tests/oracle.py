"""Reference implementations the batched tape is tested against.

The recursive evaluator over plain floats (:func:`eval_scalar`) and over
:class:`Jet` values (:func:`eval_jet`), with a jet arithmetic of its own: a
truncated convolution through ``np.add.at`` and composition with univariate
functions by Horner's rule over the perturbation.  It shares no kernel with
``hydroham.jets``, only the coefficient layout (:func:`multi_indices` and the
product table), so a tape that agrees with it to roundoff, and raises the same
errors at the same points, is checked by an independent computation.

Also the lane contractions with the lane axis first (:func:`lane_einsum`),
and the tail conditions as a loop over tails and pairs of tails
(:func:`tail_residuals_by_tail`), which the package's lanes-last, fused
versions must match bit for bit; and a pencil's member as an operator of its
own trees (:func:`pencil_operator`), whose local check the pencil check,
which forms members from one pair tape, must match byte for byte.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from hydroham.errors import EvalDomainError
from hydroham.exprs import BinOp, Call, Const, Deriv, Expr, NamedConst, Neg, Power, Var, as_expr
from hydroham.geometry import ConnectionField, MetricField
from hydroham.jets import MAX_ORDER, JetDomainError, _position, _product_table, multi_indices
from hydroham.operators import LocalOperator


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


# -- recursive evaluation --------------------------------------------------------------


def _float_call(func: str, x: float, node: Expr, point) -> float:
    if func == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalDomainError("overflow in exp", str(node), point) from None
    if func == "ln":
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}", str(node), point)
        return math.log(x)
    if func == "sqrt":
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}", str(node), point)
        return math.sqrt(x)
    if func == "sin":
        return math.sin(x)
    return math.cos(x)


def _float_pow(base: float, q: Fraction, node: Expr, point) -> float:
    if q.denominator == 1:
        e = int(q)
        if base == 0.0 and e < 0:
            raise EvalDomainError("zero base with negative exponent", str(node), point)
        try:
            return float(base ** e)
        except OverflowError:
            raise EvalDomainError("overflow in power", str(node), point) from None
    if base < 0.0:
        raise EvalDomainError(
            f"negative base {base!r} with fractional exponent", str(node), point
        )
    if base == 0.0 and q < 0:
        raise EvalDomainError("zero base with negative exponent", str(node), point)
    try:
        return math.pow(base, float(q))
    except (OverflowError, ValueError):
        raise EvalDomainError("overflow in power", str(node), point) from None


def _eval(node: Expr, carriers, point, is_jet: bool):
    if isinstance(node, Const):
        v = float(node.value)
        return Jet.constant(v, carriers[0].n, carriers[0].order) if is_jet else v
    if isinstance(node, NamedConst):
        return Jet.constant(node.value, carriers[0].n, carriers[0].order) if is_jet else node.value
    if isinstance(node, Var):
        if node.index >= len(carriers):
            raise ValueError(
                f"variable u{node.index + 1} out of range for dimension {len(carriers)}"
            )
        return carriers[node.index]
    if isinstance(node, Neg):
        return -_eval(node.arg, carriers, point, is_jet)
    if isinstance(node, BinOp):
        left = _eval(node.left, carriers, point, is_jet)
        right = _eval(node.right, carriers, point, is_jet)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        # division
        if is_jet:
            try:
                return left / right
            except JetDomainError as err:
                raise EvalDomainError(str(err), str(node), point) from None
        if right == 0.0:
            raise EvalDomainError("division by zero", str(node), point)
        return left / right
    if isinstance(node, Power):
        base = _eval(node.base, carriers, point, is_jet)
        if is_jet:
            try:
                return base ** node.exponent
            except JetDomainError as err:
                raise EvalDomainError(str(err), str(node), point) from None
        return _float_pow(base, node.exponent, node, point)
    if isinstance(node, Call):
        arg = _eval(node.arg, carriers, point, is_jet)
        if is_jet:
            try:
                return getattr(arg, "log" if node.func == "ln" else node.func)()
            except JetDomainError as err:
                raise EvalDomainError(str(err), str(node), point) from None
        return _float_call(node.func, arg, node, point)
    if isinstance(node, Deriv):
        if is_jet:
            inner = eval_jet(node.arg, point, carriers[0].order + 1)
            return inner.partial(node.index)
        return eval_jet(node.arg, point, 1).gradient()[node.index]
    raise TypeError(f"not an expression node: {node!r}")


def eval_scalar(e: Expr, point) -> float:
    """IEEE double value of e at the point."""
    pt = [float(x) for x in point]
    return _eval(e, pt, pt, False)


def eval_jet(e: Expr, point, order: int = 2) -> Jet:
    """All mixed partials of e at the point up to total degree ``order``,
    propagated through the tree by jet arithmetic (no finite differencing)."""
    pt = [float(x) for x in point]
    n = len(pt)
    carriers = [Jet.variable(i, pt[i], n, order) for i in range(n)]
    return _eval(e, carriers, pt, True)


# -- lane contractions, lane axis first -------------------------------------------------


def lane_einsum(spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec)`` lane by lane along a leading lane axis of every
    operand: each output entry a sequential sum over the contracted indices
    in lexicographic order, each term a left-to-right product."""
    inputs, out = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for sub, op in zip(inputs, operands):
        sizes.update(zip(sub, op.shape[1:]))
    summed = sorted(set("".join(inputs)) - set(out))
    views, picks = [], []
    for sub, op in zip(inputs, operands):
        own = [c for c in summed if c in sub]
        views.append(np.transpose(op, [0] + [1 + sub.index(c) for c in own]
                                  + [1 + sub.index(c) for c in out if c in sub]))
        picks.append(([summed.index(c) for c in own],
                      tuple(slice(None) if c in sub else None for c in out)))
    total = None
    for combo in itertools.product(*(range(sizes[c]) for c in summed)):
        term = None
        for view, (own, expand) in zip(views, picks):
            x = view[(slice(None),) + tuple(combo[k] for k in own) + expand]
            term = x if term is None else term * x
        total = term.copy() if total is None else total + term
    return total


def lane_max(x: np.ndarray) -> np.ndarray:
    """max |x| over everything but the leading lane axis."""
    return np.max(np.abs(x).reshape(len(x), -1), axis=1)


def keep_worst(worst, raw, scale):
    """Per lane, replace the kept (raw, scale) where raw is at least as
    large (or NaN, which must reach the verdict)."""
    take = (raw >= worst[0]) | np.isnan(raw)
    return np.where(take, raw, worst[0]), np.where(take, scale, worst[1])


def tail_residuals_by_tail(g_lo, gamma, riemann_up, dgamma, tails, w_vals, w_d1):
    """The tail conditions t1-t4 one tail (or pair) at a time, lane axis
    first: frame arrays (lanes, ...), tail values (lanes, tails, n, n) and
    first derivatives (lanes, n, tails, n, n) of the tails' order-1 jets."""
    lanes, n = len(g_lo), g_lo.shape[-1]
    out = {}
    worst = (np.zeros(lanes), np.ones(lanes))
    for a in range(len(tails)):
        gw = lane_einsum("ik,kj->ij", g_lo, w_vals[:, a])
        worst = keep_worst(worst, lane_max(gw - np.swapaxes(gw, 1, 2)), lane_max(gw))
    out["t1_pairing_symmetric"] = worst
    worst = (np.zeros(lanes), np.ones(lanes))
    for a in range(len(tails)):
        vals = w_vals[:, a]
        nabla = (w_d1[:, :, a] + lane_einsum("isk,sj->kij", gamma, vals)
                 - lane_einsum("sjk,is->kij", gamma, vals))
        worst = keep_worst(worst, lane_max(nabla - lane_einsum("kij->jik", nabla)),
                           lane_max(nabla))
    out["t2_codazzi"] = worst
    tail_sum = np.zeros((lanes,) + (n,) * 4)
    for a, w in enumerate(tails):
        vals = w_vals[:, a]
        tail_sum += w.sign * (np.einsum("...il,...jk->...ijkl", vals, vals)
                              - np.einsum("...ik,...jl->...ijkl", vals, vals))
    gg = lane_einsum("jmk,msl->jskl", gamma, gamma)
    scale = np.maximum.reduce([lane_max(riemann_up), lane_max(tail_sum), lane_max(dgamma),
                               lane_max(gg)])
    out["t3_gauss"] = (lane_max(riemann_up - tail_sum), scale)
    worst = (np.zeros(lanes), np.ones(lanes))
    for x in range(len(tails)):
        for y in range(x + 1, len(tails)):
            xy = lane_einsum("ik,kj->ij", w_vals[:, x], w_vals[:, y])
            yx = lane_einsum("ik,kj->ij", w_vals[:, y], w_vals[:, x])
            worst = keep_worst(worst, lane_max(xy - yx), lane_max(xy))
    out["t4_tails_commute"] = worst
    return out


def pencil_operator(a: LocalOperator, b: LocalOperator, lam: float) -> LocalOperator:
    """The combination with metric g_a + lam g_b and connection b_a + lam b_b,
    as trees: the operator whose local check each lam's part of
    ``check_pencil_compatibility`` must be."""
    if a.dim != b.dim:
        raise ValueError("pencil requires operators of equal dimension")
    lam_e = as_expr(lam)
    n = a.dim
    g = tuple(
        tuple(a.g.entries[i][j] + lam_e * b.g.entries[i][j] for j in range(n))
        for i in range(n)
    )
    bb = tuple(
        tuple(
            tuple(a.b.entries[i][j][k] + lam_e * b.b.entries[i][j][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return LocalOperator(n, MetricField(n, g), ConnectionField(n, bb))
