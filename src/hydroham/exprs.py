"""Immutable expression trees over n field variables, their evaluation on
jet tapes, and randomized identity testing.

Expressions carry exact rational literals, variables u1..un, the four
arithmetic operations, powers with constant rational exponent, and the
elementary functions exp, ln, sin, cos, sqrt.  They are frozen dataclasses,
so trees compare structurally and are safe to share across threads.

There is one evaluator.  It compiles a list of expressions into a flat,
hash-consed :class:`Tape` (:func:`compile_tape`) and evaluates it at N points
at once (:func:`eval_tape`), each jet a coefficient array with a lane axis
over the points, through the kernels of :mod:`hydroham.jets`; every check
uses it, through the geometry layer's grids, the system checks, the
drift-flux residuals and :func:`fields_equal_numeric`.  :func:`eval_scalar`
(a float) and :func:`eval_jet` (a :class:`~hydroham.jets.Jet`) are its
one-lane views at a single point.  Domain violations (log of a non-positive
value, division by zero, a negative base under a fractional power) are
flagged per lane; :meth:`TapeValues.error` builds the
:class:`~hydroham.errors.EvalDomainError` of a lane, naming the offending
subtree, and the one-lane views raise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .errors import EvalDomainError
from .jets import (
    Jet,
    _binary,
    _check_order,
    _domain_reason,
    _unary,
    derivative_positions,
    multi_indices,
    partial_map,
    product_scatter,
)
from .reports import CheckReport, ConditionResult, non_finite_condition
from .sampling import SamplePlan, resolve

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")

Number = Union[int, float, Fraction]


class Expr:
    """Base node.  Subclasses are frozen dataclasses; build trees either via
    the parser or via Python operators on nodes."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return BinOp("/", as_expr(other), self)

    def __pow__(self, exponent):
        if isinstance(exponent, float):
            exponent = Fraction(exponent)
        if not isinstance(exponent, (int, Fraction)):
            raise TypeError("exponent must be a constant integer or rational")
        return Power(self, Fraction(exponent))

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class NamedConst(Expr):
    name: str
    value: float

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int  # 0-based; displayed 1-based

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be non-negative")

    def __str__(self):
        return f"u{self.index + 1}"


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Power(Expr):
    base: Expr
    exponent: Fraction

    def __str__(self):
        return f"({self.base})^({self.exponent})"


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr

    def __post_init__(self):
        if self.func not in FUNCTIONS:
            raise ValueError(f"unknown function {self.func!r}")

    def __str__(self):
        return f"{self.func}({self.arg})"


@dataclass(frozen=True, slots=True)
class Deriv(Expr):
    """Partial derivative d/du_k of a subtree, evaluated through jets.

    Used by preset builders whose coefficient functions contain derivatives
    of user-supplied functions; scalar evaluation costs one order-1 jet of
    the argument, jet evaluation one jet of order+1 (so at most one level of
    nesting is available at the default order)."""

    arg: Expr
    index: int

    def __str__(self):
        return f"d{self.index + 1}({self.arg})"


# -- construction helpers ---------------------------------------------------


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    if isinstance(x, float):
        return Const(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


def const(x: Number) -> Const:
    return Const(Fraction(x))


def variables(n: int) -> tuple[Var, ...]:
    return tuple(Var(i) for i in range(n))


def exp(e) -> Call:
    return Call("exp", as_expr(e))


def ln(e) -> Call:
    return Call("ln", as_expr(e))


def sin(e) -> Call:
    return Call("sin", as_expr(e))


def cos(e) -> Call:
    return Call("cos", as_expr(e))


def sqrt(e) -> Call:
    return Call("sqrt", as_expr(e))


def max_var_index(e: Expr) -> int:
    """Largest 0-based variable index in the tree, -1 for constant trees."""
    return max(var_indices(e), default=-1)


def var_indices(e: Expr) -> frozenset[int]:
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, BinOp):
        return var_indices(e.left) | var_indices(e.right)
    if isinstance(e, Power):
        return var_indices(e.base)
    if isinstance(e, (Neg, Call, Deriv)):
        return var_indices(e.arg)
    return frozenset()


# -- evaluation: jet tapes ------------------------------------------------------
#
# A tape is a list of expressions compiled into one flat instruction list and
# evaluated at N points at once by the kernels of hydroham.jets.  Instruction i
# writes slot i; a slot holds a Python float (a folded constant) or coefficient
# array of shape (ncoef, N) in the graded order of hydroham.jets, the lane axis
# last.  Order 0 carries values only; orders 1-3 carry Taylor coefficients.
# Structurally equal subtrees share one slot, literal zero outputs compile to
# nothing, and Deriv compiles its argument into a subtape one order higher.  A
# lane that leaves the domain is flagged at the first failing instruction in
# evaluation order (operands before the node, left before right), and keeps
# computing garbage that nothing reads.


class Tape(NamedTuple):
    n: int  # number of variables
    order: int  # 0 for values only
    code: tuple  # (op, argument slots, parameter, node) per instruction
    outputs: tuple  # slot of each compiled expression, None for a literal zero
    subtapes: tuple  # one order+1 tape per distinct Deriv argument
    frees: tuple  # per instruction, the slots it reads last (outputs excepted)

    @property
    def ncoef(self) -> int:
        return 1 if self.order == 0 else len(multi_indices(self.n, self.order))


class _TapeCompiler:
    def __init__(self, n: int, order: int):
        _check_order(order, lowest=0)
        self.n, self.order = n, order
        self.code: list = []
        self.by_key: dict = {}  # structural key -> slot
        self.by_id: dict = {}  # id(node) -> slot
        self.subtapes: list = []
        self.subtape_of: dict = {}  # id(Deriv argument) -> subtape index

    def emit(self, key, node) -> int:
        slot = self.by_key.get(key)
        if slot is None:
            slot = self.by_key[key] = len(self.code)
            op, args, param = key[0], key[1:-1], key[-1]
            self.code.append((op, args, param, node))
        return slot

    def const(self, value: float) -> int:
        return self.emit(("const", float(value)), None)

    def value(self, slot: int):
        """The folded value of a constant slot, else None."""
        op, _, param, _ = self.code[slot]
        return param if op == "const" else None

    def slot(self, node: Expr) -> int:
        hit = self.by_id.get(id(node))
        if hit is None:
            hit = self.by_id[id(node)] = self._compile(node)
        return hit

    def _compile(self, node: Expr) -> int:
        if isinstance(node, Const):
            return self.const(float(node.value))
        if isinstance(node, NamedConst):
            return self.const(node.value)
        if isinstance(node, Var):
            if node.index >= self.n:
                raise ValueError(
                    f"variable u{node.index + 1} out of range for dimension {self.n}"
                )
            return self.emit(("var", node.index), node)
        if isinstance(node, Neg):
            a = self.slot(node.arg)
            c = self.value(a)
            return self.const(-c) if c is not None else self.emit(("neg", a, None), node)
        if isinstance(node, BinOp):
            a, b = self.slot(node.left), self.slot(node.right)
            ca, cb = self.value(a), self.value(b)
            if ca is not None and cb is not None:
                if node.op == "+":
                    return self.const(ca + cb)
                if node.op == "-":
                    return self.const(ca - cb)
                if node.op == "*":
                    return self.const(ca * cb)
                if cb != 0.0:  # jets divide by multiplying with the reciprocal
                    return self.const(ca / cb if self.order == 0 else ca * (1.0 / cb))
            return self.emit((node.op, a, b, None), node)
        if isinstance(node, Power):
            return self.emit(("pow", self.slot(node.base), node.exponent), node)
        if isinstance(node, Call):
            return self.emit((node.func, self.slot(node.arg), None), node)
        if isinstance(node, Deriv):
            sub = self.subtape_of.get(id(node.arg))
            if sub is None:
                tape = compile_tape((node.arg,), self.n, self.order + 1)
                out = tape.outputs[0]
                if out is None or tape.code[out][0] == "const":
                    return self.const(0.0)
                sub = self.subtape_of[id(node.arg)] = len(self.subtapes)
                self.subtapes.append(tape)
            return self.emit(("deriv", sub, node.index), node)
        raise TypeError(f"not an expression node: {node!r}")


def compile_tape(exprs, n: int, order: int) -> Tape:
    """Compile expressions over n variables into one tape of the given order
    (0 for values only, else Taylor coefficients through that degree)."""
    comp = _TapeCompiler(n, order)
    outputs = tuple(
        None if isinstance(e, Const) and e.value == 0 else comp.slot(e) for e in exprs
    )
    last_read = {}
    for i, (op, args, _, _) in enumerate(comp.code):
        if op != "deriv":  # a deriv's argument is a subtape, not a slot
            for a in args:
                last_read[a] = i
    frees = [[] for _ in comp.code]
    for slot, i in last_read.items():
        if slot not in outputs:
            frees[i].append(slot)
    return Tape(n, order, tuple(comp.code), outputs, tuple(comp.subtapes),
                tuple(tuple(f) for f in frees))


class TapeValues(NamedTuple):
    """Every output of a tape at N points."""

    tape: Tape
    points: np.ndarray  # (N, n)
    coeffs: np.ndarray  # (outputs, ncoef, N)
    first_failure: np.ndarray  # (N,) first failing instruction, len(code) if none
    failures: dict  # failing instruction -> operand values or subtape values

    @property
    def failed(self) -> np.ndarray:
        return self.first_failure < len(self.tape.code)

    def derivatives(self):
        """(values, gradients, Hessians) with the lane axis last, as the
        coefficients hold it: shapes (outputs, N), (n, outputs, N) and
        (n, n, outputs, N); None past the tape's order.  The values are a
        view of the coefficients."""
        c = self.coeffs
        vals = c[:, 0]
        if self.tape.order == 0:
            return vals, None, None
        first, second, fact = derivative_positions(self.tape.n, self.tape.order)
        d1 = np.swapaxes(c[:, first], 0, 1)
        d2 = None
        if second is not None:
            d2 = np.transpose(c[:, second], (1, 2, 0, 3)) * fact[:, :, None, None]
        return vals, d1, d2

    def error(self, lane: int) -> EvalDomainError:
        """The domain error at this lane's point, naming the subtree of its
        first failing instruction."""
        i = int(self.first_failure[lane])
        op, _, param, node = self.tape.code[i]
        if op == "deriv":
            return self.failures[i].error(lane)
        v = float(self.failures[i][lane])
        return EvalDomainError(_domain_reason(op, param, v, self.tape.order), str(node),
                               self.points[lane])


def eval_tape(tape: Tape, points) -> TapeValues:
    """Evaluate every output of the tape at each row of ``points`` (N, n).

    Lanes are independent: every operation is elementwise across them, so a
    point's coefficients do not depend on the batch it is evaluated in.
    Domain violations do not raise; they are flagged per lane, and
    ``TapeValues.error(lane)`` builds the error eval_jet (or eval_scalar at
    order 0) would raise there.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        return _run_tape(tape, points)


def _run_tape(tape: Tape, points: np.ndarray) -> TapeValues:
    n_lanes, ncoef, order = len(points), tape.ncoef, tape.order
    scatter = product_scatter(tape.n, order) if order else None
    end = len(tape.code)
    first = np.full(n_lanes, end)
    failures: dict = {}
    subvalues: dict = {}
    slots: list = [None] * end

    def full(x):
        if isinstance(x, float):
            out = np.zeros((ncoef, n_lanes))
            out[0] = x
            return out
        return x

    for i, (op, args, param, node) in enumerate(tape.code):
        bad = operand = None  # failing lanes, and what the error message names
        if op == "const":
            slots[i] = param
        elif op == "var":
            x = np.zeros((ncoef, n_lanes))
            x[0] = points[:, param]
            if order:
                x[1 + param] = 1.0  # graded order: the unit multi-indices follow the constant
            slots[i] = x
        elif op == "deriv":
            sub = subvalues.get(args[0])
            if sub is None:
                sub = subvalues[args[0]] = _run_tape(tape.subtapes[args[0]], points)
            coeffs = sub.coeffs[0]
            if order:
                positions, factors = partial_map(tape.n, order + 1, param)
                slots[i] = coeffs[positions] * factors[:, None]
            else:
                slots[i] = coeffs[1 + param : 2 + param].copy()
            bad, operand = sub.failed, sub
        elif op in ("+", "-", "*", "/"):
            slots[i], bad, operand = _binary(op, slots[args[0]], slots[args[1]], order,
                                             scatter, full)
        elif op == "neg":
            slots[i] = -slots[args[0]]
        else:
            x = full(slots[args[0]])
            slots[i], bad = _unary(op, param, x, order, scatter)
            operand = x[0]
        if bad is not None and bad.any():
            failures[i] = operand
            first[bad & (first > i)] = i
        for j in tape.frees[i]:
            slots[j] = None

    coeffs = np.zeros((len(tape.outputs), ncoef, n_lanes))
    for k, s in enumerate(tape.outputs):
        if s is not None:
            v = slots[s]
            if isinstance(v, float):
                coeffs[k, 0] = v
            else:
                coeffs[k] = v
    return TapeValues(tape, points, coeffs, first, failures)


# -- one-point views ---------------------------------------------------------------


def one_lane(values):
    """The values of a one-point batch (:class:`TapeValues`, or a grid's),
    raising the domain error where the point failed."""
    if values.failed[0]:
        raise values.error(0)
    return values


def _at_point(e: Expr, point, order: int) -> np.ndarray:
    values = one_lane(eval_tape(compile_tape((e,), len(point), order), [point]))
    return values.coeffs[0, :, 0]


def eval_scalar(e: Expr, point) -> float:
    """IEEE double value of e at the point: one lane of an order-0 tape."""
    return float(_at_point(e, point, 0)[0])


def eval_jet(e: Expr, point, order: int = 2) -> Jet:
    """All mixed partials of e at the point up to total degree ``order``:
    one lane of a jet tape (no finite differencing)."""
    _check_order(order)
    return Jet(len(point), order, _at_point(e, point, order))


# -- identity testing ---------------------------------------------------------


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def fields_equal_numeric(
    f1: Expr, f2: Expr, plan: SamplePlan, title: str = "fields equal"
) -> CheckReport:
    """Pointwise comparison of two expressions on the plan's sample set.

    Passes iff |f1 - f2| <= tol * max(1, |f1|, |f2|) + floor at every point.
    The reported residual is |f1 - f2| / max(1, |f1|, |f2|).  Points where
    either field leaves its domain are redrawn.  A NaN or infinite
    difference or value fails: the residual is then None and the witness the
    first such point.
    """
    both = compile_tape((f1, f2), plan.dim, 0)

    def evaluate(points):
        values = eval_tape(both, points)
        return values.failed, (values.coeffs[:, 0, :].T,)

    found = resolve(plan, evaluate)
    raw, scale = comparison_residuals(*found.payload)
    cid, description = "pointwise_equal", "values agree at every sample point"
    finite = np.isfinite(raw) & np.isfinite(scale)
    if not finite.all():
        cond = non_finite_condition(cid, description, found.points, finite)
    else:
        norm = raw / scale
        k = int(np.argmax(norm))
        worst = float(norm[k])
        cond = ConditionResult(
            cid=cid,
            description=description,
            residual=worst,
            witness=None if worst == 0.0 else tuple(float(x) for x in found.points[k]),
            passed=bool(np.all(raw <= plan.tolerance * scale + plan.floor)),
        )
    return CheckReport(title=title, conditions=[cond], plan=plan)


def comparison_residuals(vals: np.ndarray):
    """Per lane (|f1 - f2|, max(1, |f1|, |f2|)) from values (N, 2)."""
    v1, v2 = vals[:, 0], vals[:, 1]
    return np.abs(v1 - v2), np.maximum(np.maximum(1.0, np.abs(v1)), np.abs(v2))
