"""Immutable expression trees over n field variables, their evaluation on
jet tapes, and randomized identity testing.

Expressions carry exact rational literals, variables u1..un, the four
arithmetic operations, powers with constant rational exponent, and the
elementary functions exp, ln, sin, cos, sqrt.  They are frozen dataclasses,
so trees compare structurally and are safe to share across threads.

There is one evaluator and one value type.  :func:`compile_tape` compiles
a nested grid of expressions (a list, a matrix of rows, ...) into a flat,
hash-consed :class:`Tape` that records the grid's shape, and
:func:`eval_tape` evaluates it at N points at once, each jet a coefficient
array with a lane axis over the points, through the kernels of
:mod:`hydroham.jets`.  Its :class:`TapeValues` hold the grid's values as a
view of the coefficients and form derivatives only at the lanes
:meth:`TapeValues.at` is given.  Every check reads its fields this way: the
metric frames and pencils, the system checks, the drift-flux residuals and
:func:`fields_equal_numeric`.  :func:`eval_scalar` (a float) and
:func:`eval_jet` (a :class:`~hydroham.jets.Jet`) are its one-lane views at a
single point; they run outside any plan walk, so :func:`eval_tape` turns
numpy's warnings off itself.  A :class:`Deriv` compiles its argument into
the same tape one order higher, so every derivative of a user-supplied
function is a jet too.  Domain violations (log of a non-positive value,
division by zero, a negative base under a fractional power) are flagged per
lane; :meth:`TapeValues.error` builds the
:class:`~hydroham.errors.EvalDomainError` of a lane, naming the offending
subtree, and :meth:`TapeValues.checked`, which the one-lane views call,
raises that of the first failing lane.

A tape also records the structure of each output: a literal zero (or a
constant folded to zero), a constant, or the set of variables its tree reads,
a superset of those it depends on (a :class:`Deriv` reads its argument's).
:attr:`TapeValues.patterns` turns that into the structural zero patterns of
``vals``, ``d1`` and ``d2``, read from the tape alone and never from drawn
values; the contractions of :mod:`hydroham.geometry` skip the products they
make zero.
"""

from __future__ import annotations

import functools
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
from .reports import CheckReport, walk_report
from .sampling import SamplePlan

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
    of user-supplied functions.  A tape of order k evaluates the argument
    in the same tape as a jet of order k + 1 (an order-1 jet for scalar
    values), so each level of nesting costs one order: at most one level
    is available at the default order 2."""

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


def max_var_index(e: Expr, memo: dict | None = None) -> int:
    """Largest 0-based variable index in the tree, -1 for constant trees;
    ``memo`` as for :func:`var_indices`."""
    return max(var_indices(e, memo), default=-1)


def var_indices(e: Expr, memo: dict | None = None) -> frozenset[int]:
    """The 0-based indices of the variables the tree reads.  Each node is
    walked once per ``memo``, a dict keyed by node id: pass one to the calls
    on trees that share subtrees, such as the entries of a grid, and keep
    those trees alive while it is in use."""
    memo = {} if memo is None else memo
    found = memo.get(id(e))
    if found is None:
        if isinstance(e, Var):
            found = frozenset((e.index,))
        elif isinstance(e, BinOp):
            found = var_indices(e.left, memo) | var_indices(e.right, memo)
        elif isinstance(e, Power):
            found = var_indices(e.base, memo)
        elif isinstance(e, (Neg, Call, Deriv)):
            found = var_indices(e.arg, memo)
        else:
            found = frozenset()
        memo[id(e)] = found
    return found


# -- evaluation: jet tapes ------------------------------------------------------
#
# A tape is a list of expressions compiled into one flat instruction list and
# evaluated at N points at once by the kernels of hydroham.jets.  Instruction i
# writes slot i; a slot holds a Python float (a folded constant) or coefficient
# array of shape (ncoef, N) at the instruction's order, in the graded order of
# hydroham.jets, the lane axis last.  Order 0 carries values only; orders 1-3
# carry Taylor coefficients.
# Each instruction carries its own order: Deriv compiles its argument into the
# same tape one order higher and reads the shifted coefficients
# (jets.partial_map).  Structurally equal subtrees share one slot per order,
# literal zero outputs compile to nothing, and a folded constant (a literal,
# or arithmetic on constants) gets its const instruction only where an
# instruction or an output reads it, so no instruction goes unread.  A subtree
# needed at two orders
# is computed at each, never truncated from the higher one: a jet's domain
# depends on its order (sqrt at 0 has a value but no order-1 jet).  A lane
# that leaves the domain is flagged at the first failing instruction in
# evaluation order (operands before the node, left before right, a Deriv's
# argument before the Deriv), and keeps computing garbage that nothing reads.


class Tape(NamedTuple):
    n: int  # number of variables
    order: int  # of the outputs; 0 for values only
    code: tuple  # (op, argument slots, parameter, node, order) per instruction
    outputs: tuple  # slot of each compiled expression, None for a literal zero
    frees: tuple  # per instruction, the slots it reads last (outputs excepted)
    shape: tuple  # of the compiled grid; its leaves are the outputs, row-major
    # per output, None for a zero, else the variables its tree reads, as a
    # bit mask (bit k for u_{k+1}; 0 for a constant)
    reads: tuple


def _ncoef(n: int, order: int) -> int:
    return 1 if order == 0 else len(multi_indices(n, order))


class _TapeCompiler:
    def __init__(self, n: int):
        self.n = n
        self.code: list = []
        self.by_key: dict = {}  # (structural key, order) -> slot
        self.by_id: dict = {}  # (id(node), order) -> slot

    def emit(self, key, node, order: int) -> int:
        slot = self.by_key.get((key, order))
        if slot is None:
            slot = self.by_key[key, order] = len(self.code)
            op, args, param = key[0], key[1:-1], key[-1]
            self.code.append((op, args, param, node, order))
        return slot

    def value(self, slot):
        """The value of a folded constant, else None: a float stands in place
        of a slot until an instruction reads it (:meth:`read`), so a constant
        folded into another emits nothing."""
        return slot if isinstance(slot, float) else None

    def read(self, slot, order: int) -> int:
        """The slot an instruction reads, a folded constant emitted at its
        first read."""
        return self.emit(("const", slot), None, order) if isinstance(slot, float) else slot

    def slot(self, node: Expr, order: int) -> int | float:
        hit = self.by_id.get((id(node), order))
        if hit is None:
            hit = self.by_id[id(node), order] = self._compile(node, order)
        return hit

    def _compile(self, node: Expr, order: int) -> int | float:
        if isinstance(node, (Const, NamedConst)):
            return float(node.value)
        if isinstance(node, Var):
            if node.index >= self.n:
                raise ValueError(
                    f"variable u{node.index + 1} out of range for dimension {self.n}"
                )
            return self.emit(("var", node.index), node, order)
        if isinstance(node, Neg):
            a = self.slot(node.arg, order)
            c = self.value(a)
            if c is not None:
                return -c
            return self.emit(("neg", a, None), node, order)
        if isinstance(node, BinOp):
            a, b = self.slot(node.left, order), self.slot(node.right, order)
            ca, cb = self.value(a), self.value(b)
            if ca is not None and cb is not None:
                if node.op == "+":
                    return ca + cb
                if node.op == "-":
                    return ca - cb
                if node.op == "*":
                    return ca * cb
                if cb != 0.0:  # jets divide by multiplying with the reciprocal
                    return ca / cb if order == 0 else ca * (1.0 / cb)
            return self.emit((node.op, self.read(a, order), self.read(b, order), None), node,
                             order)
        if isinstance(node, Power):
            base = self.read(self.slot(node.base, order), order)
            return self.emit(("pow", base, node.exponent), node, order)
        if isinstance(node, Call):
            return self.emit((node.func, self.read(self.slot(node.arg, order), order), None), node,
                             order)
        if isinstance(node, Deriv):
            _check_order(order + 1, lowest=0)
            arg = self.slot(node.arg, order + 1)
            if self.value(arg) is not None:
                return 0.0
            return self.emit(("deriv", arg, node.index), node, order)
        raise TypeError(f"not an expression node: {node!r}")


def _grid_leaves(entries) -> tuple:
    """(shape, leaves in row-major order) of a nested grid (tuples or lists)
    of expressions; anything else is a leaf."""
    if not isinstance(entries, (tuple, list)):
        return (), [entries]
    rows = [_grid_leaves(row) for row in entries]
    return (len(rows),) + (rows[0][0] if rows else ()), [e for _, leaves in rows for e in leaves]


def compile_tape(entries, n: int, order: int) -> Tape:
    """Compile a nested grid of expressions over n variables (a list, a
    matrix of rows, ...) into one tape of the given order (0 for values only,
    else Taylor coefficients through that degree) with the grid's shape."""
    _check_order(order, lowest=0)
    shape, leaves = _grid_leaves(entries)
    comp = _TapeCompiler(n)
    outputs = tuple(
        None if isinstance(e, Const) and e.value == 0 else comp.read(comp.slot(e, order), order)
        for e in leaves
    )
    last_read, masks = {}, []  # masks: per instruction, the variables its tree reads
    for i, (op, args, param, _, _) in enumerate(comp.code):
        mask = 1 << param if op == "var" else 0
        for a in args:
            last_read[a] = i
            mask |= masks[a]
        masks.append(mask)
    reads = tuple(None if s is None or comp.code[s][0] == "const" and comp.code[s][2] == 0.0
                  else masks[s] for s in outputs)
    frees = [[] for _ in comp.code]
    for slot, i in last_read.items():
        if slot not in outputs:
            frees[i].append(slot)
    return Tape(n, order, tuple(comp.code), outputs, tuple(tuple(f) for f in frees), shape,
                reads)


class TapeValues(NamedTuple):
    """Every output of a tape at N points, shaped as its grid: ``vals`` is a
    view of the coefficients, and :meth:`at` forms derivatives, only at the
    lanes it is given.  The grid's shape and structure are the tape's; a
    pencil member's tape is its pair's with the member's shape and reads
    (:func:`~hydroham.geometry.pencil_values`)."""

    tape: Tape
    points: np.ndarray  # (N, n)
    coeffs: np.ndarray  # (outputs, ncoef, N)
    first_failure: np.ndarray  # (N,) first failing instruction, len(code) if none
    failures: dict  # failing instruction -> its operand's values

    @property
    def failed(self) -> np.ndarray:
        return self.first_failure < len(self.tape.code)

    def checked(self) -> TapeValues:
        """These values, raising the domain error of the first lane that
        failed: the check of the one-lane views."""
        if self.failed.any():
            raise self.error(int(self.failed.argmax()))
        return self

    @property
    def vals(self) -> np.ndarray:
        """The values (*shape, N), without a copy."""
        return self.coeffs[:, 0].reshape(self.tape.shape + self.coeffs.shape[-1:])

    def at(self, lanes=None) -> tuple:
        """(vals, d1, d2) at the given lanes (indices), or at every lane for
        None, lane axis last: d1[k] = d_k and d2[l, k] = d_l d_k of the
        grid, each None past the tape's order.  Derivatives are formed from
        the coefficients at those lanes (:func:`take_lanes`: read in place
        where the lanes are every lane in order, else gathered), with the
        bits of every lane's."""
        c = self.coeffs if lanes is None else take_lanes(self.coeffs, lanes)
        shape = self.tape.shape + c.shape[-1:]
        vals = c[:, 0].reshape(shape)
        n, order = self.tape.n, self.tape.order
        if order == 0:
            return vals, None, None
        first, second, fact = derivative_positions(n, order)
        d1 = np.swapaxes(c[:, first], 0, 1).reshape((n,) + shape)
        d2 = None
        if second is not None:
            d2 = (np.transpose(c[:, second], (1, 2, 0, 3))
                  * fact[:, :, None, None]).reshape((n, n) + shape)
        return vals, d1, d2

    @property
    def patterns(self) -> tuple:
        """The structural patterns of (vals, d1, d2) as :meth:`at` gives them,
        without the lane axis, each None where that is: False where the
        entry is ±0.0 at every lane whatever the points, read from the
        tape's ``reads`` alone.  An entry of a zero output is zero, and so is a
        derivative along a variable its tree does not read.  Read-only
        arrays, shared by every call on the same structure."""
        return _patterns(self.tape.reads, self.tape.n, self.tape.order, self.tape.shape)

    def error(self, lane: int) -> EvalDomainError:
        """The domain error at this lane's point, naming the subtree of its
        first failing instruction."""
        i = int(self.first_failure[lane])
        op, _, param, node, order = self.tape.code[i]
        v = float(self.failures[i][lane])
        return EvalDomainError(_domain_reason(op, param, v, order), str(node), self.points[lane])


def take_lanes(values: np.ndarray, lanes) -> np.ndarray:
    """``values`` at the lane indices ``lanes`` of its last axis, in that
    order: ``values`` itself, without a copy, where they are every lane in
    order (0, 1, ..., N - 1), else a copy gathered by ``take``."""
    count = values.shape[-1]
    if len(lanes) == count and (not count or lanes[0] == 0 and lanes[-1] == count - 1
                                and bool((np.diff(lanes) == 1).all())):
        return values
    return values.take(lanes, -1)


@functools.lru_cache(maxsize=None)
def _patterns(reads: tuple, n: int, order: int, shape: tuple) -> tuple:
    nonzero = np.array([r is not None for r in reads], dtype=bool).reshape(shape)
    var = np.array([[r is not None and r >> k & 1 for r in reads] for k in range(n)],
                   dtype=bool).reshape((n,) + shape)
    patterns = (nonzero, var if order else None, var[:, None] & var if order >= 2 else None)
    for p in patterns:
        if p is not None:
            p.flags.writeable = False
    return patterns


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
    n, n_lanes, end = tape.n, len(points), len(tape.code)
    first = np.full(n_lanes, end)
    failures: dict = {}
    slots: list = [None] * end

    def kernel(order):
        """(ncoef, product scatter, constant-to-array) at an order."""
        ncoef = _ncoef(n, order)

        def full(x):
            if isinstance(x, float):
                out = np.zeros((ncoef, n_lanes))
                out[0] = x
                return out
            return x
        return ncoef, product_scatter(n, order) if order else None, full

    kernels: dict = {}  # order -> kernel(order), built at its first instruction
    for i, (op, args, param, node, order) in enumerate(tape.code):
        at = kernels.get(order)
        if at is None:
            at = kernels[order] = kernel(order)
        ncoef, scatter, full = at
        bad = operand = None  # failing lanes, and what the error message names
        if op == "const":
            slots[i] = param
        elif op == "var":
            x = np.zeros((ncoef, n_lanes))
            x[0] = points[:, param]
            if order:
                x[1 + param] = 1.0  # graded order: the unit multi-indices follow the constant
            slots[i] = x
        elif op == "deriv":  # the argument's coefficients, one order higher
            coeffs = kernels[order + 1][2](slots[args[0]])
            if order:
                positions, factors = partial_map(n, order + 1, param)
                slots[i] = coeffs[positions] * factors[:, None]
            else:
                slots[i] = coeffs[1 + param : 2 + param].copy()
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

    coeffs = np.zeros((len(tape.outputs), _ncoef(n, tape.order), n_lanes))
    for k, s in enumerate(tape.outputs):
        if s is not None:
            v = slots[s]
            if isinstance(v, float):
                coeffs[k, 0] = v
            else:
                coeffs[k] = v
    return TapeValues(tape, points, coeffs, first, failures)


# -- one-point views ---------------------------------------------------------------


def _at_point(e: Expr, point, order: int) -> np.ndarray:
    values = eval_tape(compile_tape((e,), len(point), order), [point]).checked()
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


def fields_equal_numeric(f1: Expr, f2: Expr, plan: SamplePlan) -> CheckReport:
    """Pointwise comparison of two expressions on the plan's sample set.

    The residual, witness and non-finite rule are those of every condition
    (:func:`~hydroham.reports.walk_report`), with raw |f1 - f2| and scale
    max(1, |f1|, |f2|).  Only the verdict differs: the comparison passes iff
    its values are finite and |f1 - f2| <= tol * max(1, |f1|, |f2|) + floor
    at every point.  Points where either field leaves its domain are
    redrawn.
    """
    both = compile_tape((f1, f2), plan.dim, 0)

    def evaluate(points):
        values = eval_tape(both, points)
        return values.failed, comparison_residuals(*values.vals)

    table = (("pointwise_equal", "values agree at every sample point"),)
    rep, found = walk_report("fields equal", table, plan, evaluate)
    (raw, scale), cond = found.payload, rep.conditions[0]
    cond.passed = cond.residual is not None and bool(np.all(
        raw <= plan.tolerance * scale + plan.floor))
    return rep


def comparison_residuals(v1: np.ndarray, v2: np.ndarray):
    """Per lane (|f1 - f2|, max(1, |f1|, |f2|)) from the values of f1 and f2."""
    return np.abs(v1 - v2), np.maximum(np.maximum(1.0, np.abs(v1)), np.abs(v2))
