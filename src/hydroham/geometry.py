"""Differential geometry derived from a contravariant metric field, at many
points at once.

Everything here evaluates to numpy arrays with a trailing lane axis, one lane
per sample point; no symbolic Christoffel symbols or curvature are ever
formed.  Derivatives of the metric come from a jet tape of its entries,
read as :class:`~hydroham.exprs.TapeValues`, the one value type of every
grid.  The inverse g_lo is np.linalg.inv of g_up, symmetrized as (inv +
inv^T) / 2, except where g's pattern makes it diagonal: there it is the
reciprocal of each diagonal entry, the same doubles (up to the sign of a
zero) with no LAPACK call.  Derivatives of the inverse come from
d(g_lo) = -g_lo (d g_up) g_lo.
Contractions go through :func:`lane_einsum`, so a lane's numbers do not
depend on the rest of its batch.  Frames come in two steps:
:func:`metric_status` reads from the metric's jet values which lanes failed
or are degenerate, and :func:`metric_frames` forms the derivatives at the
usable lanes only (:meth:`~hydroham.exprs.TapeValues.at`; every lane of
the jets is read in place, a part of them gathered) and builds the
inverse, Christoffel symbols and curvature from them, so a lane that cannot
resolve costs a determinant and no derivative or contraction.  The
determinant is that of the matrix with each row scaled by its largest entry,
written out up to 3 x 3 and from np.linalg.det beyond; a vanishing row makes
it 0 and a non-finite entry NaN.
The batched frames and kernels hold and take :class:`Patterned` arrays.
The single-point functions (:func:`metric_frame`, :func:`invert_metric`,
:func:`christoffel_from_b`, :func:`eval_matrix`,
:func:`covariant_derivative_values`) are one-lane views of the batched ones:
they return plain arrays, the values with the lane axis dropped (a frame is
the :class:`MetricFrames` of one lane), and raise where those flag a lane.

Structural zeros.  Every array a check contracts carries a pattern
(:class:`Patterned`): False where the entry is ±0.0 at every lane by
construction.  The patterns start from the tapes
(:attr:`~hydroham.exprs.TapeValues.patterns`: a literal zero output, or a
derivative along a variable its tree does not read) and follow rules that
never read drawn values: a product is zero where any factor is, a sum where
all its terms are, and g_lo is block diagonal over the connected components
of g's pattern.  :func:`lane_einsum` forms only the terms whose every factor
is structurally nonzero and sums each entry's terms in lexicographic order of
the contracted indices, ``((t0 + t1) + t2) + ...``: the dense sum with the
dropped terms left out.  A dropped term is an exact ±0.0 wherever its other
factors are finite, so the results are the dense ones up to the sign of a
zero, which the residuals' |.| discards.  Where a factor is not finite the
dense sum has a NaN (0 * inf) that this one lacks; the entry that is not
finite reaches the residuals either way, and the reports are the dense ones
(tests/test_structural_zeros.py).

Index conventions, fixed once for the whole package (the lane axis, when
present, comes after all of these, so that every product in a contraction
runs over contiguous lanes; sample points stay rows, (N, dim), and so do the
per-lane rows an evaluator hands to :func:`~hydroham.sampling.resolve`, and
np.linalg gets matrices stacked lane first, through a moveaxis view):

    g_up[i, j]        g^{ij}               contravariant metric values
    g_lo[i, j]        g_{ij}               inverse (covariant) metric
    dg_up[k, i, j]    d_k g^{ij}           derivative index first
    b[i, j, k]        b^{ij}_k             coefficient of u^k_x, first two
                                           indices contravariant
    gamma[j, s, k]    Gamma^j_{sk}         related to b by
                                           b^{ij}_k = -g^{is} Gamma^j_{sk}
    riemann[j, s, k, l]     R^j_{skl} = d_k Gamma^j_{sl} - d_l Gamma^j_{sk}
                                      + Gamma^j_{mk} Gamma^m_{sl}
                                      - Gamma^j_{ml} Gamma^m_{sk}
    riemann_up[i, j, k, l]  g^{is} R^j_{skl}
    w[i, j]           w^i_j                row contravariant, column covariant
    nabla_w[k, i, j]  nabla_k w^i_j
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import sampling
from .errors import DegenerateMetricError
from .exprs import (Expr, Tape, TapeValues, compile_tape, eval_tape, max_var_index,
                    take_lanes)
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)

DEGENERACY_FLOOR = 1e-8


def _as_entry_grid(entries, shape, what: str):
    """Validate a nested sequence of Expr against a shape and its variables
    against the dimension ``shape[0]``; return nested tuples.  A subtree
    shared by several entries is walked once."""
    memo: dict = {}

    def rec(node, dims):
        if not dims:
            if not isinstance(node, Expr):
                raise TypeError(f"{what} entries must be expressions, got {type(node)}")
            if max_var_index(node, memo) >= shape[0]:
                raise ValueError(f"{what} entry uses a variable beyond the dimension")
            return node
        seq = tuple(node)
        if len(seq) != dims[0]:
            raise ValueError(f"{what} must have shape {shape}")
        return tuple(rec(x, dims[1:]) for x in seq)

    return rec(entries, shape)


@dataclass(frozen=True)
class MetricField:
    """Contravariant metric g^{ij}(u) as an n x n grid of expressions."""

    dim: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "entries", _as_entry_grid(self.entries, (self.dim, self.dim), "metric")
        )


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficients b^{ij}_k(u) as an n x n x n grid of expressions."""

    dim: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            _as_entry_grid(self.entries, (self.dim, self.dim, self.dim), "connection"),
        )


@dataclass(frozen=True)
class AffinorField:
    """A (1,1)-tensor field w^i_j(u) with its sign epsilon in {-1, +1}."""

    dim: int
    sign: int
    entries: tuple

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("affinor sign must be exactly -1 or +1")
        object.__setattr__(
            self, "entries", _as_entry_grid(self.entries, (self.dim, self.dim), "affinor")
        )


# -- batched evaluation ----------------------------------------------------------


class Patterned:
    """An array with a trailing lane axis and its structural pattern: a
    boolean array of the non-lane shape, False where the entry is ±0.0 at
    every lane by construction, whatever the drawn values.  A pattern is a
    sound superset of the nonzero entries, so dropping a product with a
    structurally zero factor drops an exact ±0.0.

    The arithmetic carries the patterns by rules that read no values: a
    sum or difference is zero where both terms are; negation, a scalar
    factor, an axis swap or permutation and an index along the leading axis
    keep the pattern; :func:`lane_einsum` gives the pattern of a
    contraction.  The in-place sums write into :attr:`values` and return a
    new object, since patterns are shared and read-only."""

    __slots__ = ("values", "pattern")

    def __init__(self, values: np.ndarray, pattern: np.ndarray):
        self.values, self.pattern = values, pattern

    @classmethod
    def dense(cls, values) -> Patterned:
        """Values with no known zero."""
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.shape[:-1], dtype=bool))

    def __add__(self, other: Patterned) -> Patterned:
        return Patterned(self.values + other.values, self.pattern | other.pattern)

    def __sub__(self, other: Patterned) -> Patterned:
        return Patterned(self.values - other.values, self.pattern | other.pattern)

    def __iadd__(self, other: Patterned) -> Patterned:
        self.values += other.values
        return Patterned(self.values, self.pattern | other.pattern)

    def __isub__(self, other: Patterned) -> Patterned:
        self.values -= other.values
        return Patterned(self.values, self.pattern | other.pattern)

    def __neg__(self) -> Patterned:
        return Patterned(-self.values, self.pattern)

    def __mul__(self, factor) -> Patterned:
        return Patterned(self.values * factor, self.pattern)

    __rmul__ = __mul__

    def __imul__(self, factor) -> Patterned:
        self.values *= factor
        return self

    def __getitem__(self, index) -> Patterned:
        """The entries at ``index`` of the leading axis."""
        return Patterned(self.values[index], self.pattern[index])

    def swapaxes(self, a: int, b: int) -> Patterned:
        return Patterned(np.swapaxes(self.values, a, b), np.swapaxes(self.pattern, a, b))

    def transpose(self, spec: str) -> Patterned:
        """The entries as ``lane_einsum(spec, self)`` places them, for a spec
        that only permutes indices ("smk->msk": out[m, s, k] = self[s, m,
        k]), as views with the lane axis last.  They are lane_einsum's up to
        the sign of a zero at a structurally zero entry, which lane_einsum
        makes +0.0 and this keeps."""
        axes = _permutation(spec)
        return Patterned(self.values.transpose(axes + (len(axes),)), self.pattern.transpose(axes))


@functools.lru_cache(maxsize=None)
def _permutation(spec: str) -> tuple:
    """The axes np.transpose takes for a permutation spec such as "smk->msk"."""
    source, out = spec.split("->")
    return tuple(source.index(c) for c in out)


def lane_einsum(spec: str, *operands):
    """``np.einsum(spec)`` applied lane by lane along a trailing lane axis of
    every operand (which ``spec`` leaves out); the result's lane axis is last
    too.  An operand is an array, whose pattern is all-true, or a
    :class:`Patterned`; the result is a :class:`Patterned` iff an operand is.

    Only the terms whose every factor is structurally nonzero are formed,
    each a product of the operands' entries from left to right, and each
    output entry is the sequential sum ``((t0 + t1) + t2) + ...`` of its
    terms in lexicographic order of the contracted indices, so a lane's
    result does not depend on the rest of its batch (np.einsum may regroup
    a reduction by the operands' shapes).  An entry with no term is 0.0;
    the result's pattern is the entries with a term.  Where the dropped
    terms are ±0.0 (structurally zero entries ±0.0, the others finite), the
    result is the dense sum's up to the sign of a zero.

    One cached plan per (spec, shapes, patterns) gathers every term's
    factors with one ``take`` per operand, multiplies them in one product
    per operand, and adds rank by rank: rank r holds the r-th term of each
    entry with more than r terms, the entries ranked by term count, so that
    each rank is a prefix of the one before.
    """
    arrays, key, patterned = [], [spec], False
    for op in operands:
        if isinstance(op, Patterned):
            patterned = True
            key += (op.pattern.shape, op.pattern.tobytes())
            op = op.values
        else:
            key += (op.shape[:-1], None)
        arrays.append(op)
    plan = _einsum_plan(*key)
    lanes = arrays[0].shape[-1]
    if plan.gathers is None:  # no term at all
        out = np.zeros((plan.pattern.size, lanes))
    else:
        products = None
        for a, size, index in zip(arrays, plan.sizes, plan.gathers):
            factor = a.reshape(size, lanes).take(index, axis=0)
            products = factor if products is None else np.multiply(products, factor, out=products)
        if plan.zero is not None:
            products[plan.zero] = 0.0
        total = products[:plan.first]
        for offset, count in plan.ranks:
            total[:count] += products[offset:offset + count]
        out = products if plan.rows is None else products.take(plan.rows, axis=0)
    out = out.reshape(plan.pattern.shape + (lanes,))
    return Patterned(out, plan.pattern) if patterned else out


class _Plan(NamedTuple):
    sizes: tuple  # per operand, its number of entries
    # per operand, the flat index of its factor in each term, rank by rank,
    # then in the zero row if there is one; None when no entry has a term
    gathers: Optional[tuple]
    first: int  # number of terms at rank 0: of entries with a term
    ranks: tuple  # per later rank, (offset of its first term, number of terms)
    zero: Optional[int]  # the row of products set to 0.0, read by the entries with no term
    rows: Optional[np.ndarray]  # per output entry, its row of products; None for 0, 1, 2, ...
    pattern: np.ndarray  # of the output: its entries with a term


@functools.lru_cache(maxsize=None)
def _einsum_plan(spec: str, *shapes_and_patterns) -> _Plan:
    """How :func:`lane_einsum` sums on operands with these non-lane shapes
    and patterns, given as (shape, pattern) per operand, a pattern as the
    bytes of a boolean array or None for all-true."""
    shapes, patterns = shapes_and_patterns[0::2], shapes_and_patterns[1::2]
    inputs, out = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for sub, shape in zip(inputs, shapes):
        sizes.update(zip(sub, shape))
    summed = sorted(set("".join(inputs)) - set(out))
    out_shape = tuple(sizes[c] for c in out)
    entries, per_entry = math.prod(out_shape), math.prod(sizes[c] for c in summed)
    # one column per (output entry, combination of the summed indices), each
    # in row-major, that is lexicographic, order
    grid = dict(zip(out + "".join(summed),
                    np.indices(out_shape + tuple(sizes[c] for c in summed)).reshape(
                        len(out) + len(summed), -1)))
    flats, keep = [], np.ones(entries * per_entry, dtype=bool)
    for sub, shape, pattern in zip(inputs, shapes, patterns):
        flat = np.ravel_multi_index([grid[c] for c in sub], shape)
        flats.append(flat)
        if pattern is not None:
            keep &= np.frombuffer(pattern, dtype=bool)[flat]
    keep = keep.reshape(entries, per_entry)
    counts = keep.sum(1)
    pattern = (counts > 0).reshape(out_shape)
    pattern.flags.writeable = False
    operand_sizes = tuple(map(math.prod, shapes))
    if not keep.any():
        return _Plan(operand_sizes, None, 0, (), None, None, pattern)
    order = np.argsort(-counts, kind="stable")  # ranked by term count, ties in entry order
    place = np.empty(entries, dtype=np.intp)
    place[order] = np.arange(entries)
    entry, combo = np.nonzero(keep)
    rank = (np.cumsum(keep, 1) - 1)[entry, combo]
    terms = np.lexsort((place[entry], rank))
    columns = entry[terms] * per_entry + combo[terms]
    per_rank = [int(np.count_nonzero(counts > r)) for r in range(counts.max())]
    offsets = np.cumsum(per_rank).tolist()
    rows, zero = place, None
    if per_rank[0] < entries:  # entries with no term read a zero row after the terms
        zero = offsets[-1]
        columns = np.append(columns, 0)
        rows = np.where(counts > 0, place, zero)
    in_place = len(per_rank) == 1 and zero is None and bool(np.all(order == np.arange(entries)))
    return _Plan(operand_sizes, tuple(flat[columns] for flat in flats), per_rank[0],
                 tuple(zip(offsets[:-1], per_rank[1:])), zero, None if in_place else rows,
                 pattern)


def lane_max(x: np.ndarray, lead: int = 0) -> np.ndarray:
    """max |x| over every axis but the first ``lead`` and the trailing lane
    axis: one value per lane, or per lane and leading index."""
    return np.max(np.abs(x), axis=tuple(range(lead, x.ndim - 1)))


def pencil_values(pair: Tape, points, lams) -> TapeValues:
    """The members A + lam B of a pair compiled from (A, B), one per lam of
    ``lams``, at every row of ``points``: member j at lanes j n to (j + 1) n,
    n the number of points.  The pair runs once at every row, on at most
    :data:`~hydroham.sampling.BLOCK` rows at a time, and every member of a
    batch is formed in one broadcast into a (..., lam, row) view of the
    member array: the coefficients of A plus lam times those of B, as a tape
    of the trees A + lam B computes them, scaled into derivatives only then.
    A lane is flagged where A or B leaves its domain.  The values' tape is
    the pair's with a member's shape and structure.  A call of many lanes
    holds the pair's coefficients of one batch of rows only."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, count, step = len(points), len(lams), sampling.BLOCK
    scale = np.asarray(lams, dtype=float)[:, None]
    member = first = None
    failures: dict = {}
    for at in range(0, max(n, 1), step):
        part = eval_tape(pair, points[at:at + step])
        half, there = len(part.coeffs) // 2, slice(at, at + len(part.points))
        if member is None:
            member = np.empty((half,) + part.coeffs.shape[1:-1] + (count * n,))
            first = np.empty(count * n, dtype=part.first_failure.dtype)
        out = member.reshape(member.shape[:-1] + (count, n))[..., there]
        np.multiply(scale, part.coeffs[half:, ..., None, :], out=out)
        np.add(part.coeffs[:half, ..., None, :], out, out=out)
        first.reshape(count, n)[:, there] = part.first_failure
        for i, operand in part.failures.items():
            failures.setdefault(i, np.full(count * n, np.nan)).reshape(count, n)[:, there] = operand
    tape = pair._replace(shape=pair.shape[1:], reads=_member_reads(pair.reads))
    return TapeValues(tape, np.tile(points, (count, 1)), member, first, failures)


@functools.lru_cache(maxsize=None)
def _member_reads(reads: tuple) -> tuple:
    """The structure of each output of A + lam B from that of the pair (A, B):
    zero where both are, else the variables either reads."""
    half = len(reads) // 2
    return tuple(None if a is None and b is None else (a or 0) | (b or 0)
                 for a, b in zip(reads[:half], reads[half:]))


def eval_matrix(entries, point) -> np.ndarray:
    """Values of a grid of expressions (any shape) at one point."""
    return eval_tape(compile_tape(entries, len(point), 0), [point]).checked().vals[..., 0]


def scaled_abs_det(m: np.ndarray) -> float:
    """|det| after scaling each row by its largest entry (0.0 if a row vanishes)."""
    return float(scaled_abs_dets(np.asarray(m)[None])[0])


@np.errstate(all="ignore")  # a non-finite entry leaves det NaN, not a warning
def scaled_abs_dets(ms: np.ndarray) -> np.ndarray:
    """:func:`scaled_abs_det` of each matrix stacked along leading axes, as
    np.linalg takes them (a lanes-last array goes in as a moveaxis view).
    The determinant of the row-scaled matrix is written out for n <= 3 (its
    cofactor expansion along the first row) and taken from np.linalg.det
    beyond; either way a non-finite entry makes it NaN."""
    n, lead = ms.shape[-1], tuple(range(ms.ndim - 2))
    m = ms.transpose((ms.ndim - 2, ms.ndim - 1) + lead)  # entries first: lanes-last layout
    rowmax = np.abs(m).max(1)
    vanishing = rowmax == 0.0
    rows = m / np.where(vanishing, 1.0, rowmax)[:, None]
    if n > 3:
        det = np.linalg.det(rows.transpose(tuple(a + 2 for a in lead) + (0, 1)))
    elif n == 1:
        det = rows[0, 0]
    elif n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.where(vanishing.any(0), 0.0, np.abs(det))


def invert_metric(g: MetricField, point) -> np.ndarray:
    """Covariant metric g_{ij} at a point, the g_lo of :func:`metric_frame`
    there: one lane of :func:`metric_status` and :func:`_inverse`, raising
    as that does."""
    return metric_frame(g, point).g_lo


# -- frames -------------------------------------------------------------------


class MetricFrames(NamedTuple):
    """Everything the checks need about a metric, at N points: point is
    (dim, N), every other field is a :class:`Patterned` with a trailing lane
    axis, and the curvature fields are None without curvature.
    :func:`metric_frames` builds them only at lanes where
    :attr:`MetricStatus.usable` holds, so every lane carries a frame;
    :func:`metric_frame` returns the plain arrays of one lane, without the
    lane axis."""

    point: np.ndarray
    g_up: Patterned
    g_lo: Patterned
    dg_up: Patterned
    dg_lo: Patterned
    gamma: Patterned  # Levi-Civita, gamma[j, s, k]
    d2g_up: Optional[Patterned] = None
    dgamma: Optional[Patterned] = None  # dgamma[l, j, s, k]
    riemann: Optional[Patterned] = None
    riemann_up: Optional[Patterned] = None
    # Gamma^j_{mk} Gamma^m_{sl} at [j, s, k, l], a term of riemann
    gamma_gamma: Optional[Patterned] = None

    @property
    def lanes(self) -> int:
        return self.point.shape[-1]


class MetricStatus(NamedTuple):
    """Per lane of a metric's jets, whether a frame can be built there."""

    failed: np.ndarray  # (N,) domain violation in a metric entry
    degenerate: np.ndarray  # (N,) scaled |det| below the floor
    det: np.ndarray  # (N,) scaled |det|, NaN where an entry is not finite

    @property
    def usable(self) -> np.ndarray:
        """Evaluated, nondegenerate and finite: the inverse of [[inf, 0],
        [0, 1]] is a finite matrix, so a non-finite metric value gets no
        frame and its residuals stay NaN."""
        return ~self.failed & ~self.degenerate & np.isfinite(self.det)


def metric_status(jets: TapeValues) -> MetricStatus:
    """Each lane's status, from the values of a metric grid's jets."""
    det = scaled_abs_dets(np.moveaxis(jets.vals, -1, 0))
    return MetricStatus(jets.failed, ~jets.failed & (det < DEGENERACY_FLOOR), det)


def _levi_civita_from_parts(g_up: Patterned, dg_lo: Patterned):
    t = dg_lo.transpose("smk->msk") + dg_lo.transpose("kms->msk") - dg_lo
    return 0.5 * lane_einsum("jm,msk->jsk", g_up, t), t


@functools.lru_cache(maxsize=None)
def _inverse_pattern(pattern: bytes, n: int) -> np.ndarray:
    """The pattern of the inverse of a matrix with this pattern: block
    diagonal over the connected components of the graph whose edges are
    its structurally nonzero entries, in either direction."""
    a = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    reach = a | a.T | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = (reach.astype(np.intp) @ reach.astype(np.intp)) > 0
    reach.flags.writeable = False
    return reach


def _inverse(g_up: Patterned) -> Patterned:
    """g_lo at every lane of g_up, symmetrized as (inv + inv^T) / 2, with
    the pattern :func:`_inverse_pattern` gives.  Where that pattern is
    diagonal, the diagonal is (r + r) / 2 with r = 1 / g^{ii} and the rest
    0.0, with no LAPACK call: np.linalg.inv's doubles up to the sign of a
    zero wherever r is finite (where it overflows, inv has NaN off the
    diagonal, which the contractions never read).  Any other pattern goes
    through np.linalg.inv."""
    n, lanes = len(g_up.values), g_up.values.shape[-1]
    pattern = _inverse_pattern(g_up.pattern.tobytes(), n)
    if np.count_nonzero(pattern) == n:
        r = 1.0 / g_up.values.reshape(n * n, lanes)[::n + 1]
        lo = np.zeros((n * n, lanes))
        lo[::n + 1] = (r + r) / 2.0  # inf where r + r overflows, as in the symmetrization
        return Patterned(lo.reshape(n, n, lanes), pattern)
    inv = np.ascontiguousarray(np.moveaxis(np.linalg.inv(np.moveaxis(g_up.values, -1, 0)), 0, -1))
    return Patterned((inv + np.swapaxes(inv, 0, 1)) / 2.0, pattern)


@np.errstate(all="ignore")  # non-finite derivatives fail in the verdict instead
def metric_frames(jets: TapeValues, lanes) -> MetricFrames:
    """Frames at the given lanes of a metric grid's jets (a boolean mask or
    indices), in that order, lane axis last; with curvature when the grid
    was compiled at order 2.  Every given lane must be
    :attr:`MetricStatus.usable`; nothing here checks it.  Given every lane
    in order, the jets are read in place (:func:`~hydroham.exprs.take_lanes`).
    Each field is a :class:`Patterned` whose pattern is carried from the
    jets' by its rules, with g_lo block diagonal over the connected
    components of g's pattern (:func:`_inverse`).
    """
    lanes = np.asarray(lanes)
    if lanes.dtype == bool:
        lanes = np.flatnonzero(lanes)
    point = take_lanes(jets.points.T, lanes)
    g_up, dg_up, d2g_up = (None if v is None else Patterned(v, p)
                           for v, p in zip(jets.at(lanes), jets.patterns))
    g_lo = _inverse(g_up)
    lo_dg = lane_einsum("ia,kab->kib", g_lo, dg_up)  # g_lo d_k g_up
    dg_lo = -lane_einsum("kib,bj->kij", lo_dg, g_lo)
    gamma, t = _levi_civita_from_parts(g_up, dg_lo)
    if d2g_up is None:
        return MetricFrames(point, g_up, g_lo, dg_up, dg_lo, gamma)
    # d_l d_k g_lo = -(d_l g_lo d_k g_up g_lo + g_lo d_l d_k g_up g_lo
    #                  + g_lo d_k g_up d_l g_lo), one contraction at a time;
    # sums accumulate in place to keep few (n, n, n, n, N) arrays alive
    d2g_lo = lane_einsum("lia,kaj->lkij", dg_lo, lane_einsum("kab,bj->kaj", dg_up, g_lo))
    d2g_lo += lane_einsum("lkib,bj->lkij", lane_einsum("ia,lkab->lkib", g_lo, d2g_up), g_lo)
    d2g_lo += lane_einsum("kib,lbj->lkij", lo_dg, dg_lo)
    np.negative(d2g_lo.values, out=d2g_lo.values)
    dt = d2g_lo.transpose("lsmk->lmsk") + d2g_lo.transpose("lkms->lmsk")
    dt -= d2g_lo
    del d2g_lo
    dgamma = lane_einsum("ljm,msk->ljsk", dg_up, t)
    dgamma += lane_einsum("jm,lmsk->ljsk", g_up, dt)
    dgamma *= 0.5
    del dt
    gamma_gamma = lane_einsum("jmk,msl->jskl", gamma, gamma)
    riemann = dgamma.transpose("kjsl->jskl") - dgamma.transpose("ljsk->jskl")
    riemann += gamma_gamma
    riemann -= gamma_gamma.swapaxes(2, 3)  # Gamma^j_{ml} Gamma^m_{sk}
    riemann_up = lane_einsum("is,jskl->ijkl", g_up, riemann)
    return MetricFrames(point, g_up, g_lo, dg_up, dg_lo, gamma, d2g_up, dgamma, riemann,
                        riemann_up, gamma_gamma)


def metric_frame(g: MetricField, point, curvature: bool = False) -> MetricFrames:
    """The frame at one point, as :class:`MetricFrames` of plain arrays, the
    values without the lane axis; order-2 jets are used only when curvature
    is requested.
    Raises, before building, where g leaves its domain, and
    DegenerateMetricError where it is degenerate or not finite."""
    order = 2 if curvature else 1
    jets = eval_tape(compile_tape(g.entries, len(point), order), [point]).checked()
    status = metric_status(jets)
    if not status.usable[0]:
        raise DegenerateMetricError(status.det[0], point)
    point, *fields = metric_frames(jets, [0])
    return MetricFrames(point[..., 0], *(None if a is None else a.values[..., 0] for a in fields))


def covariant_derivatives(vals: Patterned, d1: Patterned, gamma: Patterned) -> Patterned:
    """nabla[a, k, i, j] = nabla_k w^i_j of each affinor a of a stack, at
    every lane, from a grid of affinors' values vals[a, i, j] and
    derivatives d1[k, a, i, j] and the Levi-Civita symbols gamma[j, s, k],
    each a :class:`Patterned` with a trailing lane axis."""
    return (
        d1.swapaxes(0, 1)
        + lane_einsum("isk,asj->akij", gamma, vals)
        - lane_einsum("sjk,ais->akij", gamma, vals)
    )


# -- public operations ----------------------------------------------------------


def christoffel_from_b(g: MetricField, b: ConnectionField, point) -> np.ndarray:
    """Gamma^j_{sk} = -g_{is} b^{ij}_k, solving the defining representation:
    one lane of the connection kernel's contraction."""
    g_lo, b_vals = invert_metric(g, point), eval_matrix(b.entries, point)
    return -lane_einsum("is,ijk->jsk", g_lo[..., None], b_vals[..., None])[..., 0]


def levi_civita(g: MetricField, point) -> np.ndarray:
    """Christoffel symbols of the metric inverse to g^{ij}, via order-1 jets."""
    return metric_frame(g, point).gamma


def covariant_derivative_values(w: AffinorField, frame: MetricFrames) -> np.ndarray:
    """nabla_k w^i_j at the point of a one-point frame (:func:`metric_frame`)."""
    vals, d1, _ = eval_tape(compile_tape((w.entries,), w.dim, 1), [frame.point]).checked().at()
    arrays = map(Patterned.dense, (vals, d1, frame.gamma[..., None]))
    return covariant_derivatives(*arrays).values[0, ..., 0]
