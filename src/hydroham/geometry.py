"""Differential geometry derived from a contravariant metric field, at many
points at once.

Everything here evaluates to numpy arrays with a trailing lane axis, one lane
per sample point; no symbolic Christoffel symbols or curvature are ever
formed.  Derivatives of the metric come from a jet tape of its entries,
read as :class:`~hydroham.exprs.TapeValues`, the one value type of every
grid; derivatives of the inverse come from d(g_lo) = -g_lo (d g_up) g_lo.
Contractions go through :func:`lane_einsum`, so a lane's numbers do not
depend on the rest of its batch.  Frames come in two steps:
:func:`metric_status` reads from the metric's jet values which lanes failed
or are degenerate, and :func:`metric_frames` forms the derivatives at the
usable lanes only (:meth:`~hydroham.exprs.TapeValues.at`) and builds the
inverse, Christoffel symbols and curvature from them, so a lane that cannot
resolve costs a determinant and no derivative or contraction.  The
determinant is that of the matrix with each row scaled by its largest entry,
written out up to 3 x 3 and from np.linalg.det beyond; a vanishing row makes
it 0 and a non-finite entry NaN.
The single-point functions (:func:`metric_frame`, :func:`eval_matrix`,
:func:`covariant_derivative_values`) are one-lane views of the batched ones:
they return the same arrays with the lane axis dropped (a frame is the
:class:`MetricFrames` of one lane) and raise where those flag a lane.

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
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateMetricError
from .exprs import Expr, Tape, TapeValues, compile_tape, eval_tape, max_var_index
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)

DEGENERACY_FLOOR = 1e-8


def _as_entry_grid(entries, shape, what: str):
    """Validate a nested sequence of Expr against a shape; return nested tuples."""

    def rec(node, dims):
        if not dims:
            if not isinstance(node, Expr):
                raise TypeError(f"{what} entries must be expressions, got {type(node)}")
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
        for row in self.entries:
            for e in row:
                if max_var_index(e) >= self.dim:
                    raise ValueError("metric entry uses a variable beyond the dimension")


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


def lane_einsum(spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec)`` applied lane by lane along a trailing lane axis of
    every operand (which ``spec`` leaves out); the result's lane axis is last
    too.

    Each output entry is a plain sequential sum over the contracted indices
    in lexicographic order, each term a product of the operands' entries
    from left to right, so a lane's result does not depend on which other
    lanes share the batch; np.einsum may regroup a reduction depending on the
    operands' shapes.  Each term is one elementwise product over contiguous
    runs of lanes.
    """
    perms, terms, copy = _einsum_plan(spec, tuple(op.shape[:-1] for op in operands))
    views = [np.transpose(op, perm) for op, perm in zip(operands, perms)]
    total = None
    for term_index in terms:
        term = None
        for view, index in zip(views, term_index):
            x = view[index]
            term = x if term is None else term * x
        if total is None:
            total = term.copy() if copy else term
        else:
            total += term
    return total


@functools.lru_cache(maxsize=None)
def _einsum_plan(spec: str, shapes: tuple):
    """How :func:`lane_einsum` sums on operands with these non-lane shapes:
    per operand the axis order (its summed indices, its output indices,
    lane); per term of the sum, in lexicographic order of the summed
    indices, per operand the index that picks its factor shaped for the
    output (the lane axis left trailing); and whether the first term is a
    view to copy before summing."""
    inputs, out = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for sub, shape in zip(inputs, shapes):
        sizes.update(zip(sub, shape))
    summed = sorted(set("".join(inputs)) - set(out))
    perms, owns, expands = [], [], []
    for sub in inputs:
        own = [c for c in summed if c in sub]
        perms.append(tuple([sub.index(c) for c in own]
                           + [sub.index(c) for c in out if c in sub] + [len(sub)]))
        owns.append([summed.index(c) for c in own])
        expands.append(tuple(slice(None) if c in sub else None for c in out))
    terms = tuple(tuple(tuple(combo[k] for k in own) + expand
                        for own, expand in zip(owns, expands))
                  for combo in itertools.product(*(range(sizes[c]) for c in summed)))
    return tuple(perms), terms, len(inputs) == 1 and bool(summed)


def lane_max(x: np.ndarray, lead: int = 0) -> np.ndarray:
    """max |x| over every axis but the first ``lead`` and the trailing lane
    axis: one value per lane, or per lane and leading index."""
    return np.max(np.abs(x), axis=tuple(range(lead, x.ndim - 1)))


def pencil_values(pair: Tape, points, lam) -> TapeValues:
    """The member A + lam B of a pair compiled from (A, B), at every row of
    ``points``, with one lam per row: the coefficients of A plus lam times
    those of B, as a tape of the trees A + lam B computes them, scaled into
    derivatives only then.  A lane is flagged where A or B leaves its
    domain."""
    values = eval_tape(pair, points)
    half = len(values.coeffs) // 2
    member = values.coeffs[:half] + lam * values.coeffs[half:]
    return values._replace(coeffs=member, shape=values.shape[1:])


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
    """Covariant metric g_{ij} at a point; raises DegenerateMetricError below
    the degeneracy floor or where the metric is not finite (det NaN)."""
    g_up = eval_matrix(g.entries, point)
    det = scaled_abs_det(g_up)
    if not det >= DEGENERACY_FLOOR:
        raise DegenerateMetricError(det, point)
    inv = np.linalg.inv(g_up)
    return (inv + inv.T) / 2.0


# -- frames -------------------------------------------------------------------


class MetricFrames(NamedTuple):
    """Everything the checks need about a metric, at N points: each array
    has a trailing lane axis (point is (dim, N)), the curvature arrays are
    None without curvature.  :func:`metric_frames` builds them only at lanes
    where :attr:`MetricStatus.usable` holds, so every lane carries a frame;
    :func:`metric_frame` returns the arrays of one lane, without the lane
    axis."""

    point: np.ndarray
    g_up: np.ndarray
    g_lo: np.ndarray
    dg_up: np.ndarray
    dg_lo: np.ndarray
    gamma: np.ndarray  # Levi-Civita, gamma[j, s, k]
    d2g_up: Optional[np.ndarray]
    dgamma: Optional[np.ndarray]  # dgamma[l, j, s, k]
    riemann: Optional[np.ndarray]
    riemann_up: Optional[np.ndarray]
    # Gamma^j_{mk} Gamma^m_{sl} at [j, s, k, l], a term of riemann
    gamma_gamma: Optional[np.ndarray] = None

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
        """Evaluated, nondegenerate and finite: np.linalg.inv turns
        [[inf, 0], [0, 1]] into a finite matrix, so a non-finite metric
        value gets no frame and its residuals stay NaN."""
        return ~self.failed & ~self.degenerate & np.isfinite(self.det)


def metric_status(jets: TapeValues) -> MetricStatus:
    """Each lane's status, from the values of a metric grid's jets."""
    det = scaled_abs_dets(np.moveaxis(jets.vals, -1, 0))
    return MetricStatus(jets.failed, ~jets.failed & (det < DEGENERACY_FLOOR), det)


def _levi_civita_from_parts(g_up, dg_lo):
    t = (
        lane_einsum("smk->msk", dg_lo)
        + lane_einsum("kms->msk", dg_lo)
        - dg_lo
    )
    return 0.5 * lane_einsum("jm,msk->jsk", g_up, t), t


@np.errstate(all="ignore")  # non-finite derivatives fail in the verdict instead
def metric_frames(jets: TapeValues, lanes) -> MetricFrames:
    """Frames at the given lanes of a metric grid's jets (a boolean mask or
    indices), in that order, lane axis last; with curvature when the grid
    was compiled at order 2.  Every given lane must be
    :attr:`MetricStatus.usable`; nothing here checks it.
    """
    lanes = np.asarray(lanes)
    if lanes.dtype == bool:
        lanes = np.flatnonzero(lanes)
    point = jets.points[lanes].T
    g_up, dg_up, d2g_up = jets.at(lanes)
    inv = np.ascontiguousarray(np.moveaxis(np.linalg.inv(np.moveaxis(g_up, -1, 0)), 0, -1))
    g_lo = (inv + np.swapaxes(inv, 0, 1)) / 2.0
    lo_dg = lane_einsum("ia,kab->kib", g_lo, dg_up)  # g_lo d_k g_up
    dg_lo = -lane_einsum("kib,bj->kij", lo_dg, g_lo)
    gamma, t = _levi_civita_from_parts(g_up, dg_lo)
    if d2g_up is None:
        return MetricFrames(point, g_up, g_lo, dg_up, dg_lo, gamma, None, None, None, None)
    # d_l d_k g_lo = -(d_l g_lo d_k g_up g_lo + g_lo d_l d_k g_up g_lo
    #                  + g_lo d_k g_up d_l g_lo), one contraction at a time;
    # sums accumulate in place to keep few (n, n, n, n, N) arrays alive
    d2g_lo = lane_einsum("lia,kaj->lkij", dg_lo, lane_einsum("kab,bj->kaj", dg_up, g_lo))
    d2g_lo += lane_einsum("lkib,bj->lkij", lane_einsum("ia,lkab->lkib", g_lo, d2g_up), g_lo)
    d2g_lo += lane_einsum("kib,lbj->lkij", lo_dg, dg_lo)
    np.negative(d2g_lo, out=d2g_lo)
    dt = lane_einsum("lsmk->lmsk", d2g_lo) + lane_einsum("lkms->lmsk", d2g_lo)
    dt -= d2g_lo
    del d2g_lo
    dgamma = lane_einsum("ljm,msk->ljsk", dg_up, t)
    dgamma += lane_einsum("jm,lmsk->ljsk", g_up, dt)
    dgamma *= 0.5
    del dt
    gamma_gamma = lane_einsum("jmk,msl->jskl", gamma, gamma)
    riemann = lane_einsum("kjsl->jskl", dgamma) - lane_einsum("ljsk->jskl", dgamma)
    riemann += gamma_gamma
    riemann -= np.swapaxes(gamma_gamma, 2, 3)  # Gamma^j_{ml} Gamma^m_{sk}
    riemann_up = lane_einsum("is,jskl->ijkl", g_up, riemann)
    return MetricFrames(point, g_up, g_lo, dg_up, dg_lo, gamma, d2g_up, dgamma, riemann,
                        riemann_up, gamma_gamma)


def metric_frame(g: MetricField, point, curvature: bool = False) -> MetricFrames:
    """The frame at one point, as :class:`MetricFrames` arrays without the
    lane axis; order-2 jets are used only when curvature is requested.
    Raises, before building, where g leaves its domain, and
    DegenerateMetricError where it is degenerate or not finite."""
    order = 2 if curvature else 1
    jets = eval_tape(compile_tape(g.entries, len(point), order), [point]).checked()
    status = metric_status(jets)
    if not status.usable[0]:
        raise DegenerateMetricError(status.det[0], point)
    return MetricFrames(*(None if a is None else a[..., 0] for a in metric_frames(jets, [0])))


def covariant_derivatives(vals: np.ndarray, d1: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """nabla[a, k, i, j] = nabla_k w^i_j of each affinor a of a stack, at
    every lane, from a grid of affinors' values vals[a, i, j] and
    derivatives d1[k, a, i, j] and the Levi-Civita symbols gamma[j, s, k],
    each with a trailing lane axis."""
    return (
        np.swapaxes(d1, 0, 1)
        + lane_einsum("isk,asj->akij", gamma, vals)
        - lane_einsum("sjk,ais->akij", gamma, vals)
    )


# -- public operations ----------------------------------------------------------


def christoffel_from_b(g: MetricField, b: ConnectionField, point) -> np.ndarray:
    """Gamma^j_{sk} = -g_{is} b^{ij}_k, solving the defining representation."""
    g_lo = invert_metric(g, point)
    b_vals = eval_matrix(b.entries, point)
    return -np.einsum("is,ijk->jsk", g_lo, b_vals)


def levi_civita(g: MetricField, point) -> np.ndarray:
    """Christoffel symbols of the metric inverse to g^{ij}, via order-1 jets."""
    return metric_frame(g, point).gamma


def covariant_derivative_values(w: AffinorField, frame: MetricFrames) -> np.ndarray:
    """nabla_k w^i_j at the point of a one-point frame (:func:`metric_frame`)."""
    vals, d1, _ = eval_tape(compile_tape((w.entries,), w.dim, 1), [frame.point]).checked().at()
    return covariant_derivatives(vals, d1, frame.gamma[..., None])[0, ..., 0]
