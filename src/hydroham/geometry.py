"""Differential geometry derived from a contravariant metric field, at many
points at once.

Everything here evaluates to numpy arrays with a leading lane axis, one lane
per sample point; no symbolic Christoffel symbols or curvature are ever
formed.  Derivatives of the metric come from a jet tape of its entries,
derivatives of the inverse from d(g_lo) = -g_lo (d g_up) g_lo.  Contractions
go through :func:`lane_einsum`, so a lane's numbers do not depend on the rest
of its batch.  The single-point functions (:func:`metric_frame`,
:func:`eval_matrix`, :func:`eval_tensor3`, :func:`eval_matrix_jets`,
:func:`covariant_derivative_values`) are one-lane views of the batched ones
and raise where those flag a lane.

Index conventions, fixed once for the whole package (the lane axis, when
present, comes before all of these):

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

import itertools
from dataclasses import dataclass, fields
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
    """``np.einsum(spec)`` applied lane by lane along a leading lane axis of
    every operand (which ``spec`` leaves out).

    Each output entry is a plain sequential sum over the contracted indices
    in lexicographic order, built from elementwise products, so a lane's
    result does not depend on which other lanes share the batch; np.einsum
    may regroup a reduction depending on the operands' shapes.
    """
    inputs, out = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for sub, op in zip(inputs, operands):
        sizes.update(zip(sub, op.shape[1:]))
    summed = sorted(set("".join(inputs)) - set(out))
    views = []  # (operand as (lane, its summed indices, its output indices), ...)
    for sub, op in zip(inputs, operands):
        own = [c for c in summed if c in sub]
        perm = [0] + [1 + sub.index(c) for c in own] + [1 + sub.index(c) for c in out if c in sub]
        expand = (slice(None),) + tuple(slice(None) if c in sub else None for c in out)
        views.append((np.transpose(op, perm), [summed.index(c) for c in own], expand))
    total = None
    for combo in itertools.product(*(range(sizes[c]) for c in summed)):
        term = None
        for view, own, expand in views:
            x = view[(slice(None),) + tuple(combo[k] for k in own)][expand]
            term = x if term is None else term * x
        if total is None:
            total = term if len(views) > 1 or not summed else term.copy()
        else:
            total += term
    return total


def lane_max(x: np.ndarray) -> np.ndarray:
    """max |x| over everything but the leading lane axis."""
    return np.max(np.abs(x).reshape(len(x), -1), axis=1)


def _grid_leaves(entries):
    """(shape, flat list of leaves) of a nested grid of expressions."""
    if isinstance(entries, Expr):
        return (), [entries]
    shape, leaves = None, []
    for row in entries:
        sub, flat = _grid_leaves(row)
        shape = sub if shape is None else shape
        leaves.extend(flat)
    return (len(entries),) + (shape or ()), leaves


class GridTape(NamedTuple):
    """A grid of expressions compiled into one jet tape."""

    shape: tuple
    tape: Tape


def compile_grid(entries, dim: int, order: int) -> GridTape:
    """Compile a nested grid of expressions over ``dim`` variables; order 0
    for values only."""
    shape, leaves = _grid_leaves(entries)
    return GridTape(shape, compile_tape(leaves, dim, order))


class GridValues(NamedTuple):
    """A grid's values and derivatives at N points, lane axis first:
    vals (N, *shape), d1[:, k] = d_k, d2[:, l, k] = d_l d_k."""

    vals: np.ndarray
    d1: Optional[np.ndarray]
    d2: Optional[np.ndarray]
    tape_values: TapeValues

    @property
    def failed(self) -> np.ndarray:
        return self.tape_values.failed

    def error(self, lane: int):
        return self.tape_values.error(lane)


def grid_values(grid: GridTape, points) -> GridValues:
    """Evaluate a compiled grid at every row of ``points``; lanes that leave
    the domain are flagged, not raised."""
    values = eval_tape(grid.tape, points)
    vals, d1, d2 = values.derivatives()
    lanes, dim = values.points.shape
    return GridValues(
        vals.reshape((lanes,) + grid.shape),
        None if d1 is None else d1.reshape((lanes, dim) + grid.shape),
        None if d2 is None else d2.reshape((lanes, dim, dim) + grid.shape),
        values,
    )


def _one_lane(entries, point, order: int) -> GridValues:
    point = np.asarray(point, dtype=float)
    out = grid_values(compile_grid(entries, len(point), order), point[None])
    if out.failed[0]:
        raise out.error(0)
    return out


def eval_matrix(entries, point) -> np.ndarray:
    return _one_lane(entries, point, 0).vals[0]


def eval_tensor3(entries, point) -> np.ndarray:
    return _one_lane(entries, point, 0).vals[0]


def eval_matrix_jets(entries, point, order: int):
    """Values plus derivative arrays of a matrix of expressions.

    Returns (vals, d1) for order 1 and (vals, d1, d2) for order 2, with the
    derivative indices leading: d1[k, i, j] = d_k entry_{ij}.
    """
    out = _one_lane(entries, point, order)
    if order >= 2:
        return out.vals[0], out.d1[0], out.d2[0]
    return out.vals[0], out.d1[0]


def scaled_abs_det(m: np.ndarray) -> float:
    """|det| after scaling each row by its largest entry (0.0 if a row vanishes)."""
    return float(scaled_abs_dets(np.asarray(m)[None])[0])


def scaled_abs_dets(ms: np.ndarray) -> np.ndarray:
    """:func:`scaled_abs_det` of each matrix along a leading lane axis."""
    rowmax = np.max(np.abs(ms), axis=-1)
    vanishing = rowmax == 0.0
    det = np.abs(np.linalg.det(ms / np.where(vanishing, 1.0, rowmax)[..., None]))
    return np.where(np.any(vanishing, axis=-1), 0.0, det)


def invert_metric_values(g_up: np.ndarray, point, floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    det = scaled_abs_det(g_up)
    if det < floor:
        raise DegenerateMetricError(det, point)
    inv = np.linalg.inv(g_up)
    return (inv + inv.T) / 2.0


def invert_metric(g: MetricField, point, floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """Covariant metric g_{ij} at a point; raises DegenerateMetricError below
    the degeneracy floor."""
    return invert_metric_values(eval_matrix(g.entries, point), point, floor)


# -- frames -------------------------------------------------------------------


@dataclass
class MetricFrame:
    """Everything the checks need about a metric at one point."""

    point: np.ndarray
    g_up: np.ndarray
    g_lo: np.ndarray
    dg_up: np.ndarray
    dg_lo: np.ndarray
    gamma: np.ndarray  # Levi-Civita, gamma[j, s, k]
    d2g_up: Optional[np.ndarray] = None
    dgamma: Optional[np.ndarray] = None  # dgamma[l, j, s, k]
    riemann: Optional[np.ndarray] = None
    riemann_up: Optional[np.ndarray] = None


_FRAME_ARRAYS = tuple(f.name for f in fields(MetricFrame))


class MetricFrames(NamedTuple):
    """The arrays of :class:`MetricFrame` at N points, lane axis first, with
    each lane's status.  Lanes that failed or are degenerate hold values
    nothing should read (g_lo is NaN there)."""

    point: np.ndarray
    g_up: np.ndarray
    g_lo: np.ndarray
    dg_up: np.ndarray
    dg_lo: np.ndarray
    gamma: np.ndarray
    d2g_up: Optional[np.ndarray]
    dgamma: Optional[np.ndarray]
    riemann: Optional[np.ndarray]
    riemann_up: Optional[np.ndarray]
    failed: np.ndarray  # (N,) domain violation in a metric entry
    degenerate: np.ndarray  # (N,) scaled |det| below the floor
    det: np.ndarray  # (N,) scaled |det|
    grid: Optional[GridValues] = None  # for the errors of failed lanes

    @property
    def lanes(self) -> int:
        return len(self.point)

    def lane(self, i: int) -> MetricFrame:
        return MetricFrame(**{name: _lanes_of(getattr(self, name), i) for name in _FRAME_ARRAYS})

    def take(self, lanes) -> "MetricFrames":
        """The given lanes, in the given order, without the error source."""
        return MetricFrames(**{name: _lanes_of(getattr(self, name), lanes) for name in _LANE_ARRAYS})


_LANE_ARRAYS = _FRAME_ARRAYS + ("failed", "degenerate", "det")


def _lanes_of(array, lanes):
    return None if array is None else array[lanes]


def _levi_civita_from_parts(g_up, dg_lo):
    t = (
        lane_einsum("smk->msk", dg_lo)
        + lane_einsum("kms->msk", dg_lo)
        - dg_lo
    )
    return 0.5 * lane_einsum("jm,msk->jsk", g_up, t), t


def metric_frames(g, points, curvature: bool = False,
                  floor: float = DEGENERACY_FLOOR) -> MetricFrames:
    """Frames at every row of ``points`` (N, dim), lane axis first.

    ``g`` is a MetricField, or its entries already compiled by
    :func:`compile_grid` at order 2 with curvature and order 1 without.
    Domain violations and degeneracy are flagged per lane, not raised.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not isinstance(g, GridTape):
        g = compile_grid(g.entries, points.shape[1], 2 if curvature else 1)
    jets = grid_values(g, points)
    g_up, dg_up, d2g_up = jets.vals, jets.d1, jets.d2
    with np.errstate(all="ignore"):
        det = scaled_abs_dets(g_up)
        failed = jets.failed
        degenerate = ~failed & (det < floor)
        usable = (~failed & ~degenerate & np.isfinite(det))[:, None, None]
        inv = np.linalg.inv(np.where(usable, g_up, np.eye(g_up.shape[-1])))
        g_lo = np.where(usable, (inv + np.swapaxes(inv, 1, 2)) / 2.0, np.nan)
        lo_dg = lane_einsum("ia,kab->kib", g_lo, dg_up)  # g_lo d_k g_up
        dg_lo = -lane_einsum("kib,bj->kij", lo_dg, g_lo)
        gamma, t = _levi_civita_from_parts(g_up, dg_lo)
        if not curvature:
            return MetricFrames(points, g_up, g_lo, dg_up, dg_lo, gamma, None, None, None,
                                None, failed, degenerate, det, jets)
        # d_l d_k g_lo = -(d_l g_lo d_k g_up g_lo + g_lo d_l d_k g_up g_lo
        #                  + g_lo d_k g_up d_l g_lo), one contraction at a time;
        # sums accumulate in place to keep few (N, n, n, n, n) arrays alive
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
        riemann = lane_einsum("kjsl->jskl", dgamma) - lane_einsum("ljsk->jskl", dgamma)
        riemann += lane_einsum("jmk,msl->jskl", gamma, gamma)
        riemann -= lane_einsum("jml,msk->jskl", gamma, gamma)
        riemann_up = lane_einsum("is,jskl->ijkl", g_up, riemann)
    return MetricFrames(points, g_up, g_lo, dg_up, dg_lo, gamma, d2g_up, dgamma, riemann,
                        riemann_up, failed, degenerate, det, jets)


def metric_frame(g: MetricField, point, curvature: bool = False,
                 floor: float = DEGENERACY_FLOOR) -> MetricFrame:
    """Build the pointwise frame; order-2 jets are used only when curvature
    is requested."""
    frames = metric_frames(g, [point], curvature, floor)
    if frames.failed[0]:
        raise frames.grid.error(0)
    if frames.degenerate[0]:
        raise DegenerateMetricError(frames.det[0], point)
    return frames.lane(0)


def covariant_derivatives(vals: np.ndarray, d1: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """nabla_k w^i_j at every lane, from the values w^i_j and derivatives
    d1[k, i, j] of an affinor and the Levi-Civita symbols, each with a
    leading lane axis."""
    return (
        d1
        + lane_einsum("isk,sj->kij", gamma, vals)
        - lane_einsum("sjk,is->kij", gamma, vals)
    )


# -- public operations ----------------------------------------------------------


def christoffel_from_b(g: MetricField, b: ConnectionField, point,
                       floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """Gamma^j_{sk} = -g_{is} b^{ij}_k, solving the defining representation."""
    g_lo = invert_metric(g, point, floor)
    b_vals = eval_tensor3(b.entries, point)
    return -np.einsum("is,ijk->jsk", g_lo, b_vals)


def levi_civita(g: MetricField, point, floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """Christoffel symbols of the metric inverse to g^{ij}, via order-1 jets."""
    return metric_frame(g, point, curvature=False, floor=floor).gamma


def riemann_curvature(g: MetricField, point, floor: float = DEGENERACY_FLOOR):
    """Curvature of the Levi-Civita connection: (R^j_{skl}, g^{is} R^j_{skl})."""
    frame = metric_frame(g, point, curvature=True, floor=floor)
    return frame.riemann, frame.riemann_up


def covariant_derivative_affinor(w: AffinorField, g: MetricField, point,
                                 floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """nabla_k w^i_j under the Levi-Civita connection of g."""
    frame = metric_frame(g, point, curvature=False, floor=floor)
    return covariant_derivative_values(w, frame)


def covariant_derivative_values(w: AffinorField, frame: MetricFrame) -> np.ndarray:
    jets = _one_lane(w.entries, frame.point, 1)
    return covariant_derivatives(jets.vals, jets.d1, frame.gamma[None])[0]
