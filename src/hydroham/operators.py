"""Hamiltonianity checks for local and nonlocal first-order operators.

A local operator is a pair (g, b): metric coefficients g^{ij}(u) on D_x and
connection coefficients b^{ij}_k(u) on u^k_x.  It is Hamiltonian iff g is a
flat (pseudo-)Riemannian metric and b encodes its Levi-Civita connection.
A nonlocal operator adds signed affinor tails (eps_a, w_a); flatness is then
replaced by the Gauss equation against the tail sum, plus the Codazzi
symmetry, the pairing symmetry g_{ik} w^k_j = g_{jk} w^k_i and pairwise
commutation of the affinors.

Every check samples the identities on a seeded plan of the operator's
dimension (a plan of another raises ``ValueError``) and reports one record
per condition.  Residuals are normalized by the largest magnitude among the
terms entering each identity, so exponential prefactors do not distort the
verdict; a condition passes only if it is within tolerance at every point.
Plans are walked by :func:`~hydroham.sampling.resolve`, under its one rule:
a draw at which g, b or a tail leaves its domain is redrawn, and so is one
at which g is degenerate.  Each round evaluates the tapes of g, b and the
tails, compiled once per operator object, at every draw, reads the status
of each draw from their :class:`~hydroham.exprs.TapeValues`, and forms
derivatives and builds curvature frames only at the draws that resolve, in
batches of :data:`FRAME_ENTRIES` entries of an n^4 array, so at most
``FRAME_ENTRIES // n**4`` lanes at a time (256 at n = 3), which bounds a
check's memory in n; a round at which none resolves runs no contraction, so
a metric degenerate everywhere costs two evaluator calls per block, the
second its last round in one call.
The local check is the nonlocal one without tails, its flatness the Gauss
equation against an empty tail sum.  A pencil is one local check walked for
every lambda in lockstep (:func:`~hydroham.sampling.resolve_walks`) on a
pair compiled once per pair of operator objects: an evaluator call is one
array of draws and the lambdas that read it, whole rounds of at most
``RESAMPLE_BUDGET`` x ``BLOCK`` lanes; the pair's tapes run once per row of
the array, and each lambda's member is formed from their coefficients in
that lambda's lanes; one round kernel serves both.  The checks compute
per-point (raw, scale) pairs, with numpy's warnings off in the walk, and
:mod:`~hydroham.reports` makes the conditions of them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exprs import (Const, Deriv, Expr, NamedConst, Tape, TapeValues, as_expr, compile_tape,
                    eval_tape, take_lanes)
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import (
    AffinorField,
    ConnectionField,
    MetricField,
    MetricFrames,
    Patterned,
    covariant_derivatives,
    lane_einsum,
    lane_max,
    metric_frames,
    metric_status,
    pencil_values,
)
from .reports import CheckReport, ConditionResult, table_conditions, walk_report
from .sampling import (REDRAW_DOMAIN, Resolved, SamplePlan, check_dimension, resolve,
                       resolve_walks)
from .systems import HydroSystem

DEGENERATE_FRACTION_LIMIT = 0.2


@dataclass(frozen=True)
class LocalOperator:
    dim: int
    g: MetricField
    b: ConnectionField

    def __post_init__(self):
        if self.g.dim != self.dim or self.b.dim != self.dim:
            raise ValueError("operator parts disagree on dimension")

    @cached_property
    def _grids(self) -> dict:
        # (part, order) -> Tape, filled by _grid; ("pencil", id(b)) -> (g
        # pair, b pair), filled by _pencil_grids while b lives
        return {}


@dataclass(frozen=True)
class NonlocalOperator:
    local: LocalOperator
    tails: tuple[AffinorField, ...]

    def __post_init__(self):
        object.__setattr__(self, "tails", tuple(self.tails))
        for w in self.tails:
            if w.dim != self.local.dim:
                raise ValueError("tail dimension disagrees with the local part")

    @property
    def dim(self) -> int:
        return self.local.dim

    @cached_property
    def _grids(self) -> dict:
        # ("tails", 1) -> Tape, filled by _grid; the tail kernels read its values too
        return {}


def _grid(op, part: str, order: int) -> Tape:
    """The grid of ``op``'s part g, b (a local operator) or tails (a nonlocal
    one), compiled at ``order`` once per object."""
    key = (part, order)
    grid = op._grids.get(key)
    if grid is None:
        entries = (tuple(w.entries for w in op.tails) if part == "tails"
                   else getattr(op, part).entries)
        grid = op._grids.setdefault(key, compile_tape(entries, op.dim, order))
    return grid


def _pencil_grids(a: LocalOperator, b: LocalOperator) -> tuple[Tape, Tape]:
    """The pair grids of the pencil of ``a`` and ``b``: g_a and g_b in one
    order-2 grid, b_a and b_b in one of values, compiled once per pair of
    objects and kept with ``a``'s grids until ``b`` is collected, so its id
    names no other object and a partner leaves nothing behind."""
    key = ("pencil", id(b))
    entry = a._grids.get(key)
    if entry is None:
        entry = a._grids.setdefault(key, (compile_tape((a.g.entries, b.g.entries), a.dim, 2),
                                          compile_tape((a.b.entries, b.b.entries), a.dim, 0)))
        weakref.finalize(b, a._grids.pop, key, None)
    return entry


# -- sampling of metric frames -------------------------------------------------

REDRAW_DEGENERATE = 2  # evaluator status: the metric is degenerate there
# Entries of an n^4 frame array per batch of a frame round: a batch holds
# FRAME_ENTRIES // n**4 lanes (at least one), so 256 at n = 3, 1,296 at n = 2
# and 5 at n = 8, and the frames' arrays stay near one size whatever n.
# Larger n = 3 batches are slower, their gathers leaving the cache.
FRAME_ENTRIES = 256 * 3**4


def _frame_check(title: str, a: NonlocalOperator, plan: SamplePlan, table) -> CheckReport:
    """Resolve a curvature frame per plan point, with b and the tails, and
    report the symmetry and nondegeneracy of g (over every draw at which the
    fields evaluated) followed by the conditions of ``table``, as
    :func:`_frame_round` computes them each round and :func:`_frame_report`
    assembles them."""
    check_dimension(plan, "an operator", a.dim)
    grids = [_grid(a.local, "g", 2), _grid(a.local, "b", 0)]
    if a.tails:
        grids.append(_grid(a, "tails", 1))

    def evaluate(points):
        g, b, *w = [eval_tape(grid, points) for grid in grids]
        return _frame_round(table, a.tails, g, b, w)

    return _frame_report(title, resolve(plan, evaluate), plan, table)


def _frame_round(table, tails, g: TapeValues, b: TapeValues, w) -> tuple:
    """One round of a frame check at the lanes of g's order-2 jets, b's values
    and, with ``tails``, the tails' order-1 jets ``w`` (empty without tails):
    the status of each lane and the payload :func:`_frame_report` reads.

    A draw is redrawn where g, b or a tail leaves its domain, and where g is
    degenerate; a domain violation outranks degeneracy.  Frames are built
    and the connection and tail kernels run on the resolved lanes whose
    metric value is finite (elsewhere the residuals stay NaN and fail as
    non-finite), in batches of at most ``FRAME_ENTRIES // n**4`` lanes (at
    least one), read when the round runs, so a last round of many lanes
    builds no larger arrays, and neither does a large n.  A batch of every
    lane of the round reads the jets and values in place, and any other
    gathers its lanes (:func:`~hydroham.exprs.take_lanes`).  ``table`` rows
    are (id, description, short description, kernel result).
    """
    metric = metric_status(g)
    failed = np.logical_or.reduce([g.failed, b.failed] + [x.failed for x in w])
    status = np.where(failed, REDRAW_DOMAIN, np.where(metric.degenerate, REDRAW_DEGENERATE, 0))
    symmetric = lane_max(g.vals - np.swapaxes(g.vals, 0, 1)), lane_max(g.vals)
    build = np.flatnonzero((status == 0) & metric.usable)
    raw, scale = np.full((2, len(status), len(table)), np.nan)
    step = max(1, FRAME_ENTRIES // len(g.vals) ** 4)
    for at in range(0, build.size, step):
        lanes = build[at:at + step]
        frames = metric_frames(g, lanes)
        found = connection_residuals(frames, Patterned(take_lanes(b.vals, lanes), b.patterns[0]))
        w_arrays = map(Patterned, w[0].at(lanes)[:2], w[0].patterns[:2]) if w else (None, None)
        found.update(tail_residuals(frames, tails, *w_arrays))
        for k, (*_, key) in enumerate(table):
            raw[lanes, k], scale[lanes, k] = found[key]
    return status, symmetric + (raw, scale)


def _frame_report(title: str, found: Resolved, plan: SamplePlan, table) -> CheckReport:
    """The report of a walk of :func:`_frame_round`: g's symmetry over every
    draw at which the fields evaluated, its nondegeneracy, then the
    conditions of ``table`` at the resolved points, or, when no point
    resolved, each row reported not evaluated under its short description."""
    evaluated = found.status != REDRAW_DOMAIN
    sym_raw, sym_scale, _, _ = found.rows
    conditions = table_conditions((_SYMMETRIC,), found.draws[evaluated],
                                  [(sym_raw[evaluated], sym_scale[evaluated])], plan.tolerance)
    conditions.append(_nondegeneracy_condition(found))
    _, _, raw, scale = found.payload
    if len(found.points):
        conditions += table_conditions(table, found.points, zip(raw.T, scale.T), plan.tolerance)
    else:
        conditions += [_not_evaluated(cid, short) for cid, _, short, _ in table]
    return CheckReport(title=title, conditions=conditions, plan=plan)


def _nondegeneracy_condition(found: Resolved) -> ConditionResult:
    degenerate = found.status == REDRAW_DEGENERATE
    bad_fraction = np.count_nonzero(degenerate) / len(found.status)
    failed = len(found.unresolved) > 0 or bad_fraction > DEGENERATE_FRACTION_LIMIT
    note = None
    if _identically_degenerate(found):
        note = "identically degenerate"
    elif failed:
        note = f"degenerate at {bad_fraction:.0%} of attempted points"
    return ConditionResult(
        cid="metric_nondegenerate",
        description="|det g| above the degeneracy floor on the box",
        residual=1.0 if failed else 0.0,
        witness=tuple(float(x) for x in found.draws[degenerate][-1])
        if failed and degenerate.any() else None,
        passed=not failed,
        note=note,
    )


def _identically_degenerate(found: Resolved) -> bool:
    """No point of the walk resolved, and some draw had a degenerate metric."""
    return not len(found.points) and bool((found.status == REDRAW_DEGENERATE).any())


def _not_evaluated(cid: str, description: str) -> ConditionResult:
    return ConditionResult(
        cid=cid,
        description=description,
        residual=None,
        witness=None,
        passed=False,
        note="not evaluated (metric degenerate)",
    )


# -- per-lane residual kernels ---------------------------------------------------
#
# Each returns, per condition, (raw, scale) arrays with one entry per lane.


def skew_residuals(g_vals: np.ndarray, dg: np.ndarray, b_vals: np.ndarray) -> dict:
    """g^{ij} = g^{ji} and b^{ij}_k + b^{ji}_k = d_k g^{ij}, from the values
    and first derivatives dg[k, i, j] of g and the values of b."""
    lhs = b_vals + np.swapaxes(b_vals, 0, 1)
    rhs = np.moveaxis(dg, 0, 2)
    return {
        "metric_symmetric": (lane_max(g_vals - np.swapaxes(g_vals, 0, 1)), lane_max(g_vals)),
        "skew_pairing": (lane_max(lhs - rhs), np.maximum(lane_max(b_vals), lane_max(dg))),
    }


def connection_residuals(frames: MetricFrames, b_vals: Patterned) -> dict:
    """Symmetry of Gamma^j_{sk} = -g_{is} b^{ij}_k, and metric compatibility
    nabla_k g_{ij} = d_k g_{ij} - Gamma^s_{ik} g_{sj} - Gamma^s_{jk} g_{is},
    from the frames and the values of b, a :class:`~hydroham.geometry.Patterned`."""
    gamma = -lane_einsum("is,ijk->jsk", frames.g_lo, b_vals)
    t1 = lane_einsum("sik,sj->kij", gamma, frames.g_lo)
    # the term Gamma^s_{jk} g_{is} is t1 with i and j swapped, bit for bit:
    # g_lo, (inv + inv^T)/2, is exactly symmetric in values and pattern, so
    # each entry is the same sum of the same products; its lane_max is t1's
    t2 = t1.transpose("kji->kij").values
    t1 = t1.values
    dg_lo = frames.dg_lo.values
    scale = np.maximum(lane_max(dg_lo), lane_max(t1))
    return {
        "connection_symmetric": (lane_max(gamma.values - gamma.transpose("jsk->jks").values),
                                 lane_max(gamma.values)),
        "metric_compatible": (lane_max(dg_lo - t1 - t2), scale),
    }


def _worst(raw, scale):
    """Per lane, the (raw, scale) of the row of ``raw`` (rows, lanes) that
    is largest, the last one on ties; a NaN row outranks every number, since
    it must reach the verdict, and the last NaN row wins.  (0, 1) with no
    rows."""
    if not len(raw):
        return np.zeros(raw.shape[-1]), np.ones(raw.shape[-1])
    # np.argmax takes the first NaN, else the first maximum: of the reversed rows
    pick = len(raw) - 1 - np.argmax(raw[::-1], axis=0), np.arange(raw.shape[-1])
    return raw[pick], scale[pick]


def tail_residuals(frames: MetricFrames, tails, w_vals: Patterned, w_d1: Patterned) -> dict:
    """The tail conditions t1-t4, from the frames and the values (tails, n,
    n, lanes) and first derivatives (n, tails, n, n, lanes) of the affinors'
    order-1 jets, each a :class:`~hydroham.geometry.Patterned`: t1, t3 and
    t4 read the values, and t2 (Codazzi) both.  t1, t2 and t4 run as one
    contraction each over an axis of tails (or of pairs of tails), and keep
    the worst tail (or pair) per lane, the last one on ties; t3 compares the
    curvature with the tail sum, one contraction onto the n^4 entries with
    no tail axis (:func:`gauss_tail_sum`)."""
    none = np.empty((0, frames.lanes))
    t1 = t2 = t4 = (none, none)  # (raw, scale), one row per tail or pair
    gauss = frames.riemann_up.values  # minus the tail sum, which is zero without tails
    scales = [lane_max(gauss), lane_max(frames.dgamma.values), lane_max(frames.gamma_gamma.values)]
    if tails:
        gw = lane_einsum("ik,akj->aij", frames.g_lo, w_vals).values
        t1 = lane_max(gw - np.swapaxes(gw, 1, 2), 1), lane_max(gw, 1)
        nabla = covariant_derivatives(w_vals, w_d1, frames.gamma)
        t2 = (lane_max(nabla.values - nabla.transpose("akij->ajik").values, 1),
              lane_max(nabla.values, 1))
        tail_sum = gauss_tail_sum(tails, w_vals)
        gauss = gauss - tail_sum
        scales.append(lane_max(tail_sum))
        x, y = np.triu_indices(len(tails), 1)  # the pairs x < y, in lexicographic order
        xy = lane_einsum("pik,pkj->pij", w_vals[x], w_vals[y]).values
        yx = lane_einsum("pik,pkj->pij", w_vals[y], w_vals[x]).values
        t4 = lane_max(xy - yx, 1), lane_max(xy, 1)
    return {
        "t1_pairing_symmetric": _worst(*t1),
        "t2_codazzi": _worst(*t2),
        "t3_gauss": (lane_max(gauss), np.maximum.reduce(scales)),
        "t4_tails_commute": _worst(*t4),
    }


# -- checks ---------------------------------------------------------------------

_SYMMETRIC = ("metric_symmetric", "g^{ij} = g^{ji}")
# (id, description, the shorter description reported when g is degenerate
# everywhere, the kernel result it reads)
_LOCAL_CONDITIONS = (
    ("connection_symmetric", "Gamma^j_{sk} = Gamma^j_{ks} for Gamma derived from b",
     "Gamma^j_{sk} = Gamma^j_{ks}", "connection_symmetric"),
    ("metric_compatible", "nabla_k g_{ij} = 0 under the connection derived from b",
     "nabla g = 0", "metric_compatible"),
)
# with no tails the Gauss equation says the curvature vanishes
_FLAT_CONDITIONS = _LOCAL_CONDITIONS + (
    ("metric_flat", "Riemann curvature of g vanishes", "curvature of g vanishes", "t3_gauss"),
)
_TAIL_CONDITIONS = _LOCAL_CONDITIONS + tuple((cid, desc, short, cid) for cid, desc, short in (
    ("t1_pairing_symmetric", "g_{ik} w^k_j = g_{jk} w^k_i", "g_{ik} w^k_j symmetric"),
    ("t2_codazzi", "nabla_k w^i_j = nabla_j w^i_k", "nabla_k w^i_j = nabla_j w^i_k"),
    ("t3_gauss", "R^{ij}_{kl} = sum_a eps_a (w^i_l w^j_k - w^i_k w^j_l)",
     "curvature equals the tail sum"),
    ("t4_tails_commute", "[w_a, w_b] = 0 for all tail pairs", "[w_a, w_b] = 0"),
))


def check_skew_adjoint(a: LocalOperator, plan: SamplePlan) -> CheckReport:
    """Formal skew-adjointness: g symmetric and b^{ij}_k + b^{ji}_k = d_k g^{ij}."""
    check_dimension(plan, "an operator", a.dim)
    g_grid, b_grid = _grid(a, "g", 1), _grid(a, "b", 0)
    table = (_SYMMETRIC, ("skew_pairing", "b^{ij}_k + b^{ji}_k = d_k g^{ij}"))

    def evaluate(points):
        g, b = eval_tape(g_grid, points), eval_tape(b_grid, points)
        found = skew_residuals(*g.at()[:2], b.vals)
        return (np.where(g.failed | b.failed, REDRAW_DOMAIN, 0),
                found["metric_symmetric"] + found["skew_pairing"])

    return walk_report("skew-adjointness", table, plan, evaluate)[0]


def check_local_hamiltonian(a: LocalOperator, plan: SamplePlan) -> CheckReport:
    """The five conditions for a local operator to be Hamiltonian: symmetric
    nondegenerate metric, symmetric connection, metric compatibility, and a
    flat metric (the Gauss equation with no tails)."""
    return _frame_check("local Hamiltonian", NonlocalOperator(a, ()), plan, _FLAT_CONDITIONS)


def gauss_tail_sum(tails, w_values: Patterned) -> np.ndarray:
    """sum_a eps_a (w^i_{a l} w^j_{a k} - w^i_{a k} w^j_{a l}), shaped
    (n, n, n, n, lanes), from the values w_values[a, i, j, lanes] of the
    tails, a :class:`~hydroham.geometry.Patterned` with one lane axis.  One
    signed contraction onto the n^4 entries, half = sum_a eps_a w^i_{a l}
    w^j_{a k} in tail order, gives the sum as half minus half with k and l
    swapped, with no array of a tail axis.  That is the sum of the
    per-tail differences up to roundoff.  It has their doubles, up to the
    sign of a zero, for one tail, and for diagonal tails: there one side of
    each entry's difference is zero, or, at i = j = k = l, both sides are
    the same entry of half."""
    signs = np.array([t.sign for t in tails], dtype=float).reshape(-1, 1, 1, 1)
    half = lane_einsum("ail,ajk->ijkl", w_values * signs, w_values)
    return (half - half.swapaxes(2, 3)).values


def check_ferapontov(a: NonlocalOperator, plan: SamplePlan) -> CheckReport:
    """Hamiltonianity conditions for a nonlocal operator: the local
    conditions minus flatness, plus pairing symmetry (t1), Codazzi symmetry
    (t2), the Gauss equation (t3) and commuting affinors (t4)."""
    return _frame_check("nonlocal Hamiltonian", a, plan, _TAIL_CONDITIONS)


def check_pencil_compatibility(a: LocalOperator, b: LocalOperator, lambdas,
                               plan: SamplePlan) -> CheckReport:
    """Run the local Hamiltonian check on g_a + lam g_b, b_a + lam b_b for
    each lam.  A lam at which the combined metric is identically degenerate
    carries no constraint (the compatibility identities are polynomial in
    lam) and is skipped with a note.  ValueError without any lam, which
    would pass with no condition checked.

    The pair is compiled once per pair of operator objects, g_a and g_b into
    one order-2 grid and b_a and b_b into one of values, and every lam walks
    the plan in lockstep (:func:`~hydroham.sampling.resolve_walks`): each
    evaluator call is one array of a round's draws and the lams that read
    it, whole rounds of up to ``RESAMPLE_BUDGET`` x
    :data:`~hydroham.sampling.BLOCK` lanes; it runs the two pair grids once
    at each row of the array, on at most BLOCK rows at a time, and writes
    each lam's member into that lam's lanes, the rows once per lam
    (:func:`~hydroham.geometry.pencil_values`), so the lams of a round that
    draw the same points share their tape runs, and every lam of a call
    shares the status passes and frame builds.  Each lam's report is the
    one :func:`check_local_hamiltonian` gives on the operator of the trees
    g_a + lam g_b, b_a + lam b_b; a draw is redrawn where g_a, g_b, b_a or
    b_b leaves its domain, whatever lam.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("a pencil check needs at least one lambda")
    if a.dim != b.dim:
        raise ValueError("pencil requires operators of equal dimension")
    check_dimension(plan, "an operator", a.dim)
    g_pair, b_pair = _pencil_grids(a, b)
    lam_of_walk = [_constant(lam) for lam in lambdas]

    def evaluate(points, walks):
        lams = [lam_of_walk[w] for w in walks]
        g, bb = pencil_values(g_pair, points, lams), pencil_values(b_pair, points, lams)
        return _frame_round(_FLAT_CONDITIONS, (), g, bb, ())

    conditions: list[ConditionResult] = []
    notes: list[str] = []
    for lam, found in zip(lambdas, resolve_walks(plan, evaluate, len(lambdas))):
        if _identically_degenerate(found):
            conditions.append(
                ConditionResult(
                    cid=f"lambda={lam}:degenerate",
                    description="combined metric identically degenerate; no constraint at this lambda",
                    residual=None,
                    witness=None,
                    passed=True,
                    note="skipped",
                )
            )
            notes.append(f"lambda={lam}: identically degenerate combination skipped")
            continue
        sub = _frame_report("local Hamiltonian", found, plan, _FLAT_CONDITIONS)
        conditions += [replace(c, cid=f"lambda={lam}:{c.cid}") for c in sub.conditions]
    return CheckReport(
        title="pencil compatibility", conditions=conditions, plan=plan, notes=notes
    )


def _constant(lam) -> float:
    """The double a tape computes with for the constant ``lam``, as it does in
    the trees g_a + lam g_b of a pencil's member."""
    e = as_expr(lam)
    if not isinstance(e, (Const, NamedConst)):
        raise TypeError(f"a pencil parameter must be a constant, got {lam!r}")
    return float(e.value)


def hamiltonian_flow(a: LocalOperator, h: Expr):
    """The hydrodynamic system u_t = v u_x generated by a density depending
    on u only: v^i_k = g^{ij} d_j d_k H + b^{ij}_k d_j H.

    Entries are expressions over the operator's coefficients and
    :class:`~hydroham.exprs.Deriv` nodes of the density, so the derivatives
    come from jets.
    """
    n = a.dim
    grad = [Deriv(h, j) for j in range(n)]

    def entry(i: int, k: int) -> Expr:
        terms = [a.g.entries[i][j] * Deriv(grad[j], k) + a.b.entries[i][j][k] * grad[j]
                 for j in range(n)]
        return sum(terms[1:], terms[0])

    return HydroSystem(dim=n, v=tuple(tuple(entry(i, k) for k in range(n)) for i in range(n)))
