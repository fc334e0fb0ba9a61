"""Hamiltonianity checks for local and nonlocal first-order operators.

A local operator is a pair (g, b): metric coefficients g^{ij}(u) on D_x and
connection coefficients b^{ij}_k(u) on u^k_x.  It is Hamiltonian iff g is a
flat (pseudo-)Riemannian metric and b encodes its Levi-Civita connection.
A nonlocal operator adds signed affinor tails (eps_a, w_a); flatness is then
replaced by the Gauss equation against the tail sum, plus the Codazzi
symmetry, the pairing symmetry g_{ik} w^k_j = g_{jk} w^k_i and pairwise
commutation of the affinors.

Every check samples the identities on a seeded plan and reports one record
per condition.  Residuals are normalized by the largest magnitude among the
terms entering each identity, so exponential prefactors do not distort the
verdict; a condition passes only if it is within tolerance at every point.
Plans are walked by :func:`~hydroham.sampling.resolve`, under its one rule:
a draw at which g, b or a tail leaves its domain is redrawn, and so is one
at which g is degenerate.  The local check is the nonlocal one without
tails, its flatness the Gauss equation against an empty tail sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprs import Deriv, Expr, as_expr
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import (
    AffinorField,
    ConnectionField,
    MetricField,
    MetricFrames,
    compile_grid,
    covariant_derivatives,
    grid_values,
    lane_einsum,
    lane_max,
    metric_frames,
)
from .reports import CheckReport, ConditionResult, condition_from_arrays
from .sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, Resolved, SamplePlan, resolve

DEGENERATE_FRACTION_LIMIT = 0.2


@dataclass(frozen=True)
class LocalOperator:
    dim: int
    g: MetricField
    b: ConnectionField

    def __post_init__(self):
        if self.g.dim != self.dim or self.b.dim != self.dim:
            raise ValueError("operator parts disagree on dimension")


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


# -- sampling of metric frames -------------------------------------------------

REDRAW_DEGENERATE = 2  # evaluator status: the metric is degenerate there


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def _frame_check(title: str, a: NonlocalOperator, plan: SamplePlan, table) -> CheckReport:
    """Resolve a curvature frame per plan point, with b and the tails, and
    report the symmetry and nondegeneracy of g (over every draw at which the
    fields evaluated) followed by the conditions of ``table``.

    A draw is redrawn where g, b or a tail leaves its domain, and where g is
    degenerate.  Each round runs the connection and tail kernels once, on
    its resolved lanes.  ``table`` rows are (id, description, short
    description, kernel result); when no point resolves, each row is
    reported not evaluated under its short description.
    """
    op = a.local
    g_grid = compile_grid(op.g.entries, plan.dim, 2)
    b_grid = compile_grid(op.b.entries, plan.dim, 0)
    tail_entries = tuple(w.entries for w in a.tails)
    w_grids = [compile_grid(tail_entries, plan.dim, order) for order in (0, 1)] if a.tails else []

    def evaluate(points):
        frames = metric_frames(g_grid, points, curvature=True)
        b, *w = [grid_values(grid, points) for grid in [b_grid] + w_grids]
        failed = np.logical_or.reduce([frames.failed, b.failed] + [x.failed for x in w])
        status = np.where(failed, REDRAW_DOMAIN, np.where(frames.degenerate, REDRAW_DEGENERATE, 0))
        g = frames.g_up
        symmetric = lane_max(g - np.swapaxes(g, 1, 2)), lane_max(g)
        ok = status == 0
        raw, scale = np.full((2, len(points), len(table)), np.nan)
        if ok.any():
            frames = frames.take(ok)
            found = connection_residuals(frames, b.vals[ok])
            w_arrays = [x[ok] for x in (w[0].vals, w[1].vals, w[1].d1)] if w else [None] * 3
            found.update(tail_residuals(frames, a.tails, *w_arrays))
            for k, (*_, key) in enumerate(table):
                raw[ok, k], scale[ok, k] = found[key]
        return status, symmetric + (raw, scale)

    found = resolve(plan, evaluate, "domain too hostile: sample point {} exhausted "
                    f"{RESAMPLE_BUDGET} redraws")
    evaluated = found.status != REDRAW_DOMAIN
    symmetric = condition_from_arrays("metric_symmetric", "g^{ij} = g^{ji}",
                                      found.draws[evaluated], found.rows[0][evaluated],
                                      found.rows[1][evaluated], plan.tolerance)
    conditions = [symmetric, _nondegeneracy_condition(found)]
    _, _, raw, scale = found.payload
    if len(found.points):
        conditions += [condition_from_arrays(cid, desc, found.points, raw[:, k], scale[:, k],
                                             plan.tolerance)
                       for k, (cid, desc, *_) in enumerate(table)]
    else:
        conditions += [_not_evaluated(cid, short) for cid, _, short, _ in table]
    return CheckReport(title=title, conditions=conditions, plan=plan)


def _nondegeneracy_condition(found: Resolved) -> ConditionResult:
    degenerate = found.status == REDRAW_DEGENERATE
    bad_fraction = np.count_nonzero(degenerate) / len(found.status)
    failed = len(found.unresolved) > 0 or bad_fraction > DEGENERATE_FRACTION_LIMIT
    note = None
    if not len(found.points) and degenerate.any():
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
    lhs = b_vals + np.swapaxes(b_vals, 1, 2)
    rhs = np.transpose(dg, (0, 2, 3, 1))
    return {
        "metric_symmetric": (lane_max(g_vals - np.swapaxes(g_vals, 1, 2)), lane_max(g_vals)),
        "skew_pairing": (lane_max(lhs - rhs), np.maximum(lane_max(b_vals), lane_max(dg))),
    }


def connection_residuals(frames: MetricFrames, b_vals: np.ndarray) -> dict:
    """Symmetry of Gamma^j_{sk} = -g_{is} b^{ij}_k, and metric compatibility
    nabla_k g_{ij} = d_k g_{ij} - Gamma^s_{ik} g_{sj} - Gamma^s_{jk} g_{is}."""
    gamma = -lane_einsum("is,ijk->jsk", frames.g_lo, b_vals)
    t1 = lane_einsum("sik,sj->kij", gamma, frames.g_lo)
    t2 = lane_einsum("sjk,is->kij", gamma, frames.g_lo)
    scale = np.maximum(np.maximum(lane_max(frames.dg_lo), lane_max(t1)), lane_max(t2))
    return {
        "connection_symmetric": (lane_max(gamma - lane_einsum("jsk->jks", gamma)),
                                 lane_max(gamma)),
        "metric_compatible": (lane_max(frames.dg_lo - t1 - t2), scale),
    }


def _keep_worst(worst, raw, scale):
    """Per lane, replace the kept (raw, scale) where raw is at least as
    large (or NaN, which must reach the verdict)."""
    take = (raw >= worst[0]) | np.isnan(raw)
    return np.where(take, raw, worst[0]), np.where(take, scale, worst[1])


def tail_residuals(frames: MetricFrames, tails, w_vals, w_jet_vals, w_d1) -> dict:
    """The tail conditions t1-t4, from scalar values (lanes, tails, n, n) of
    the affinors and the values and first derivatives (lanes, n, tails, n, n)
    of their order-1 jets.  For t1, t2 and t4 the worst tail (or
    pair) is kept per lane, the last one on ties."""
    lanes, n = frames.lanes, frames.g_up.shape[-1]
    out = {}
    worst = (np.zeros(lanes), np.ones(lanes))
    for a in range(len(tails)):
        gw = lane_einsum("ik,kj->ij", frames.g_lo, w_vals[:, a])
        worst = _keep_worst(worst, lane_max(gw - np.swapaxes(gw, 1, 2)), lane_max(gw))
    out["t1_pairing_symmetric"] = worst

    worst = (np.zeros(lanes), np.ones(lanes))
    for a in range(len(tails)):
        nabla = covariant_derivatives(w_jet_vals[:, a], w_d1[:, :, a], frames.gamma)
        worst = _keep_worst(worst, lane_max(nabla - lane_einsum("kij->jik", nabla)),
                            lane_max(nabla))
    out["t2_codazzi"] = worst

    if tails:
        tail_sum = gauss_tail_sum(tails, [w_vals[:, a] for a in range(len(tails))], n)
    else:
        tail_sum = np.zeros((lanes,) + (n,) * 4)
    gg = lane_einsum("jmk,msl->jskl", frames.gamma, frames.gamma)
    scale = np.maximum.reduce([lane_max(frames.riemann_up), lane_max(tail_sum),
                               lane_max(frames.dgamma), lane_max(gg)])
    out["t3_gauss"] = (lane_max(frames.riemann_up - tail_sum), scale)

    worst = (np.zeros(lanes), np.ones(lanes))
    for x in range(len(tails)):
        for y in range(x + 1, len(tails)):
            xy = lane_einsum("ik,kj->ij", w_vals[:, x], w_vals[:, y])
            yx = lane_einsum("ik,kj->ij", w_vals[:, y], w_vals[:, x])
            worst = _keep_worst(worst, lane_max(xy - yx), lane_max(xy))
    out["t4_tails_commute"] = worst
    return out


# -- checks ---------------------------------------------------------------------

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


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def check_skew_adjoint(a: LocalOperator, plan: SamplePlan) -> CheckReport:
    """Formal skew-adjointness: g symmetric and b^{ij}_k + b^{ji}_k = d_k g^{ij}."""
    g_grid = compile_grid(a.g.entries, plan.dim, 1)
    b_grid = compile_grid(a.b.entries, plan.dim, 0)

    def evaluate(points):
        g, b = grid_values(g_grid, points), grid_values(b_grid, points)
        return np.where(g.failed | b.failed, REDRAW_DOMAIN, 0), (g.vals, g.d1, b.vals)

    found = resolve(plan, evaluate, "domain too hostile at sample point {}")
    table = (("metric_symmetric", "g^{ij} = g^{ji}"),
             ("skew_pairing", "b^{ij}_k + b^{ji}_k = d_k g^{ij}"))
    results = skew_residuals(*found.payload)
    conditions = [condition_from_arrays(cid, desc, found.points, *results[cid], plan.tolerance)
                  for cid, desc in table]
    return CheckReport(title="skew-adjointness", conditions=conditions, plan=plan)


def check_local_hamiltonian(a: LocalOperator, plan: SamplePlan) -> CheckReport:
    """The five conditions for a local operator to be Hamiltonian: symmetric
    nondegenerate metric, symmetric connection, metric compatibility, and a
    flat metric (the Gauss equation with no tails)."""
    return _frame_check("local Hamiltonian", NonlocalOperator(a, ()), plan, _FLAT_CONDITIONS)


def gauss_tail_sum(tails, w_values, dim: int | None = None) -> np.ndarray:
    """sum_a eps_a (w^i_{a l} w^j_{a k} - w^i_{a k} w^j_{a l}); the value
    arrays may carry leading lane axes."""
    if dim is None:
        dim = w_values[0].shape[-1]
    lead = np.shape(w_values[0])[:-2] if len(w_values) else ()
    out = np.zeros(lead + (dim,) * 4)
    for w, vals in zip(tails, w_values):
        out += w.sign * (
            np.einsum("...il,...jk->...ijkl", vals, vals)
            - np.einsum("...ik,...jl->...ijkl", vals, vals)
        )
    return out


def check_ferapontov(a: NonlocalOperator, plan: SamplePlan) -> CheckReport:
    """Hamiltonianity conditions for a nonlocal operator: the local
    conditions minus flatness, plus pairing symmetry (t1), Codazzi symmetry
    (t2), the Gauss equation (t3) and commuting affinors (t4)."""
    return _frame_check("nonlocal Hamiltonian", a, plan, _TAIL_CONDITIONS)


def pencil_operator(a: LocalOperator, b: LocalOperator, lam: float) -> LocalOperator:
    """The combination with metric g_a + lam g_b and connection b_a + lam b_b."""
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


def check_pencil_compatibility(a: LocalOperator, b: LocalOperator, lambdas,
                               plan: SamplePlan) -> CheckReport:
    """Run the local Hamiltonian check on g_a + lam g_b, b_a + lam b_b for
    each lam.  A lam at which the combined metric is identically degenerate
    carries no constraint (the compatibility identities are polynomial in
    lam) and is skipped with a note.
    """
    conditions: list[ConditionResult] = []
    notes: list[str] = []
    for lam in lambdas:
        sub = check_local_hamiltonian(pencil_operator(a, b, lam), plan)
        degenerate_everywhere = any(
            c.cid == "metric_nondegenerate" and c.note == "identically degenerate"
            for c in sub.conditions
        )
        if degenerate_everywhere:
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
        for c in sub.conditions:
            conditions.append(
                ConditionResult(
                    cid=f"lambda={lam}:{c.cid}",
                    description=c.description,
                    residual=c.residual,
                    witness=c.witness,
                    passed=c.passed,
                    note=c.note,
                )
            )
    return CheckReport(
        title="pencil compatibility", conditions=conditions, plan=plan, notes=notes
    )


def hamiltonian_flow(a: LocalOperator, h: Expr, plan: SamplePlan | None = None):
    """The hydrodynamic system u_t = v u_x generated by a density depending
    on u only: v^i_k = g^{ij} d_j d_k H + b^{ij}_k d_j H.

    Entries are expressions over the operator's coefficients and
    :class:`~hydroham.exprs.Deriv` nodes of the density, so the derivatives
    come from jets.  With a plan, the speeds are evaluated at its first point
    to fail fast on domain problems.
    """
    from .systems import HydroSystem  # local import to avoid a cycle

    n = a.dim
    grad = [Deriv(h, j) for j in range(n)]

    def entry(i: int, k: int) -> Expr:
        terms = [a.g.entries[i][j] * Deriv(grad[j], k) + a.b.entries[i][j][k] * grad[j]
                 for j in range(n)]
        return sum(terms[1:], terms[0])

    system = HydroSystem(dim=n, v=tuple(tuple(entry(i, k) for k in range(n)) for i in range(n)))
    if plan is not None:
        system.speeds(plan.point(0))
    return system
