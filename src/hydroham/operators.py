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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, HostileDomainError
from .exprs import Deriv, Expr, as_expr
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import (
    AffinorField,
    ConnectionField,
    GridTape,
    MetricField,
    MetricFrames,
    compile_grid,
    concat_frames,
    covariant_derivatives,
    grid_values,
    lane_einsum,
    lane_max,
    metric_frames,
)
from .reports import CheckReport, ConditionResult, condition_from_arrays
from .sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, SamplePlan, blocks, resolve, sweep

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

REDRAW_DEGENERATE = 2  # sweep status: the metric is degenerate there


@dataclass
class FrameSweep:
    """How the frame sweep of a plan (or of some of its blocks) went."""

    g_points: np.ndarray  # every attempt at which g evaluated, in (point, retry) order
    g_values: np.ndarray  # g_up at those attempts
    attempts: int
    resolved: int
    degenerate: int
    unresolved: int
    degenerate_witness: tuple | None

    @property
    def identically_degenerate(self) -> bool:
        return not self.resolved and self.degenerate > 0


def _flat(rounds, pick) -> np.ndarray:
    """``pick(round)`` of every sweep round, concatenated along the lanes."""
    return np.concatenate([pick(rd) for rd in rounds])


def _sorting_permutation(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts distinct non-negative integer keys, found
    by placing each key in its own slot."""
    slots = np.full(int(keys.max()) + 1 if len(keys) else 0, -1)
    slots[keys] = np.arange(len(keys))
    return slots[slots >= 0]


def _attempts(rounds):
    """(index, status, order) of every attempt, flattened across rounds, with
    the permutation that sorts the attempts by (plan index, retry)."""
    index = _flat(rounds, lambda rd: rd.index)
    retry = _flat(rounds, lambda rd: np.full(len(rd.index), rd.retry))
    key = (index - index.min()) * (RESAMPLE_BUDGET + 1) + retry
    return index, _flat(rounds, lambda rd: rd.status), _sorting_permutation(key)


def _first_exhausted(index, status, cause):
    """Smallest plan index whose every draw failed with ``cause``, or None."""
    exhausted = np.flatnonzero(np.bincount(index[status == cause], minlength=1) > RESAMPLE_BUDGET)
    return int(exhausted[0]) if exhausted.size else None


def resolve_frames(grid: GridTape, plan: SamplePlan, index):
    """Resolve one curvature frame per plan point in ``index`` (in order),
    redrawing points hit by domain violations or isolated metric
    degeneracy; every round is one batch.  ``grid`` holds the metric entries
    compiled at order 2.  Returns (frames in plan order, FrameSweep).
    """
    def evaluate(points):
        frames = metric_frames(grid, points, curvature=True)
        status = np.where(frames.failed, REDRAW_DOMAIN,
                          np.where(frames.degenerate, REDRAW_DEGENERATE, 0))
        # keep only what is read later: resolved frames, g_up where it evaluated
        resolved = frames.take(status == 0) if status.any() else frames._replace(grid=None)
        return status, (resolved, frames.g_up.copy())

    rounds = sweep(plan, evaluate, index)
    index, status, order = _attempts(rounds)
    hostile = _first_exhausted(index, status, REDRAW_DOMAIN)
    if hostile is not None:
        raise HostileDomainError(
            f"domain too hostile: sample point {hostile} exhausted {RESAMPLE_BUDGET} redraws"
        )
    parts = [rd.payload[0] for rd in rounds if rd.payload[0].lanes]
    if len(parts) == 1:  # one round's lanes: already in plan order
        frames = parts[0]
    else:
        resolved = _flat(rounds, lambda rd: rd.index[rd.status == 0])
        frames = concat_frames(parts or [rounds[0].payload[0]]).take(
            _sorting_permutation(resolved))
    status = status[order]
    points = _flat(rounds, lambda rd: rd.points)[order]
    g_up = _flat(rounds, lambda rd: rd.payload[1])[order]
    evaluated, degenerate = status != REDRAW_DOMAIN, status == REDRAW_DEGENERATE
    return frames, FrameSweep(
        g_points=points[evaluated],
        g_values=g_up[evaluated],
        attempts=len(status),
        resolved=frames.lanes,
        degenerate=int(degenerate.sum()),
        unresolved=int(np.count_nonzero(rounds[-1].status)),
        degenerate_witness=tuple(float(x) for x in points[degenerate][-1])
        if degenerate.any() else None,
    )


def _merge_sweeps(sweeps) -> FrameSweep:
    """One FrameSweep for consecutive blocks of a plan."""
    witnesses = [s.degenerate_witness for s in sweeps if s.degenerate_witness is not None]
    return FrameSweep(
        g_points=np.concatenate([s.g_points for s in sweeps]),
        g_values=np.concatenate([s.g_values for s in sweeps]),
        attempts=sum(s.attempts for s in sweeps),
        resolved=sum(s.resolved for s in sweeps),
        degenerate=sum(s.degenerate for s in sweeps),
        unresolved=sum(s.unresolved for s in sweeps),
        degenerate_witness=witnesses[-1] if witnesses else None,
    )


def _concat_results(parts) -> dict:
    """Per-condition (raw, scale) arrays of consecutive blocks, joined."""
    return {cid: tuple(np.concatenate([p[cid][k] for p in parts]) for k in (0, 1))
            for cid in parts[0]}


def _raise_first_failure(*grids):
    """Raise the domain error of the first failing lane, taking the grids in
    the order the per-point checks evaluated them."""
    failed = np.logical_or.reduce([g.failed for g in grids])
    if failed.any():
        lane = int(np.argmax(failed))
        for g in grids:
            if g.failed[lane]:
                raise g.error(lane)


def _frame_check(title: str, g: MetricField, plan: SamplePlan, kernel, table) -> CheckReport:
    """Resolve curvature frames block by block, run ``kernel(frames)``, which
    returns per-lane (raw, scale) arrays by condition id, on each block's
    resolved frames, and report the symmetry and nondegeneracy of g (over
    every attempt) followed by the conditions of ``table``.

    ``table`` rows are (id, description, short description); when no point
    resolves, each row is reported not evaluated under its short
    description.  A domain error the kernel raises waits until every block
    is swept, so that a hostile point anywhere in the plan is reported
    first, as when every frame was resolved before any kernel ran.
    """
    grid = compile_grid(g.entries, plan.dim, 2)
    sweeps, points, results, error = [], [], [], None
    for index in blocks(plan):
        frames, found = resolve_frames(grid, plan, index)
        sweeps.append(found)
        if error is None and frames.lanes:
            try:
                results.append(kernel(frames))
                points.append(frames.point)
            except EvalDomainError as err:
                error = err
        del frames  # before the next block's are built
    if error is not None:
        raise error
    found = _merge_sweeps(sweeps)
    symmetric = condition_from_arrays(
        "metric_symmetric",
        "g^{ij} = g^{ji}",
        found.g_points,
        lane_max(found.g_values - np.swapaxes(found.g_values, 1, 2)),
        lane_max(found.g_values),
        plan.tolerance,
    )
    conditions = [symmetric, _nondegeneracy_condition(found)]
    if results:
        conditions += _conditions(_concat_results(results), table, np.concatenate(points),
                                  plan.tolerance)
    else:
        conditions += [_not_evaluated(cid, short) for cid, _, short in table]
    return CheckReport(title=title, conditions=conditions, plan=plan)


def _nondegeneracy_condition(sweep: FrameSweep) -> ConditionResult:
    bad_fraction = sweep.degenerate / max(1, sweep.attempts)
    failed = sweep.unresolved > 0 or bad_fraction > DEGENERATE_FRACTION_LIMIT
    note = None
    if sweep.identically_degenerate:
        note = "identically degenerate"
    elif failed:
        note = f"degenerate at {bad_fraction:.0%} of attempted points"
    return ConditionResult(
        cid="metric_nondegenerate",
        description="|det g| above the degeneracy floor on the box",
        residual=1.0 if failed else 0.0,
        witness=sweep.degenerate_witness if failed else None,
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


def flatness_residuals(frames: MetricFrames):
    gg = lane_einsum("jmk,msl->jskl", frames.gamma, frames.gamma)
    return lane_max(frames.riemann), np.maximum(lane_max(frames.dgamma), lane_max(gg))


def _keep_worst(worst, raw, scale):
    """Per lane, replace the kept (raw, scale) where raw is at least as
    large (or NaN, which must reach the verdict)."""
    take = (raw >= worst[0]) | np.isnan(raw)
    return np.where(take, raw, worst[0]), np.where(take, scale, worst[1])


def tail_residuals(frames: MetricFrames, tails, w_vals, w_jets) -> dict:
    """The tail conditions t1-t4, from scalar values (lanes, tails, n, n) and
    order-1 jets of the affinors.  For t1, t2 and t4 the worst tail (or
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
        nabla = covariant_derivatives(w_jets.vals[:, a], w_jets.d1[:, :, a], frames.gamma)
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

# (id, description, the shorter description reported when g is degenerate everywhere)
_LOCAL_CONDITIONS = (
    ("connection_symmetric", "Gamma^j_{sk} = Gamma^j_{ks} for Gamma derived from b",
     "Gamma^j_{sk} = Gamma^j_{ks}"),
    ("metric_compatible", "nabla_k g_{ij} = 0 under the connection derived from b",
     "nabla g = 0"),
)
_FLAT_CONDITIONS = _LOCAL_CONDITIONS + (
    ("metric_flat", "Riemann curvature of g vanishes", "curvature of g vanishes"),
)
_TAIL_CONDITIONS = _LOCAL_CONDITIONS + (
    ("t1_pairing_symmetric", "g_{ik} w^k_j = g_{jk} w^k_i", "g_{ik} w^k_j symmetric"),
    ("t2_codazzi", "nabla_k w^i_j = nabla_j w^i_k", "nabla_k w^i_j = nabla_j w^i_k"),
    ("t3_gauss", "R^{ij}_{kl} = sum_a eps_a (w^i_l w^j_k - w^i_k w^j_l)",
     "curvature equals the tail sum"),
    ("t4_tails_commute", "[w_a, w_b] = 0 for all tail pairs", "[w_a, w_b] = 0"),
)


def _conditions(results: dict, table, points, tol) -> list:
    return [condition_from_arrays(cid, desc, points, *results[cid], tol)
            for cid, desc, *_ in table]


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
    conditions = _conditions(skew_residuals(*found.payload), table, found.points,
                             plan.tolerance)
    return CheckReport(title="skew-adjointness", conditions=conditions, plan=plan)


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def check_local_hamiltonian(a: LocalOperator, plan: SamplePlan) -> CheckReport:
    """The five conditions for a local operator to be Hamiltonian: symmetric
    nondegenerate metric, symmetric connection, metric compatibility, and a
    flat metric."""
    b_grid = compile_grid(a.b.entries, plan.dim, 0)

    def kernel(frames):
        b = grid_values(b_grid, frames.point)
        _raise_first_failure(b)
        results = connection_residuals(frames, b.vals)
        results["metric_flat"] = flatness_residuals(frames)
        return results

    return _frame_check("local Hamiltonian", a.g, plan, kernel, _FLAT_CONDITIONS)


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


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def check_ferapontov(a: NonlocalOperator, plan: SamplePlan) -> CheckReport:
    """Hamiltonianity conditions for a nonlocal operator: the local
    conditions minus flatness, plus pairing symmetry (t1), Codazzi symmetry
    (t2), the Gauss equation (t3) and commuting affinors (t4)."""
    op = a.local
    b_grid = compile_grid(op.b.entries, plan.dim, 0)
    tail_entries = tuple(w.entries for w in a.tails)
    w_grid, w_jet_grid = (compile_grid(tail_entries, plan.dim, order) for order in (0, 1))

    def kernel(frames):
        b = grid_values(b_grid, frames.point)
        w_vals = grid_values(w_grid, frames.point)
        w_jets = grid_values(w_jet_grid, frames.point)
        _raise_first_failure(b, w_vals, w_jets)
        results = connection_residuals(frames, b.vals)
        results.update(tail_residuals(frames, a.tails, w_vals.vals, w_jets))
        return results

    return _frame_check("nonlocal Hamiltonian", op.g, plan, kernel, _TAIL_CONDITIONS)


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
