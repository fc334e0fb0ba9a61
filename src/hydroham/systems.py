"""Hydrodynamic-type systems, conserved currents, point changes of variables
and reciprocal transformations.

Systems are stored in the convention u^i_t = v^i_j(u) u^j_x.  Presets that
arise in the characteristic form r_t + lambda r_x = 0 are negated on
ingestion, so one internal convention holds everywhere.

A current (rho, sigma) is conserved when D_t rho + D_x sigma = 0 on
solutions.  The 1-forms defining a reciprocal change of independent
variables are built as

    dt~ = sigma_1 dt + rho_1 dx,        dx~ = -sigma_2 dt + rho_2 dx,

the x-form flux negated so that the form is closed on solutions under the
conservation convention above, the t-form kept with positive orientation
(which fixes the sign freedom left by closedness and makes the identity pair
rho=(0,1), (1,0) act as the identity).  This sign bridge is a documented
decision and is echoed in the notes of every transformation report.

The checks evaluate their fields at whole blocks of plan points at once:
currents as jet or value tapes, speed matrices and maps as grids
(:func:`~hydroham.geometry.compile_grid`, read with
:func:`~hydroham.geometry.grid_values`; order-1 jets and order-0 values
compile separately, since eval_jet and eval_scalar reject different points),
and the per-lane residuals in public kernels.  Every check, the denominator
scan included, walks the plan through :func:`~hydroham.sampling.resolve` and
redraws a point where any of its fields leaves its domain; the conjugacy
check also redraws a point where the map's Jacobian is singular.
:meth:`HydroSystem.speeds`, :meth:`PointChangeMap.apply` and
:meth:`PointChangeMap.jacobian` are one-lane views of :func:`speed_values`,
:func:`mapped_points` and :func:`map_jacobians`.  Every speed-matrix entry is
an expression, transformed systems included, so a speed matrix is always one
order-0 grid.  A system is diagonal when its off-diagonal entries are literal
zeros; the reciprocal transform then acts entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import HostileDomainError, NonConservedCurrentError, VanishingDenominatorError
from .exprs import Const, Expr, compile_tape, const, eval_scalar, eval_tape
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import (
    GridValues,
    compile_grid,
    grid_values,
    lane_einsum,
    lane_max,
    scaled_abs_dets,
)
from .reports import CheckReport, condition_from_arrays
from .sampling import REDRAW_DOMAIN, SamplePlan, resolve

SIGN_BRIDGE_NOTE = (
    "sign bridge: currents stored with D_t rho + D_x sigma = 0; "
    "dt~ = sigma_1 dt + rho_1 dx, dx~ = -sigma_2 dt + rho_2 dx"
)

REDRAW_SINGULAR = 2  # evaluator status: the Jacobian of the map is singular there


def _one_lane(values: GridValues) -> np.ndarray:
    """The values of a one-point batch, raising where the point failed."""
    if values.failed[0]:
        raise values.error(0)
    return values.vals[0]


@dataclass(frozen=True)
class HydroSystem:
    """First-order quasilinear system u^i_t = v^i_j(u) u^j_x."""

    dim: int
    v: tuple  # n x n of Expr

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.v)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError("speed matrix must be n x n")
        for row in rows:
            for e in row:
                if not isinstance(e, Expr):
                    raise TypeError(f"speed matrix entries must be expressions, not {e!r}")
        object.__setattr__(self, "v", rows)

    @cached_property
    def diagonal(self) -> bool:
        """True iff every off-diagonal entry is a literal zero."""
        return all(isinstance(e, Const) and e.value == 0
                   for i, row in enumerate(self.v) for j, e in enumerate(row) if i != j)

    @cached_property
    def _speed_grid(self):
        # compiled on first use, not by the builders
        return compile_grid(self.v, self.dim, 0)

    def speeds(self, point) -> np.ndarray:
        return _one_lane(speed_values(self, [point]))


def speed_values(s: HydroSystem, points) -> GridValues:
    """The speed matrix at every row of ``points``: values (N, n, n), entries
    in row-major order as :meth:`HydroSystem.speeds` evaluates them."""
    return grid_values(s._speed_grid, points)


@dataclass(frozen=True)
class ConservedCurrent:
    rho: Expr
    sigma: Expr


@dataclass(frozen=True)
class PointChangeMap:
    """A point change of dependent variables, with an optional inverse."""

    forward: tuple
    inverse: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "forward", tuple(self.forward))
        if self.inverse is not None:
            object.__setattr__(self, "inverse", tuple(self.inverse))

    @property
    def dim(self) -> int:
        return len(self.forward)

    @cached_property
    def _grids(self):
        # (values, jets of order 1) of the forward map, compiled on first use
        return (compile_grid(self.forward, self.dim, 0), compile_grid(self.forward, self.dim, 1))

    def apply(self, point) -> np.ndarray:
        return _one_lane(mapped_points(self, [point]))

    def apply_inverse(self, point) -> np.ndarray:
        if self.inverse is None:
            raise ValueError("no inverse map supplied")
        return np.array([eval_scalar(e, point) for e in self.inverse])

    def jacobian(self, point) -> np.ndarray:
        return _one_lane(map_jacobians(self, [point]))


def mapped_points(m: PointChangeMap, points) -> GridValues:
    """The image m(u) of every row of ``points``: values (N, n)."""
    return grid_values(m._grids[0], points)


def map_jacobians(m: PointChangeMap, points) -> GridValues:
    """The Jacobian J[a, k] = d_k m^a at every row of ``points``: values
    (N, n, n)."""
    jets = grid_values(m._grids[1], points)
    return jets._replace(vals=np.swapaxes(jets.d1, 1, 2))


def current_residuals(grad_rho: np.ndarray, grad_sigma: np.ndarray, v: np.ndarray):
    """Per lane (raw, scale) of the on-shell divergence d_k rho v^k_l + d_l sigma."""
    transport = lane_einsum("k,kl->l", grad_rho, v)
    return (lane_max(transport + grad_sigma),
            np.maximum(lane_max(transport), lane_max(grad_sigma)))


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def check_conserved_current(s: HydroSystem, c: ConservedCurrent,
                            plan: SamplePlan) -> CheckReport:
    """On-shell divergence: d_k rho v^k_l + d_l sigma = 0 for every l."""
    currents = compile_tape((c.rho, c.sigma), plan.dim, 1)

    def evaluate(points):
        jets = eval_tape(currents, points)
        v = speed_values(s, points)
        _, grads, _ = jets.derivatives()
        return (jets.failed | v.failed,
                current_residuals(grads[..., 0], grads[..., 1], v.vals))

    found = resolve(plan, evaluate, "domain too hostile at sample point {}")
    cond = condition_from_arrays(
        "current_conserved",
        "d_k rho v^k_l + d_l sigma = 0 for every l",
        found.points,
        *found.payload,
        plan.tolerance,
    )
    return CheckReport(title="conserved current", conditions=[cond], plan=plan)


def conjugacy_residuals(jac: np.ndarray, v_old: np.ndarray, v_new: np.ndarray):
    """Per lane (raw, scale) of J v_old - v_new J."""
    lhs = lane_einsum("ak,kl->al", jac, v_old)
    rhs = lane_einsum("ak,kl->al", v_new, jac)
    return lane_max(lhs - rhs), np.maximum(lane_max(lhs), lane_max(rhs))


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def check_change_of_variables(s_old: HydroSystem, s_new: HydroSystem,
                              m: PointChangeMap, plan: SamplePlan) -> CheckReport:
    """Conjugacy of speed matrices: J(u) v_old(u) = v_new(m(u)) J(u)."""
    if not (s_old.dim == s_new.dim == m.dim):
        raise ValueError("systems and map disagree on dimension")

    def evaluate(points):
        jac = map_jacobians(m, points)
        singular = ~jac.failed & (scaled_abs_dets(jac.vals) < plan.floor)
        v_old = speed_values(s_old, points)
        mapped = mapped_points(m, points)
        failed = jac.failed | v_old.failed | mapped.failed
        v_new = speed_values(s_new, mapped.vals)
        status = np.where(singular, REDRAW_SINGULAR,
                          np.where(failed | v_new.failed, REDRAW_DOMAIN, 0))
        return status, conjugacy_residuals(jac.vals, v_old.vals, v_new.vals)

    hostile = "domain too hostile at sample point {}"
    found = resolve(plan, evaluate, hostile)
    if len(found.unresolved):
        raise HostileDomainError(hostile.format(found.unresolved[0]))
    cond = condition_from_arrays(
        "conjugacy",
        "J v_old = v_new(m(u)) J for the Jacobian J of the map",
        found.points,
        *found.payload,
        plan.tolerance,
    )
    notes = []
    if np.any(found.status == REDRAW_SINGULAR):
        notes.append("singular Jacobian encountered; point redrawn")
    return CheckReport(
        title="change of variables", conditions=[cond], plan=plan, notes=notes
    )


def reciprocal_transform_system(s: HydroSystem, c1: ConservedCurrent,
                                c2: ConservedCurrent, plan: SamplePlan) -> HydroSystem:
    """Check that both currents are conserved on the plan, raising
    NonConservedCurrentError if one is not, then transform the system by
    them (:func:`build_reciprocal_system`)."""
    for label, c in (("c1", c1), ("c2", c2)):
        rep = check_conserved_current(s, c, plan)
        if not rep.passed:
            residual = rep.conditions[0].residual
            shown = "non-finite" if residual is None else f"{residual:.3e}"
            raise NonConservedCurrentError(
                f"current {label} is not conserved (max residual {shown})"
            )
    return build_reciprocal_system(s, c1, c2, plan)


def denominator_dets(sigma1: np.ndarray, rho1: np.ndarray, v: np.ndarray):
    """Per lane, the scaled |det| and the sign (+1 or -1) of the determinant
    of the denominator sigma_1 I - rho_1 v."""
    d = sigma1[:, None, None] * np.eye(v.shape[-1]) - rho1[:, None, None] * v
    return scaled_abs_dets(d), np.where(np.linalg.det(d) > 0, 1, -1)


@np.errstate(all="ignore")
def build_reciprocal_system(s: HydroSystem, c1: ConservedCurrent,
                            c2: ConservedCurrent, plan: SamplePlan) -> HydroSystem:
    """Transform a system under the change of independent variables defined
    by two currents, taken to be conserved (see
    :func:`reciprocal_transform_system`).

    In the u_t = v u_x convention the new speed matrix is

        v~ = (rho_2 v + sigma_2 I) (sigma_1 I - rho_1 v)^{-1},

    which acts entrywise on diagonal systems.  The denominator is scanned at
    the plan points, redrawing those where a field leaves its domain, and
    must neither come near singular nor change the sign of its determinant.  Entries of
    the result are expressions in the entries of ``s`` and the currents: the
    inverse is written out as adj(D) / det D, D = sigma_1 I - rho_1 v.
    """
    n = s.dim
    currents = compile_tape((c1.sigma, c1.rho), plan.dim, 0)

    def evaluate(points):
        values = eval_tape(currents, points)
        v = speed_values(s, points)
        return values.failed | v.failed, denominator_dets(values.coeffs[0, 0],
                                                          values.coeffs[1, 0], v.vals)

    found = resolve(plan, evaluate, "domain too hostile at sample point {}")
    dets, sign = found.payload
    small = dets < 1e-6
    bad = small | (sign != sign[:1])
    if bad.any():
        k = int(np.argmax(bad))
        p = tuple(found.points[k])
        if small[k]:
            raise VanishingDenominatorError(f"denominator field vanishes near {p}")
        # determinant changes sign across the box, so it crosses zero
        raise VanishingDenominatorError(
            f"denominator field vanishes inside the box (sign change near {p})"
        )

    if s.diagonal:
        zero = const(0)
        return HydroSystem(
            dim=n,
            v=tuple(
                tuple((c2.rho * s.v[i][i] + c2.sigma) / (c1.sigma - c1.rho * s.v[i][i])
                      if i == j else zero for j in range(n))
                for i in range(n)
            ),
        )

    def shifted(scale, shift, i, j):  # (shift I + scale v)_ij
        term = scale * s.v[i][j]
        return term + shift if i == j else term

    numerator = [[shifted(c2.rho, c2.sigma, i, j) for j in range(n)] for i in range(n)]
    adj, det = _adjugate([[shifted(-c1.rho, c1.sigma, i, j) for j in range(n)]
                          for i in range(n)])

    def entry(i, j):  # (numerator adj)_ij / det
        total = numerator[i][0] * adj[0][j]
        for k in range(1, n):
            total = total + numerator[i][k] * adj[k][j]
        return total / det

    return HydroSystem(dim=n, v=tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))


def _adjugate(d):
    """(adj d, det d) of a square matrix of expressions by Laplace expansion
    along the first row of each minor.  Each minor is built once and shared,
    so a tape compiles it once."""
    n = len(d)

    @cache
    def minor(rows: tuple, cols: tuple) -> Expr:
        if len(rows) <= 1:
            return d[rows[0]][cols[0]] if rows else const(1)
        total = d[rows[0]][cols[0]] * minor(rows[1:], cols[1:])
        for k in range(1, len(cols)):
            term = d[rows[0]][cols[k]] * minor(rows[1:], cols[:k] + cols[k + 1:])
            total = total - term if k % 2 else total + term
        return total

    def without(i):
        return tuple(k for k in range(n) if k != i)

    adj = [[minor(without(j), without(i)) if (i + j) % 2 == 0
            else -minor(without(j), without(i)) for j in range(n)] for i in range(n)]
    return adj, minor(tuple(range(n)), tuple(range(n)))
