"""Executable presets for the isothermal no-slip drift-flux example.

This module materializes the concrete objects of that example: the
three-component diagonal system S in Riemann invariants, its physical-variable
form, its nine operators (three classical 2x2 structures of the
essential subsystem, their prolongations to S, and the operators of the
reciprocally transformed system), the prolongation ansatz with its constraint
residuals, and the wave-equation solution families used in the construction.

The operators are built from small tables, as the example states them:
``_CLASSICAL`` holds each classical structure k = 1, 2, 3 (metric diagonal,
prefactor, 2x2 coefficient grid, and the r3_x coefficients its prolongation
adds), ``_REMARK`` the three operators of the transformed system, and
``_EQUATIONS`` the constraint equations of the ansatz (description, term of
one component, residual).  One builder borders a 2x2 structure to S, so the
local prolongations and the remark operators are each one construction over
a table row, and both nonlocal tail families come from one helper.

Coefficient extraction rule, applied uniformly to every operator built
here: each matrix entry of the first-order part is a linear combination of
r^k_x monomials, and the coefficient of r^k_x, including the outer prefactors
such as e^{r2-r1} and the +-1/2 factors, becomes b^{ij}_k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolation
from .exprs import (
    Deriv,
    Expr,
    as_expr,
    compile_tape,
    const,
    eval_tape,
    exp,
    ln,
    var_indices,
    variables,
)
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import AffinorField, ConnectionField, MetricField, _require_signs
from .operators import LocalOperator, NonlocalOperator
from .reports import CheckReport, walk_report
from .sampling import DEFAULT_COUNT, DEFAULT_TOLERANCE, REDRAW_DOMAIN, SamplePlan, resolve
from .systems import ConservedCurrent, HydroSystem, PointChangeMap

DEFAULT_SEED = 8128

R1, R2, R3 = variables(3)
_HALF = const(Fraction(1, 2))
_P = exp(R2 - R1)  # e^{r2 - r1}, the ubiquitous prefactor
_E = exp(R1 - R2)  # its reciprocal

DEFAULT_THETA = const(1) + R3 ** 2
DEFAULT_LAMBDA1 = R3
DEFAULT_LAMBDA2 = R3 ** 2


def drift_plan(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
               tolerance: float = DEFAULT_TOLERANCE) -> SamplePlan:
    """Sampling box r1, r2 in [-0.7, 0.7], r3 in [0.1, 1]: keeps e^{r2-r1}
    within [e^-1.4, e^1.4] and r3 clear of the map singularities."""
    return SamplePlan(dim=3, box=((-0.7, 0.7), (-0.7, 0.7), (0.1, 1.0)),
                      count=count, seed=seed, tolerance=tolerance)


def plane_plan(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
               tolerance: float = DEFAULT_TOLERANCE) -> SamplePlan:
    """Two-component box for the essential subsystem and wave-equation checks."""
    return SamplePlan(dim=2, box=((-0.7, 0.7), (-0.7, 0.7)),
                      count=count, seed=seed, tolerance=tolerance)


def physical_plan(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
                  tolerance: float = DEFAULT_TOLERANCE) -> SamplePlan:
    """Box in the physical variables (rho1, rho2, u): densities positive."""
    return SamplePlan(dim=3, box=((0.1, 1.0), (0.1, 1.0), (-0.7, 0.7)),
                      count=count, seed=seed, tolerance=tolerance)


def _diag_grid(diag: tuple[Expr, ...]) -> tuple[tuple[Expr, ...], ...]:
    """The square grid with ``diag`` on its diagonal and 0 elsewhere."""
    n = len(diag)
    zero = const(0)
    return tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))


# -- systems ---------------------------------------------------------------------


_S_SPEEDS = (-(R1 + R2 + 1), -(R1 + R2 - 1), -(R1 + R2))  # v = -lambda entrywise


def build_system_S() -> HydroSystem:
    """Diagonal system r^i_t + lambda_i r^i_x = 0 with characteristic speeds
    lambda = (r1+r2+1, r1+r2-1, r1+r2), stored as v = -lambda."""
    return HydroSystem(dim=3, v=_diag_grid(_S_SPEEDS))


def build_system_S0() -> HydroSystem:
    """The essential two-component subsystem: the first two rows of S."""
    return HydroSystem(dim=2, v=_diag_grid(_S_SPEEDS[:2]))


def build_system_S_tilde() -> HydroSystem:
    """The drift-flux system in physical variables (rho1, rho2, u), with u_t
    isolated from the momentum equation."""
    rho1, rho2, u = variables(3)
    zero = const(0)
    inv_total = const(1) / (rho1 + rho2)
    v = (
        (-u, zero, -rho1),
        (zero, -u, -rho2),
        (-inv_total, -inv_total, -u),
    )
    return HydroSystem(dim=3, v=v)


def riemann_map() -> PointChangeMap:
    """Riemann invariants of the physical system and their inverse:
    (rho1, rho2, u) -> ((u + ln(rho1+rho2))/2, (u - ln(rho1+rho2))/2, rho2/rho1).
    """
    rho1, rho2, u = variables(3)
    total = ln(rho1 + rho2)
    forward = ((u + total) * _HALF, (u - total) * _HALF, rho2 / rho1)
    inverse = (_E / (1 + R3), R3 * _E / (1 + R3), R1 + R2)
    return PointChangeMap(forward=forward, inverse=inverse)


def remark_currents() -> tuple[ConservedCurrent, ConservedCurrent]:
    """The current pair of the reciprocal transformation that trivializes S:
    dt~ = dt and dx~ built from (rho, sigma) = (e^{r1-r2}, (r1+r2) e^{r1-r2})."""
    c1 = ConservedCurrent(rho=const(0), sigma=const(1))
    c2 = ConservedCurrent(rho=_E, sigma=(R1 + R2) * _E)
    return c1, c2


# -- operator builders -------------------------------------------------------------


def _connection(dim: int, prefactor: Expr, rows) -> ConnectionField:
    """Apply the extraction rule: b^{ij}_k = prefactor * rows[i][j][k]."""
    zero = const(0)
    entries = tuple(
        tuple(
            tuple(
                prefactor * rows[i][j][k] if k in rows[i][j] else zero
                for k in range(dim)
            )
            for j in range(dim)
        )
        for i in range(dim)
    )
    return ConnectionField(dim, entries)


_ONE = const(1)
_MINUS = const(-1)

# The three classical structures k of the essential subsystem, each (metric
# diagonal, prefactor of b, 2x2 coefficient grid of r1_x, r2_x), and the
# r3_x coefficients of b^{13}, b^{23}, b^{31}, b^{32} that its prolongation
# to S adds around the same grid.
_CLASSICAL = {
    1: ((-_P, _P), -_HALF * _P,
        (({0: _MINUS, 1: _ONE}, {0: _ONE, 1: _MINUS}),
         ({0: _MINUS, 1: _ONE}, {0: _ONE, 1: _MINUS})),
        (const(-2), const(-2), const(2), const(2))),
    2: ((_P, _P), _HALF * _P,
        (({0: _MINUS, 1: _ONE}, {0: _MINUS, 1: _MINUS}),
         ({0: _ONE, 1: _ONE}, {0: _MINUS, 1: _ONE})),
        (const(-2), const(2), const(2), const(-2))),
    3: ((_P * R1, _P * R2), _HALF * _P,
        (({0: _ONE - R1, 1: R1}, {0: -R2, 1: -R1}),
         ({0: R2, 1: R1}, {0: -R2, 1: _ONE + R2})),
        (const(-2) * R1, const(2) * R2, const(2) * R1, const(-2) * R2)),
}

# The three operators of the reciprocally transformed system, each (metric
# diagonal on the first two components, prefactor of b, 2x2 coefficient
# grid, factor of Theta~' in b^{33}_3).  The first two grids are the
# classical ones with their overall sign flipped along with the prefactor
# (now e^{r1-r2}), the unique choice under skew-adjointness.
_REMARK = (
    ((-_E, _E), _HALF * _E, _CLASSICAL[1][2], _P),
    ((_E, _E), -_HALF * _E, _CLASSICAL[2][2], -_P),
    ((_E * R1, _E * R2), _HALF * _E,
     (({0: _ONE + R1, 1: -R1}, {0: R2, 1: R1}),
      ({0: -R2, 1: -R1}, {0: R2, 1: _ONE - R2})),
     _P),
)


def build_nutku(k: int) -> LocalOperator:
    """The three classical Hamiltonian structures of the essential subsystem."""
    if k not in (1, 2, 3):
        raise ValueError(f"operator index must be 1, 2 or 3, got {k}")
    diag, prefactor, grid, _ = _CLASSICAL[k]
    return LocalOperator(2, MetricField(2, _diag_grid(diag)), _connection(2, prefactor, grid))


def _bordered(diag, g33: Expr, prefactor: Expr, grid, border, f33: dict) -> LocalOperator:
    """A 2x2 structure bordered to the three components of S: its metric
    diagonal extended by g^{33}, its coefficient grid by the coefficient rows
    ``border`` of b^{13}, b^{23}, b^{31}, b^{32} and ``f33`` of b^{33}."""
    b13, b23, b31, b32 = border
    rows = ((*grid[0], b13), (*grid[1], b23), (b31, b32, f33))
    g = MetricField(3, _diag_grid((*diag, g33)))
    return LocalOperator(3, g, _connection(3, prefactor, rows))


def _require_vars(e, name: str, *indices: int) -> Expr:
    """``e`` as an expression; ValueError unless it depends on the variables
    ``indices`` only (0 is r1)."""
    e = as_expr(e)
    if not var_indices(e) <= set(indices):
        on = ", ".join(f"r{i + 1}" for i in indices)
        raise ValueError(f"{name} must depend on {on if len(indices) == 1 else f'({on})'} only")
    return e


def _prolongation(k: int, theta: Expr) -> LocalOperator:
    """Structure k prolonged to S with g^{33} = P^2 Theta and
    f^{33} = 2 (r2_x - r1_x) Theta_hat + Theta_hat' r3_x, where P = e^{r2-r1}
    and Theta_hat = P Theta; the row of f^{33} flips its sign under k = 1's
    negative prefactor."""
    diag, prefactor, grid, border = _CLASSICAL[k]
    two_pt = const(2) * _P * theta
    if k == 1:
        f33 = {0: two_pt, 1: -two_pt, 2: -_P * Deriv(theta, 2)}
    else:
        f33 = {0: -two_pt, 1: two_pt, 2: _P * Deriv(theta, 2)}
    border = tuple({2: c} for c in border)
    return _bordered(diag, _P * _P * theta, prefactor, grid, border, f33)


def build_H1_Theta(theta) -> LocalOperator:
    """The local family prolonging the first classical structure to S,
    parameterized by a function Theta of r3."""
    return _prolongation(1, _require_vars(theta, "Theta", 2))


@dataclass(frozen=True)
class ConstantBlock:
    """Constants (c_a, b_ia) of the nonlocal prolongations, with the fixed
    signs eps = (1, 1, -1).  Valid blocks satisfy

        sum_a eps_a c_a^2 = 0,   sum_a eps_a c_a b_ia = 0 (i = 1, 2),
        sum_a eps_a c_a b_3a = -1.
    """

    c: tuple
    b1: tuple
    b2: tuple
    b3: tuple
    eps: tuple = (1, 1, -1)

    def __post_init__(self):
        for name in ("c", "b1", "b2", "b3", "eps"):
            vals = tuple(getattr(self, name))
            if len(vals) != 3:
                raise ValueError(f"{name} must have exactly three components")
            object.__setattr__(self, name, vals)
        _require_signs(self.eps, "signs")

    def validate(self) -> None:
        checks = (
            ("sum eps_a c_a^2 = 0", self.c, 0),
            ("sum eps_a c_a b_1a = 0", self.b1, 0),
            ("sum eps_a c_a b_2a = 0", self.b2, 0),
            ("sum eps_a c_a b_3a = -1", self.b3, -1),
        )
        for label, row, target in checks:
            value = sum(e * c * b for e, c, b in zip(self.eps, self.c, row))
            if abs(float(value) - target) > 1e-12:
                raise ConstraintViolation(
                    f"constant block violates {label} (got {float(value)!r})"
                )


DEFAULT_BLOCK = ConstantBlock(
    c=(3, 4, 5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, Fraction(1, 5))
)


def _phi_exprs(block: ConstantBlock, lam1: Expr, lam2: Expr) -> list[Expr]:
    return [
        as_expr(block.b1[a]) * lam1 + as_expr(block.b2[a]) * lam2 + as_expr(block.b3[a])
        for a in range(3)
    ]


def _tails(block: ConstantBlock, lam1: Expr, lam2: Expr, diagonal) -> tuple[AffinorField, ...]:
    """One diagonal affinor per component a of ``block``, with the diagonal
    ``diagonal(c_a, Phi^a)`` and the sign eps_a."""
    return tuple(
        AffinorField(3, int(block.eps[a]), _diag_grid(diagonal(as_expr(block.c[a]), phi)))
        for a, phi in enumerate(_phi_exprs(block, lam1, lam2))
    )


def h2_prolongation_tails(block: ConstantBlock, lam1: Expr, lam2: Expr) -> tuple[AffinorField, ...]:
    """diag(c_a, c_a, c_a + Phi^a e^{r2-r1}); no constraint validation here,
    so mutated blocks can be exercised as negative controls."""
    return _tails(block, lam1, lam2, lambda ca, phi: (ca, ca, ca + phi * _P))


def h3_prolongation_tails(block: ConstantBlock, lam1: Expr, lam2: Expr,
                          phi_factor: Fraction = Fraction(1, 2)) -> tuple[AffinorField, ...]:
    """c_a diag(r1+r2+1, r1+r2-1, r1+r2) + phi_factor Phi^a e^{r2-r1} diag(0,0,1).

    The shipped instances carry phi_factor = 1/2; other values are negative
    controls."""
    return _tails(block, lam1, lam2, lambda ca, phi: (
        ca * (R1 + R2 + 1),
        ca * (R1 + R2 - 1),
        ca * (R1 + R2) + const(phi_factor) * phi * _P,
    ))


def _hat(k: int, tails, theta, lam1, lam2, block: ConstantBlock) -> NonlocalOperator:
    """Structure k prolonged to S with tails(block, Lambda1, Lambda2), inputs
    validated: Lambda1, Lambda2 and 1 independent at three draws of
    :func:`drift_plan`, each redrawn where a Lambda leaves its domain."""
    theta = _require_vars(theta, "Theta", 2)
    lam1 = _require_vars(lam1, "Lambda1", 2)
    lam2 = _require_vars(lam2, "Lambda2", 2)
    block.validate()
    tape = compile_tape((lam1, lam2), 3, 0)

    def evaluate(points):
        lams = eval_tape(tape, points)
        return REDRAW_DOMAIN * lams.failed, (lams.vals.T,)

    m = np.column_stack((resolve(drift_plan(count=3), evaluate).payload[0], np.ones(3)))
    if abs(np.linalg.det(m)) < 1e-9:
        raise ConstraintViolation(
            "Lambda1, Lambda2 and the constant 1 must be linearly independent"
        )
    return NonlocalOperator(_prolongation(k, theta), tails(block, lam1, lam2))


def build_H2_hat(theta=DEFAULT_THETA, lam1=DEFAULT_LAMBDA1, lam2=DEFAULT_LAMBDA2,
                 block: ConstantBlock = DEFAULT_BLOCK) -> NonlocalOperator:
    """Nonlocal prolongation of the second classical structure to S."""
    return _hat(2, h2_prolongation_tails, theta, lam1, lam2, block)


def build_H3_hat(theta=DEFAULT_THETA, lam1=DEFAULT_LAMBDA1, lam2=DEFAULT_LAMBDA2,
                 block: ConstantBlock = DEFAULT_BLOCK) -> NonlocalOperator:
    """Nonlocal prolongation of the third classical structure to S."""
    return _hat(3, h3_prolongation_tails, theta, lam1, lam2, block)


def build_remark_operators(theta_tilde) -> tuple[LocalOperator, LocalOperator, LocalOperator]:
    """The three local operator families of the reciprocally transformed
    system, parameterized by a function of r3: the rows of ``_REMARK``, each
    bordered with g^{33} = e^{r1-r2} e^{r2-r1} Theta~ (built as that product)
    and b^{33}_3 a multiple of Theta~'."""
    tt = _require_vars(theta_tilde, "Theta", 2)
    dtt = Deriv(tt, 2)
    return tuple(
        _bordered(diag, _E * _P * tt, prefactor, grid, ({},) * 4, {2: lead * dtt})
        for diag, prefactor, grid, lead in _REMARK
    )


def restrict_local(op: LocalOperator, dim: int = 2) -> LocalOperator:
    """The operator on the first ``dim`` components (entries restricted)."""
    g = MetricField(dim, tuple(tuple(op.g.entries[i][j] for j in range(dim)) for i in range(dim)))
    b = ConnectionField(
        dim,
        tuple(
            tuple(tuple(op.b.entries[i][j][k] for k in range(dim)) for j in range(dim))
            for i in range(dim)
        ),
    )
    return LocalOperator(dim, g, b)


# -- wave-equation families ---------------------------------------------------------


def wave_residuals(d1: np.ndarray, d2: np.ndarray):
    """Per lane (raw, scale) of 2 Psi_{r1 r2} + Psi_{r1} - Psi_{r2}, from
    the first derivatives (2, N) and second derivatives (2, 2, N) of Psi."""
    mixed = 2.0 * d2[0, 1]
    raw = mixed + d1[0] - d1[1]
    return raw, np.maximum(np.maximum(np.abs(mixed), np.abs(d1[0])), np.abs(d1[1]))


def kg_residual(psi: Expr, plan: SamplePlan | None = None) -> CheckReport:
    """Residual of the linear wave identity 2 Psi_{r1 r2} = Psi_{r2} - Psi_{r1}
    for a function of (r1, r2), redrawing points where Psi leaves its
    domain."""
    psi = _require_vars(psi, "Psi", 0, 1)
    if plan is None:
        plan = plane_plan()
    n = min(2, plan.dim)
    tape = compile_tape(psi, n, 2)

    def evaluate(points):
        jets = eval_tape(tape, points[:, :n])
        _, d1, d2 = jets.at()
        return jets.failed, wave_residuals(d1, d2)

    table = (("wave_identity", "2 Psi_{r1 r2} - Psi_{r2} + Psi_{r1} = 0"),)
    return walk_report("wave-equation residual", table, plan, evaluate)[0]


def _as_k(k) -> Fraction:
    k = Fraction(k)
    if k == Fraction(1, 2):
        raise ValueError("k = 1/2 is excluded (pole in the exponent)")
    _family_const(k, "k", k)
    return k


def _family_const(value: Fraction, name: str, k: Fraction) -> Expr:
    """const(value) for the constant ``name`` the families derive from k;
    ValueError where it is not a finite double (the tape compiler's float()
    would raise OverflowError)."""
    try:
        float(value)
    except OverflowError:
        at = "" if name == "k" else f" at k = {float(k):g}"
        raise ValueError(f"the families' constant {name} is not a finite double{at}") from None
    return const(value)


def kg_family_u(k) -> Expr:
    """Exponential solution family e^{k r1 + k r2 / (1 - 2k)}."""
    k = _as_k(k)
    return exp(const(k) * R1 + _family_const(k / (1 - 2 * k), "k/(1 - 2k)", k) * R2)


def kg_family_u_half_r1(k) -> Expr:
    """Variant with the r1 coefficient halved.  It fails the wave identity
    for every k != 0 and is kept as a diagnostic negative control."""
    k = _as_k(k)
    return exp(const(k / 2) * R1 + _family_const(k / (1 - 2 * k), "k/(1 - 2k)", k) * R2)


def kg_family_v(k) -> Expr:
    """Derived family ((1-2k)^2 r1 + r2) e^{k r1 + k r2/(1-2k)}: the image of
    the exponential family under the scaling symmetry of the wave identity."""
    k = _as_k(k)
    return (_family_const((1 - 2 * k) ** 2, "(1 - 2k)^2", k) * R1 + R2) * kg_family_u(k)


def kg_characteristic_J(psi: Expr) -> Expr:
    """Symmetry characteristic J[Psi] = (r1 + r2) Psi - 2 r1 Psi_{r1} + 2 r2 Psi_{r2}."""
    psi = as_expr(psi)
    return (R1 + R2) * psi - const(2) * R1 * Deriv(psi, 0) + const(2) * R2 * Deriv(psi, 1)


# -- prolongation ansatz and constraint residuals -------------------------------------


@dataclass(frozen=True)
class ProlongationAnsatz:
    """Signs eps_a, wave-equation solutions Psi^a(r1, r2) and functions
    Phi^a(r3) entering the affinor ansatz
    w_a = e^{r2-r1} diag(Psi^a_{r1}, -Psi^a_{r2}, Phi^a + Psi^a)."""

    eps: tuple
    psi: tuple
    phi: tuple

    def __post_init__(self):
        if not (len(self.eps) == len(self.psi) == len(self.phi) == 3):
            raise ValueError("ansatz needs exactly three components")
        object.__setattr__(self, "eps", tuple(int(e) for e in _require_signs(self.eps, "signs")))
        object.__setattr__(self, "psi", tuple(_require_vars(p, "each Psi", 0, 1) for p in self.psi))
        object.__setattr__(self, "phi", tuple(_require_vars(p, "each Phi", 2) for p in self.phi))

    def require_wave_identity(self, seed: int) -> None:
        """Raise ValueError unless each Psi satisfies the wave identity on the
        25-point plane plan of ``seed``.  A seed that passed is kept, so the
        residuals of several equations check the Psi once."""
        passed = self.__dict__.setdefault("_wave_identity_seeds", set())
        if seed in passed:
            return
        for a, psi in enumerate(self.psi):
            pre = kg_residual(psi, plane_plan(count=25, seed=seed))
            if not pre.passed:
                residual = pre.conditions[0].residual
                shown = "non-finite" if residual is None else f"{residual:.3e}"
                raise ValueError(f"Psi[{a}] does not satisfy the wave identity (residual {shown})")
        passed.add(seed)


def default_ansatz(block: ConstantBlock = DEFAULT_BLOCK,
                   lam1: Expr = DEFAULT_LAMBDA1,
                   lam2: Expr = DEFAULT_LAMBDA2) -> ProlongationAnsatz:
    """The solution the nonlocal prolongations are built on:
    Psi^a = c_a e^{r1-r2}, Phi^a = b_1a Lambda1 + b_2a Lambda2 + b_3a."""
    psi = tuple(as_expr(block.c[a]) * _E for a in range(3))
    phi = tuple(_phi_exprs(block, as_expr(lam1), as_expr(lam2)))
    return ProlongationAnsatz(eps=block.eps, psi=psi, phi=phi)


def _phi_psi_r1(phi, psi, d1, d2):
    return (phi + psi) * d1


def _phi_psi_r2(phi, psi, d1, d2):
    return (phi + psi) * d2


# per equation: its description, the term of one component, from (Phi, Psi,
# Psi_{r1}, Psi_{r2}), and the residual, from (sum of eps_a terms,
# e^{r1-r2}, r1 + r2, Omega, C)
_EQUATIONS = {
    "eq4a": ("sum eps (Phi + Psi) Psi_{r1} = -e^{r1-r2}",
             _phi_psi_r1, lambda t, e, s, omega, c: t + e),
    "eq4b": ("sum eps (Phi + Psi) Psi_{r2} = e^{r1-r2}",
             _phi_psi_r2, lambda t, e, s, omega, c: t - e),
    "eq4c": ("sum eps Psi_{r1} Psi_{r2} = 0",
             lambda phi, psi, d1, d2: d1 * d2, lambda t, e, s, omega, c: t),
    "eq5": ("sum eps (Phi + Psi/2) Psi = Omega(r3) - e^{r1-r2}",
            lambda phi, psi, d1, d2: (phi + psi / 2.0) * psi,
            lambda t, e, s, omega, c: t - omega + e),
    "eq7": ("sum eps Psi^2 = C - 2 e^{r1-r2}",
            lambda phi, psi, d1, d2: psi * psi, lambda t, e, s, omega, c: t - float(c) + 2.0 * e),
    "eq4a3": ("sum eps (Phi + Psi) Psi_{r1} = (r1+r2+1)/2 e^{r1-r2}",
              _phi_psi_r1, lambda t, e, s, omega, c: t - 0.5 * (s + 1.0) * e),
    "eq4b3": ("sum eps (Phi + Psi) Psi_{r2} = -(r1+r2-1)/2 e^{r1-r2}",
              _phi_psi_r2, lambda t, e, s, omega, c: t + 0.5 * (s - 1.0) * e),
}
CONSTRAINT_EQUATIONS = tuple(_EQUATIONS)


def constraint_residuals(ansatz: ProlongationAnsatz, which: str,
                         plan: SamplePlan | None = None,
                         omega: Expr | None = None,
                         big_c: float | None = None) -> CheckReport:
    """Residual of one constraint equation of the prolongation construction
    over the sample plan, redrawing points where a field leaves its domain.
    The Psi components must satisfy the wave identity; that precondition is
    checked first, once per ansatz and seed."""
    if which not in CONSTRAINT_EQUATIONS:
        raise ValueError(f"unknown equation tag {which!r}")
    if which == "eq5":
        omega = const(0) if omega is None else _require_vars(omega, "Omega", 2)
    if which == "eq7" and big_c is None:
        raise ValueError("eq7 requires the constant C")
    if plan is None:
        plan = drift_plan()
    ansatz.require_wave_identity(plan.seed)

    psi_jets = compile_tape(ansatz.psi, plan.dim, 1)
    extra = (omega,) if which == "eq5" else ()
    values = compile_tape(ansatz.phi + extra, plan.dim, 0)

    def evaluate(points):
        jets, vals = eval_tape(psi_jets, points), eval_tape(values, points)
        psi, grad, _ = jets.at()
        return jets.failed | vals.failed, constraint_equation_residuals(
            which, ansatz.eps, points, psi, grad[0], grad[1], vals.vals, big_c)

    table = ((which, _EQUATIONS[which][0]),)
    return walk_report(f"constraint residual {which}", table, plan, evaluate)[0]


def constraint_equation_residuals(which: str, eps, points, psi, psi_r1, psi_r2, values,
                                  big_c=None):
    """Per lane (raw, scale) of one constraint equation, from the values and
    r1, r2 derivatives of the three Psi^a (each (3, N)) and the values of the
    three Phi^a, then Omega for eq5 ((3 or 4, N)), at the rows of
    ``points``."""
    _, term, residual = _EQUATIONS[which]
    e_val = np.exp(points[:, 0] - points[:, 1])
    total, scale = 0.0, np.abs(e_val)
    for a in range(3):
        t = eps[a] * term(values[a], psi[a], psi_r1[a], psi_r2[a])
        total = total + t
        scale = np.maximum(scale, np.abs(t))
    omega = values[3] if which == "eq5" else None
    return residual(total, e_val, points[:, 0] + points[:, 1], omega, big_c), scale


# -- mutation catalog ----------------------------------------------------------------


def _edited(op: LocalOperator, part: str, at: tuple, transform=lambda e: -e) -> LocalOperator:
    """``op`` with ``transform`` (negation unless given) applied to the entries
    of its metric (``part`` "g") or connection ("b") at the index path ``at``,
    None in it for every index of that axis."""
    def edit(grid, at):
        if not at:
            return transform(grid)
        return tuple(edit(x, at[1:]) if at[0] in (None, i) else x for i, x in enumerate(grid))
    field = getattr(op, part)
    return replace(op, **{part: type(field)(op.dim, edit(field.entries, at))})


def mutation_catalog() -> list[tuple[str, str, object]]:
    """Cataloged single-fault mutations of the presets.  Each entry is
    (name, check kind, operator); every one must fail its check with a
    residual of at least 1e-3 somewhere on the box."""
    h1, h2, h3 = build_nutku(1), build_nutku(2), build_nutku(3)
    catalog: list[tuple[str, str, object]] = [
        ("h1 b entry (1,2) negated", "local", _edited(h1, "b", (0, 1, None))),
        ("h1 b entry (1,1) k=1 negated", "local", _edited(h1, "b", (0, 0, 0))),
        ("h2 b entry (2,1) negated", "local", _edited(h2, "b", (1, 0, None))),
        ("h3 b entry (1,1) k=1 shifted", "local",
         _edited(h3, "b", (0, 0, 0), lambda e: e + _HALF * _P)),
        ("h1-theta metric (3,3) negated", "local", _edited(build_H1_Theta(const(1)), "g", (2, 2))),
        ("h1-theta Theta = 0 (degenerate)", "local", build_H1_Theta(const(0))),
        ("remark op 1 b entry (3,3) negated", "local",
         _edited(build_remark_operators(R3)[0], "b", (2, 2, None))),
    ]
    lams = (DEFAULT_LAMBDA1, DEFAULT_LAMBDA2)
    bad_b3 = ConstantBlock(c=(3, 4, 5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, 0))
    bumped = ConstantBlock(c=(3, 4, 5.5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, Fraction(1, 5)))
    flipped = tuple(
        AffinorField(3, -w.sign if a == 2 else w.sign, w.entries)
        for a, w in enumerate(h2_prolongation_tails(DEFAULT_BLOCK, *lams))
    )
    for name, k, tails in (
        ("h2-hat b3 = (0,0,0)", 2, h2_prolongation_tails(bad_b3, *lams)),
        ("h2-hat eps_3 sign flipped", 2, flipped),
        ("h2-hat c_3 bumped by 10%", 2, h2_prolongation_tails(bumped, *lams)),
        ("h3-hat Phi factor doubled", 3,
         h3_prolongation_tails(DEFAULT_BLOCK, *lams, phi_factor=Fraction(1))),
    ):
        catalog.append((name, "nonlocal", NonlocalOperator(_prolongation(k, DEFAULT_THETA), tails)))
    return catalog
