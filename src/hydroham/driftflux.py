"""Executable presets for the isothermal no-slip drift-flux example.

This module materializes the concrete objects of that example: the
three-component diagonal system S in Riemann invariants, its physical-variable
form, its nine operators (three classical 2x2 structures of the
essential subsystem, their prolongations to S, and the operators of the
reciprocally transformed system), the prolongation ansatz with its constraint
residuals, and the wave-equation solution families used in the construction.

Coefficient extraction rule, applied uniformly to every operator built
here: each matrix entry of the first-order part is a linear combination of
r^k_x monomials, and the coefficient of r^k_x, including the outer prefactors
such as e^{r2-r1} and the +-1/2 factors, becomes b^{ij}_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolation
from .exprs import (
    Deriv,
    Expr,
    as_expr,
    compile_tape,
    const,
    eval_scalar,
    eval_tape,
    exp,
    ln,
    var_indices,
    variables,
)
from .exprs import eval_jet  # noqa: F401  (benchmarks/tracer.py spans calls at this binding)
from .geometry import AffinorField, ConnectionField, MetricField
from .operators import LocalOperator, NonlocalOperator
from .reports import CheckReport, condition_from_arrays
from .sampling import SamplePlan, resolve
from .systems import ConservedCurrent, HydroSystem, PointChangeMap

DEFAULT_SEED = 8128

R1, R2, R3 = variables(3)
_HALF = const(Fraction(1, 2))
_P = exp(R2 - R1)  # e^{r2 - r1}, the ubiquitous prefactor
_E = exp(R1 - R2)  # its reciprocal

DEFAULT_THETA = const(1) + R3 ** 2
DEFAULT_LAMBDA1 = R3
DEFAULT_LAMBDA2 = R3 ** 2


def drift_plan(count: int = 100, seed: int = DEFAULT_SEED,
               tolerance: float = 1e-9) -> SamplePlan:
    """Sampling box r1, r2 in [-0.7, 0.7], r3 in [0.1, 1]: keeps e^{r2-r1}
    within [e^-1.4, e^1.4] and r3 clear of the map singularities."""
    return SamplePlan(dim=3, box=((-0.7, 0.7), (-0.7, 0.7), (0.1, 1.0)),
                      count=count, seed=seed, tolerance=tolerance)


def plane_plan(count: int = 100, seed: int = DEFAULT_SEED,
               tolerance: float = 1e-9) -> SamplePlan:
    """Two-component box for the essential subsystem and wave-equation checks."""
    return SamplePlan(dim=2, box=((-0.7, 0.7), (-0.7, 0.7)),
                      count=count, seed=seed, tolerance=tolerance)


def physical_plan(count: int = 100, seed: int = DEFAULT_SEED,
                  tolerance: float = 1e-9) -> SamplePlan:
    """Box in the physical variables (rho1, rho2, u): densities positive."""
    return SamplePlan(dim=3, box=((0.1, 1.0), (0.1, 1.0), (-0.7, 0.7)),
                      count=count, seed=seed, tolerance=tolerance)


# -- systems ---------------------------------------------------------------------


def _diag_system(speeds: tuple[Expr, ...]) -> HydroSystem:
    n = len(speeds)
    zero = const(0)
    return HydroSystem(
        dim=n,
        v=tuple(tuple(speeds[i] if i == j else zero for j in range(n)) for i in range(n)),
    )


_S_SPEEDS = (-(R1 + R2 + 1), -(R1 + R2 - 1), -(R1 + R2))  # v = -lambda entrywise


def build_system_S() -> HydroSystem:
    """Diagonal system r^i_t + lambda_i r^i_x = 0 with characteristic speeds
    lambda = (r1+r2+1, r1+r2-1, r1+r2), stored as v = -lambda."""
    return _diag_system(_S_SPEEDS)


def build_system_S0() -> HydroSystem:
    """The essential two-component subsystem: the first two rows of S."""
    return _diag_system(_S_SPEEDS[:2])


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

# 2x2 coefficient grids of the three classical structures; the corresponding
# 3x3 prolongations reuse these grids for their upper-left blocks.
_B1_ROWS2 = (
    ({0: _MINUS, 1: _ONE}, {0: _ONE, 1: _MINUS}),
    ({0: _MINUS, 1: _ONE}, {0: _ONE, 1: _MINUS}),
)
_B2_ROWS2 = (
    ({0: _MINUS, 1: _ONE}, {0: _MINUS, 1: _MINUS}),
    ({0: _ONE, 1: _ONE}, {0: _MINUS, 1: _ONE}),
)
_B3_ROWS2 = (
    ({0: _ONE - R1, 1: R1}, {0: -R2, 1: -R1}),
    ({0: R2, 1: R1}, {0: -R2, 1: _ONE + R2}),
)
_G1_DIAG2 = (-_P, _P)
_G2_DIAG2 = (_P, _P)
_G3_DIAG2 = (_P * R1, _P * R2)


def _diag_metric(diag: tuple[Expr, ...]) -> MetricField:
    n = len(diag)
    zero = const(0)
    return MetricField(
        n, tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))
    )


def build_nutku(k: int) -> LocalOperator:
    """The three classical Hamiltonian structures of the essential subsystem."""
    if k == 1:
        return LocalOperator(2, _diag_metric(_G1_DIAG2), _connection(2, -_HALF * _P, _B1_ROWS2))
    if k == 2:
        return LocalOperator(2, _diag_metric(_G2_DIAG2), _connection(2, _HALF * _P, _B2_ROWS2))
    if k == 3:
        return LocalOperator(2, _diag_metric(_G3_DIAG2), _connection(2, _HALF * _P, _B3_ROWS2))
    raise ValueError(f"operator index must be 1, 2 or 3, got {k}")


def _require_r3_only(e: Expr, name: str) -> Expr:
    e = as_expr(e)
    if not var_indices(e) <= {2}:
        raise ValueError(f"{name} must depend on r3 only")
    return e


def build_H1_Theta(theta) -> LocalOperator:
    """The local family prolonging the first classical structure to S,
    parameterized by a function Theta of r3."""
    theta = _require_r3_only(theta, "Theta")
    two_pt = const(2) * _P * theta
    rows = (
        (_B1_ROWS2[0][0], _B1_ROWS2[0][1], {2: const(-2)}),
        (_B1_ROWS2[1][0], _B1_ROWS2[1][1], {2: const(-2)}),
        (
            {2: const(2)},
            {2: const(2)},
            {0: two_pt, 1: -two_pt, 2: -_P * Deriv(theta, 2)},
        ),
    )
    g = _diag_metric((_G1_DIAG2[0], _G1_DIAG2[1], _P * _P * theta))
    return LocalOperator(3, g, _connection(3, -_HALF * _P, rows))


def _f33_rows(theta: Expr) -> dict:
    # f^{33} = 2 (r2_x - r1_x) Theta_hat + Theta_hat' r3_x with Theta_hat = P Theta
    two_pt = const(2) * _P * theta
    return {0: -two_pt, 1: two_pt, 2: _P * Deriv(theta, 2)}


def _h2_local(theta: Expr) -> LocalOperator:
    rows = (
        (_B2_ROWS2[0][0], _B2_ROWS2[0][1], {2: const(-2)}),
        (_B2_ROWS2[1][0], _B2_ROWS2[1][1], {2: const(2)}),
        ({2: const(2)}, {2: const(-2)}, _f33_rows(theta)),
    )
    g = _diag_metric((_G2_DIAG2[0], _G2_DIAG2[1], _P * _P * theta))
    return LocalOperator(3, g, _connection(3, _HALF * _P, rows))


def _h3_local(theta: Expr) -> LocalOperator:
    rows = (
        (_B3_ROWS2[0][0], _B3_ROWS2[0][1], {2: const(-2) * R1}),
        (_B3_ROWS2[1][0], _B3_ROWS2[1][1], {2: const(2) * R2}),
        ({2: const(2) * R1}, {2: const(-2) * R2}, _f33_rows(theta)),
    )
    g = _diag_metric((_G3_DIAG2[0], _G3_DIAG2[1], _P * _P * theta))
    return LocalOperator(3, g, _connection(3, _HALF * _P, rows))


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
        if any(e not in (-1, 1) for e in self.eps):
            raise ValueError("signs must be exactly -1 or +1")

    def validate(self, tol: float = 1e-12) -> None:
        checks = (
            ("sum eps_a c_a^2 = 0", sum(e * c * c for e, c in zip(self.eps, self.c)), 0),
            ("sum eps_a c_a b_1a = 0", sum(e * c * b for e, c, b in zip(self.eps, self.c, self.b1)), 0),
            ("sum eps_a c_a b_2a = 0", sum(e * c * b for e, c, b in zip(self.eps, self.c, self.b2)), 0),
            ("sum eps_a c_a b_3a = -1", sum(e * c * b for e, c, b in zip(self.eps, self.c, self.b3)), -1),
        )
        for label, value, target in checks:
            if abs(float(value) - target) > tol:
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


def h2_prolongation_tails(block: ConstantBlock, lam1: Expr, lam2: Expr) -> tuple[AffinorField, ...]:
    """diag(c_a, c_a, c_a + Phi^a e^{r2-r1}); no constraint validation here,
    so mutated blocks can be exercised as negative controls."""
    zero = const(0)
    tails = []
    for a, phi in enumerate(_phi_exprs(block, lam1, lam2)):
        ca = as_expr(block.c[a])
        entries = (
            (ca, zero, zero),
            (zero, ca, zero),
            (zero, zero, ca + phi * _P),
        )
        tails.append(AffinorField(3, int(block.eps[a]), entries))
    return tuple(tails)


def h3_prolongation_tails(block: ConstantBlock, lam1: Expr, lam2: Expr,
                          phi_factor: Fraction = Fraction(1, 2)) -> tuple[AffinorField, ...]:
    """c_a diag(r1+r2+1, r1+r2-1, r1+r2) + phi_factor Phi^a e^{r2-r1} diag(0,0,1).

    The shipped instances carry phi_factor = 1/2; other values are negative
    controls."""
    zero = const(0)
    tails = []
    for a, phi in enumerate(_phi_exprs(block, lam1, lam2)):
        ca = as_expr(block.c[a])
        entries = (
            (ca * (R1 + R2 + 1), zero, zero),
            (zero, ca * (R1 + R2 - 1), zero),
            (zero, zero, ca * (R1 + R2) + const(phi_factor) * phi * _P),
        )
        tails.append(AffinorField(3, int(block.eps[a]), entries))
    return tuple(tails)


def _validated_inputs(theta, lam1, lam2, block: ConstantBlock):
    theta = _require_r3_only(theta, "Theta")
    lam1 = _require_r3_only(lam1, "Lambda1")
    lam2 = _require_r3_only(lam2, "Lambda2")
    block.validate()
    pts = (0.2, 0.55, 0.9)
    m = np.array(
        [
            [eval_scalar(lam1, (0.0, 0.0, t)), eval_scalar(lam2, (0.0, 0.0, t)), 1.0]
            for t in pts
        ]
    )
    if abs(np.linalg.det(m)) < 1e-9:
        raise ConstraintViolation(
            "Lambda1, Lambda2 and the constant 1 must be linearly independent"
        )
    return theta, lam1, lam2


def build_H2_hat(theta=DEFAULT_THETA, lam1=DEFAULT_LAMBDA1, lam2=DEFAULT_LAMBDA2,
                 block: ConstantBlock = DEFAULT_BLOCK) -> NonlocalOperator:
    """Nonlocal prolongation of the second classical structure to S."""
    theta, lam1, lam2 = _validated_inputs(theta, lam1, lam2, block)
    return NonlocalOperator(_h2_local(theta), h2_prolongation_tails(block, lam1, lam2))


def build_H3_hat(theta=DEFAULT_THETA, lam1=DEFAULT_LAMBDA1, lam2=DEFAULT_LAMBDA2,
                 block: ConstantBlock = DEFAULT_BLOCK) -> NonlocalOperator:
    """Nonlocal prolongation of the third classical structure to S."""
    theta, lam1, lam2 = _validated_inputs(theta, lam1, lam2, block)
    return NonlocalOperator(_h3_local(theta), h3_prolongation_tails(block, lam1, lam2))


def build_remark_operators(theta_tilde) -> tuple[LocalOperator, LocalOperator, LocalOperator]:
    """The three local operator families of the reciprocally transformed
    system, parameterized by a function of r3.

    The first-order blocks are the classical 2x2 grids with their overall
    sign flipped along with the prefactor (now e^{r1-r2}), the unique choice
    under skew-adjointness.
    """
    tt = _require_r3_only(theta_tilde, "Theta")
    q = _E
    dtt = Deriv(tt, 2)
    zero_row: dict = {}
    h1 = LocalOperator(
        3,
        _diag_metric((-q, q, q * _P * tt)),
        _connection(
            3,
            _HALF * q,
            (
                (_B1_ROWS2[0][0], _B1_ROWS2[0][1], zero_row),
                (_B1_ROWS2[1][0], _B1_ROWS2[1][1], zero_row),
                (zero_row, zero_row, {2: _P * dtt}),
            ),
        ),
    )
    h2 = LocalOperator(
        3,
        _diag_metric((q, q, q * _P * tt)),
        _connection(
            3,
            -_HALF * q,
            (
                (_B2_ROWS2[0][0], _B2_ROWS2[0][1], zero_row),
                (_B2_ROWS2[1][0], _B2_ROWS2[1][1], zero_row),
                (zero_row, zero_row, {2: -_P * dtt}),
            ),
        ),
    )
    h3 = LocalOperator(
        3,
        _diag_metric((q * R1, q * R2, q * _P * tt)),
        _connection(
            3,
            _HALF * q,
            (
                ({0: _ONE + R1, 1: -R1}, {0: R2, 1: R1}, zero_row),
                ({0: -R2, 1: -R1}, {0: R2, 1: _ONE - R2}, zero_row),
                (zero_row, zero_row, {2: _P * dtt}),
            ),
        ),
    )
    return h1, h2, h3


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
    the first derivatives (N, 2) and second derivatives (N, 2, 2) of Psi."""
    mixed = 2.0 * d2[:, 0, 1]
    raw = mixed + d1[:, 0] - d1[:, 1]
    return raw, np.maximum(np.maximum(np.abs(mixed), np.abs(d1[:, 0])), np.abs(d1[:, 1]))


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
def kg_residual(psi: Expr, plan: SamplePlan | None = None) -> CheckReport:
    """Residual of the linear wave identity 2 Psi_{r1 r2} = Psi_{r2} - Psi_{r1}
    for a function of (r1, r2), redrawing points where Psi leaves its
    domain."""
    psi = as_expr(psi)
    if not var_indices(psi) <= {0, 1}:
        raise ValueError("Psi must depend on (r1, r2) only")
    if plan is None:
        plan = plane_plan()
    n = min(2, plan.dim)
    tape = compile_tape((psi,), n, 2)

    def evaluate(points):
        jets = eval_tape(tape, points[:, :n])
        _, d1, d2 = jets.derivatives()
        return jets.failed, wave_residuals(d1[..., 0], d2[..., 0])

    found = resolve(plan, evaluate, "domain too hostile at sample point {}")
    cond = condition_from_arrays(
        "wave_identity", "2 Psi_{r1 r2} - Psi_{r2} + Psi_{r1} = 0",
        found.points, *found.payload, plan.tolerance
    )
    return CheckReport(title="wave-equation residual", conditions=[cond], plan=plan)


def _as_k(k) -> Fraction:
    k = Fraction(k)
    if k == Fraction(1, 2):
        raise ValueError("k = 1/2 is excluded (pole in the exponent)")
    return k


def kg_family_u(k) -> Expr:
    """Exponential solution family e^{k r1 + k r2 / (1 - 2k)}."""
    k = _as_k(k)
    return exp(const(k) * R1 + const(k / (1 - 2 * k)) * R2)


def kg_family_u_half_r1(k) -> Expr:
    """Variant with the r1 coefficient halved.  It fails the wave identity
    for every k != 0 and is kept as a diagnostic negative control."""
    k = _as_k(k)
    return exp(const(k / 2) * R1 + const(k / (1 - 2 * k)) * R2)


def kg_family_v(k) -> Expr:
    """Derived family ((1-2k)^2 r1 + r2) e^{k r1 + k r2/(1-2k)}: the image of
    the exponential family under the scaling symmetry of the wave identity."""
    k = _as_k(k)
    return (const((1 - 2 * k) ** 2) * R1 + R2) * kg_family_u(k)


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
        object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))
        object.__setattr__(self, "psi", tuple(as_expr(p) for p in self.psi))
        object.__setattr__(self, "phi", tuple(as_expr(p) for p in self.phi))
        if any(e not in (-1, 1) for e in self.eps):
            raise ValueError("signs must be exactly -1 or +1")
        for p in self.psi:
            if not var_indices(p) <= {0, 1}:
                raise ValueError("each Psi must depend on (r1, r2) only")
        for p in self.phi:
            if not var_indices(p) <= {2}:
                raise ValueError("each Phi must depend on r3 only")

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


CONSTRAINT_EQUATIONS = ("eq4a", "eq4b", "eq4c", "eq5", "eq7", "eq4a3", "eq4b3")


def _phi_psi_r1(phi, psi, d1, d2):
    return (phi + psi) * d1


def _phi_psi_r2(phi, psi, d1, d2):
    return (phi + psi) * d2


# per equation: the term of one component, from (Phi, Psi, Psi_{r1}, Psi_{r2}),
# and the residual, from (sum of eps_a terms, e^{r1-r2}, r1 + r2, Omega, C)
_EQUATIONS = {
    "eq4a": (_phi_psi_r1, lambda t, e, s, omega, c: t + e),
    "eq4b": (_phi_psi_r2, lambda t, e, s, omega, c: t - e),
    "eq4c": (lambda phi, psi, d1, d2: d1 * d2, lambda t, e, s, omega, c: t),
    "eq5": (lambda phi, psi, d1, d2: (phi + psi / 2.0) * psi,
            lambda t, e, s, omega, c: t - omega + e),
    "eq7": (lambda phi, psi, d1, d2: psi * psi, lambda t, e, s, omega, c: t - float(c) + 2.0 * e),
    "eq4a3": (_phi_psi_r1, lambda t, e, s, omega, c: t - 0.5 * (s + 1.0) * e),
    "eq4b3": (_phi_psi_r2, lambda t, e, s, omega, c: t + 0.5 * (s - 1.0) * e),
}

_DESCRIPTIONS = {
    "eq4a": "sum eps (Phi + Psi) Psi_{r1} = -e^{r1-r2}",
    "eq4b": "sum eps (Phi + Psi) Psi_{r2} = e^{r1-r2}",
    "eq4c": "sum eps Psi_{r1} Psi_{r2} = 0",
    "eq5": "sum eps (Phi + Psi/2) Psi = Omega(r3) - e^{r1-r2}",
    "eq7": "sum eps Psi^2 = C - 2 e^{r1-r2}",
    "eq4a3": "sum eps (Phi + Psi) Psi_{r1} = (r1+r2+1)/2 e^{r1-r2}",
    "eq4b3": "sum eps (Phi + Psi) Psi_{r2} = -(r1+r2-1)/2 e^{r1-r2}",
}


@np.errstate(all="ignore")  # non-finite values fail in the verdict instead
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
        omega = const(0) if omega is None else _require_r3_only(omega, "Omega")
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
        psi, grad, _ = jets.derivatives()
        return jets.failed | vals.failed, constraint_equation_residuals(
            which, ansatz.eps, points, psi, grad[:, 0], grad[:, 1], vals.coeffs[:, 0, :].T, big_c)

    found = resolve(plan, evaluate, "domain too hostile at sample point {}")
    cond = condition_from_arrays(which, _DESCRIPTIONS[which], found.points, *found.payload,
                                 plan.tolerance)
    return CheckReport(title=f"constraint residual {which}", conditions=[cond], plan=plan)


def constraint_equation_residuals(which: str, eps, points, psi, psi_r1, psi_r2, values,
                                  big_c=None):
    """Per lane (raw, scale) of one constraint equation, from the values and
    r1, r2 derivatives of the three Psi^a (each (N, 3)) and the values of the
    three Phi^a, then Omega for eq5 (N, 3 or 4)."""
    term, residual = _EQUATIONS[which]
    e_val = np.exp(points[:, 0] - points[:, 1])
    total, scale = 0.0, np.abs(e_val)
    for a in range(3):
        t = eps[a] * term(values[:, a], psi[:, a], psi_r1[:, a], psi_r2[:, a])
        total = total + t
        scale = np.maximum(scale, np.abs(t))
    omega = values[:, 3] if which == "eq5" else None
    return residual(total, e_val, points[:, 0] + points[:, 1], omega, big_c), scale


def ansatz_affinors(ansatz: ProlongationAnsatz) -> tuple[AffinorField, ...]:
    """Affinors e^{r2-r1} diag(Psi_{r1}, -Psi_{r2}, Phi + Psi) of the ansatz,
    with the derivatives materialized through jets."""
    zero = const(0)
    tails = []
    for a in range(3):
        psi, phi = ansatz.psi[a], ansatz.phi[a]
        entries = (
            (_P * Deriv(psi, 0), zero, zero),
            (zero, -(_P * Deriv(psi, 1)), zero),
            (zero, zero, _P * (phi + psi)),
        )
        tails.append(AffinorField(3, ansatz.eps[a], entries))
    return tuple(tails)


# -- mutation catalog ----------------------------------------------------------------


def _replace_b_entry(op: LocalOperator, i: int, j: int, k: int | None,
                     transform) -> LocalOperator:
    n = op.dim
    entries = [[list(op.b.entries[a][b]) for b in range(n)] for a in range(n)]
    ks = range(n) if k is None else (k,)
    for kk in ks:
        entries[i][j][kk] = transform(entries[i][j][kk])
    b = ConnectionField(n, tuple(tuple(tuple(row) for row in plane) for plane in entries))
    return LocalOperator(n, op.g, b)


def _negate_metric_entry(op: LocalOperator, i: int, j: int) -> LocalOperator:
    n = op.dim
    entries = [list(row) for row in op.g.entries]
    entries[i][j] = -entries[i][j]
    if i != j:
        entries[j][i] = -entries[j][i]
    return LocalOperator(n, MetricField(n, tuple(tuple(r) for r in entries)), op.b)


def mutation_catalog() -> list[tuple[str, str, object]]:
    """Cataloged single-fault mutations of the presets.  Each entry is
    (name, check kind, operator); every one must fail its check with a
    residual of at least 1e-3 somewhere on the box."""
    h1, h2, h3 = build_nutku(1), build_nutku(2), build_nutku(3)
    neg = lambda e: -e
    catalog: list[tuple[str, str, object]] = [
        ("h1 b entry (1,2) negated", "local", _replace_b_entry(h1, 0, 1, None, neg)),
        ("h1 b entry (1,1) k=1 negated", "local", _replace_b_entry(h1, 0, 0, 0, neg)),
        ("h2 b entry (2,1) negated", "local", _replace_b_entry(h2, 1, 0, None, neg)),
        ("h3 b entry (1,1) k=1 shifted", "local",
         _replace_b_entry(h3, 0, 0, 0, lambda e: e + _HALF * _P)),
        ("h1-theta metric (3,3) negated", "local",
         _negate_metric_entry(build_H1_Theta(const(1)), 2, 2)),
        ("h1-theta Theta = 0 (degenerate)", "local", build_H1_Theta(const(0))),
        ("remark op 1 b entry (3,3) negated", "local",
         _replace_b_entry(build_remark_operators(R3)[0], 2, 2, None, neg)),
    ]
    bad_b3 = ConstantBlock(c=(3, 4, 5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, 0))
    catalog.append((
        "h2-hat b3 = (0,0,0)",
        "nonlocal",
        NonlocalOperator(
            _h2_local(DEFAULT_THETA),
            h2_prolongation_tails(bad_b3, DEFAULT_LAMBDA1, DEFAULT_LAMBDA2),
        ),
    ))
    flipped = tuple(
        AffinorField(3, -w.sign if a == 2 else w.sign, w.entries)
        for a, w in enumerate(
            h2_prolongation_tails(DEFAULT_BLOCK, DEFAULT_LAMBDA1, DEFAULT_LAMBDA2)
        )
    )
    catalog.append((
        "h2-hat eps_3 sign flipped",
        "nonlocal",
        NonlocalOperator(_h2_local(DEFAULT_THETA), flipped),
    ))
    bumped = ConstantBlock(c=(3, 4, 5.5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, Fraction(1, 5)))
    catalog.append((
        "h2-hat c_3 bumped by 10%",
        "nonlocal",
        NonlocalOperator(
            _h2_local(DEFAULT_THETA),
            h2_prolongation_tails(bumped, DEFAULT_LAMBDA1, DEFAULT_LAMBDA2),
        ),
    ))
    catalog.append((
        "h3-hat Phi factor doubled",
        "nonlocal",
        NonlocalOperator(
            _h3_local(DEFAULT_THETA),
            h3_prolongation_tails(DEFAULT_BLOCK, DEFAULT_LAMBDA1, DEFAULT_LAMBDA2,
                                  phi_factor=Fraction(1)),
        ),
    ))
    return catalog
