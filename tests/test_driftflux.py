import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hydroham import driftflux as df
from hydroham import systems
from hydroham.errors import ConstraintViolation, EvalDomainError
from hydroham.exprs import Deriv, const, eval_scalar, exp, fields_equal_numeric
from hydroham.geometry import AffinorField, eval_matrix
from hydroham.operators import check_ferapontov, check_local_hamiltonian, check_skew_adjoint
from hydroham.parsing import parse_expr


# -- systems and the invariant map ------------------------------------------------


def test_characteristic_speeds_at_origin():
    v = df.build_system_S().speeds((0.0, 0.0, 0.0))
    assert np.allclose(-np.diag(v), (1.0, -1.0, 0.0))  # lambda = -v


def test_physical_system_momentum_row():
    v = df.build_system_S_tilde().speeds((1.0, 1.0, 0.0))
    assert np.allclose(v[2], (-0.5, -0.5, 0.0))


def test_truncation_is_exact():
    s, s0 = df.build_system_S(), df.build_system_S0()
    for i in range(2):
        for j in range(2):
            assert s0.v[i][j] == s.v[i][j]


def test_riemann_map_examples():
    m = df.riemann_map()
    assert np.allclose(m.apply((1.0, 0.0, 0.0)), (0.0, 0.0, 0.0))
    expected = ((2 + math.log(2)) / 2, (2 - math.log(2)) / 2, 1.0)
    assert np.allclose(m.apply((1.0, 1.0, 2.0)), expected)


def test_riemann_map_round_trip():
    m = df.riemann_map()
    plan = df.physical_plan(count=100)
    worst = 0.0
    for i in range(plan.count):
        p = plan.point(i)
        q = m.apply_inverse(m.apply(p))
        worst = max(worst, np.max(np.abs(q - p) / np.maximum(1.0, np.abs(p))))
    assert worst <= 1e-10
    # and the other way around, sampling invariant space
    plan_r = df.drift_plan(count=100)
    for i in range(plan_r.count):
        r = plan_r.point(i)
        back = m.apply(m.apply_inverse(r))
        worst = max(worst, np.max(np.abs(back - r) / np.maximum(1.0, np.abs(r))))
    assert worst <= 1e-10


def test_inverse_map_compiles_once_and_matches_entrywise_values(monkeypatch):
    m = df.riemann_map()
    compiled = []
    compile_tape = systems.compile_tape
    monkeypatch.setattr(systems, "compile_tape",
                        lambda *args: compiled.append(args) or compile_tape(*args))
    points = [df.physical_plan(count=100).point(i) for i in range(100)]
    points += [m.apply(p) for p in points]
    for p in points:
        want = np.array([eval_scalar(e, p) for e in m.inverse])
        assert m.apply_inverse(p).tobytes() == want.tobytes(), p
    assert [args[0] for args in compiled].count(m.inverse) == 1
    with pytest.raises(EvalDomainError, match="division by zero"):
        m.apply_inverse((0.0, 0.0, -1.0))


# -- operator builders ---------------------------------------------------------------


# Theta of the prolongations: the restriction to the essential subsystem is
# the classical structure whatever Theta (the prolongation property)
RESTRICTION_THETAS = [const(1), df.R3, const(1) + df.R3 ** 2]


@pytest.mark.parametrize("theta", RESTRICTION_THETAS, ids=str)
def test_family_restricts_to_classical_structure(theta):
    h1 = df.build_nutku(1)
    fam = df.build_H1_Theta(theta)
    for i in range(2):
        for j in range(2):
            assert fam.g.entries[i][j] == h1.g.entries[i][j]
            for k in range(2):
                assert fam.b.entries[i][j][k] == h1.b.entries[i][j][k]
    assert df.restrict_local(fam) == h1


@pytest.mark.parametrize("theta", RESTRICTION_THETAS, ids=str)
def test_nonlocal_blocks_restrict_to_classical_structures(theta):
    for build, k in ((df.build_H2_hat, 2), (df.build_H3_hat, 3)):
        classical = df.build_nutku(k)
        local = build(theta=theta).local
        for i in range(2):
            for j in range(2):
                assert local.g.entries[i][j] == classical.g.entries[i][j]
                for kk in range(2):
                    assert local.b.entries[i][j][kk] == classical.b.entries[i][j][kk]
        assert df.restrict_local(local) == classical


def test_theta_must_depend_on_r3_only():
    with pytest.raises(ValueError, match="r3 only"):
        df.build_H1_Theta(df.R1)
    with pytest.raises(ValueError, match="r3 only"):
        df.build_H2_hat(theta=df.R2 + df.R3)


def test_nutku_index_validation():
    with pytest.raises(ValueError):
        df.build_nutku(4)


@pytest.mark.parametrize("theta_tilde", [const(1), df.R3], ids=str)
@pytest.mark.parametrize("index", [0, 1, 2])
def test_transformed_operator_block_is_skew_adjoint(theta_tilde, index):
    op = df.build_remark_operators(theta_tilde)[index]
    rep = check_skew_adjoint(df.restrict_local(op, 2), df.plane_plan(count=40))
    assert rep.passed
    assert check_skew_adjoint(op, df.drift_plan(count=40)).passed
    assert check_local_hamiltonian(op, df.drift_plan(count=40)).passed


# -- constant blocks --------------------------------------------------------------


def test_default_block_accepted():
    df.DEFAULT_BLOCK.validate()  # must not raise
    # the defining sums, computed directly
    e, c = df.DEFAULT_BLOCK.eps, df.DEFAULT_BLOCK.c
    assert sum(ee * cc * cc for ee, cc in zip(e, c)) == 0  # 9 + 16 - 25
    assert sum(ee * cc * bb for ee, cc, bb in zip(e, c, df.DEFAULT_BLOCK.b1)) == 0
    assert sum(ee * cc * bb for ee, cc, bb in zip(e, c, df.DEFAULT_BLOCK.b2)) == 0
    assert sum(ee * cc * bb for ee, cc, bb in zip(e, c, df.DEFAULT_BLOCK.b3)) == -1


def test_unit_block_rejected():
    block = df.ConstantBlock(c=(1, 1, 1), b1=(0, 0, 0), b2=(0, 0, 0), b3=(0, 0, 0))
    with pytest.raises(ConstraintViolation, match="c_a\\^2"):
        block.validate()


def test_violated_equation_is_named():
    block = df.ConstantBlock(c=(3, 4, 5), b1=(4, -3, 0), b2=(0, 5, 4), b3=(0, 0, 0))
    with pytest.raises(ConstraintViolation, match="b_3a"):
        df.build_H2_hat(block=block)


def test_dependent_lambdas_rejected():
    with pytest.raises(ConstraintViolation, match="linearly independent"):
        df.build_H2_hat(lam1=df.R3, lam2=const(2) * df.R3 + const(1))


# -- the prolongation ansatz -----------------------------------------------------------


def test_tails_match_ansatz_affinors():
    built = df.build_H2_hat().tails
    ansatz, p, zero = df.default_ansatz(), exp(df.R2 - df.R1), const(0)
    # affinors e^{r2-r1} diag(Psi_{r1}, -Psi_{r2}, Phi + Psi), derivatives through jets
    from_ansatz = [
        AffinorField(3, eps, [[d if i == j else zero for j in range(3)] for i, d in enumerate(
            (p * Deriv(psi, 0), -(p * Deriv(psi, 1)), p * (phi + psi)))])
        for eps, psi, phi in zip(ansatz.eps, ansatz.psi, ansatz.phi)
    ]
    plan = df.drift_plan(count=50)
    for w_built, w_ans in zip(built, from_ansatz):
        assert w_built.sign == w_ans.sign
        for i in range(plan.count):
            p = plan.point(i)
            a = eval_matrix(w_built.entries, p)
            b = eval_matrix(w_ans.entries, p)
            assert np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))) <= 1e-10


def test_ansatz_psi_components_solve_wave_identity():
    for psi in df.default_ansatz().psi:
        assert df.kg_residual(psi).passed


# -- wave-equation families ----------------------------------------------------------


def test_wave_identity_examples():
    assert df.kg_residual(const(3)).passed
    assert df.kg_residual(parse_expr("exp(r1-r2)", 2)).passed
    rep = df.kg_residual(df.R1)
    assert not rep.passed
    assert rep.conditions[0].residual == pytest.approx(1.0)


def test_exponential_family():
    u0 = df.kg_family_u(0)
    assert eval_scalar(u0, (0.3, -0.8)) == pytest.approx(1.0)
    assert df.kg_residual(u0).passed
    for k in (1, 2, 3, Fraction(-1, 3)):
        assert df.kg_residual(df.kg_family_u(k)).passed


def test_half_exponent_variant_fails():
    rep = df.kg_residual(df.kg_family_u_half_r1(1))
    assert not rep.passed
    assert rep.conditions[0].residual >= 1e-2


def test_derived_family_solves():
    for k in (1, 2, 3):
        assert df.kg_residual(df.kg_family_v(k)).passed


def test_characteristic_maps_families():
    plan = df.plane_plan(count=100)
    for k in (1, 2):
        lhs = const(1 - 2 * k) * df.kg_characteristic_J(df.kg_family_u(k))
        rep = fields_equal_numeric(lhs, df.kg_family_v(k), plan)
        assert rep.passed


def test_excluded_parameter():
    with pytest.raises(ValueError, match="1/2"):
        df.kg_family_u(Fraction(1, 2))
    with pytest.raises(ValueError, match="1/2"):
        df.kg_family_v(0.5)


@pytest.mark.parametrize("build", [df.kg_family_u, df.kg_family_u_half_r1, df.kg_family_v])
@pytest.mark.parametrize("k,message", [
    (Fraction(10) ** 400, "the families' constant k is not a finite double"),
    (Fraction(1, 2) + Fraction(1, 10 ** 400),
     "the families' constant k/(1 - 2k) is not a finite double at k = 0.5"),
])
def test_a_family_constant_past_the_doubles_is_a_value_error(build, k, message):
    # the tape compiler met it as an OverflowError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(k)


def test_the_derived_family_rejects_its_square_past_the_doubles():
    with pytest.raises(ValueError, match=r"\(1 - 2k\)\^2 is not a finite double at k = 1e\+200"):
        df.kg_family_v(1e200)
    df.kg_family_u(1e200)  # raises nothing: k and k/(1 - 2k) are finite doubles


# -- constraint residuals ---------------------------------------------------------------


def test_default_ansatz_satisfies_core_constraints():
    ansatz = df.default_ansatz()
    plan = df.drift_plan(count=100, tolerance=1e-10)
    for eq in ("eq4a", "eq4b", "eq4c"):
        rep = df.constraint_residuals(ansatz, eq, plan)
        assert rep.passed, eq
        assert rep.conditions[0].residual <= 1e-10
    rep = df.constraint_residuals(ansatz, "eq5", plan, omega=const(0))
    assert rep.passed
    assert rep.conditions[0].residual <= 1e-10


def test_zero_ansatz_fails_first_constraint():
    zero = df.ProlongationAnsatz(eps=(1, 1, -1), psi=(const(0),) * 3, phi=(const(0),) * 3)
    rep = df.constraint_residuals(zero, "eq4a", df.drift_plan(count=60))
    assert not rep.passed
    # raw residual is e^{r1-r2} itself; normalized it is capped at 1
    assert rep.conditions[0].residual >= 0.5


def test_non_finite_psi_fails_the_wave_precondition():
    base = df.default_ansatz()
    psi = (exp(400) * exp(400) * df.R1,) + base.psi[1:]
    ansatz = df.ProlongationAnsatz(base.eps, psi, base.phi)
    with pytest.raises(ValueError, match=r"Psi\[0\].*non-finite"):
        df.constraint_residuals(ansatz, "eq4a", df.drift_plan(count=10))


def test_quadratic_constraint_with_shifted_solution():
    # Psi = (3E, 4E, 1/5 + 5E) solves sum eps Psi^2 = C - 2E with C = -1/25
    e = parse_expr("exp(r1-r2)", 2)
    psi = (const(3) * e, const(4) * e, const(Fraction(1, 5)) + const(5) * e)
    ansatz = df.ProlongationAnsatz(eps=(1, 1, -1), psi=psi, phi=(const(0),) * 3)
    rep = df.constraint_residuals(ansatz, "eq7", df.drift_plan(count=60), big_c=-1 / 25)
    assert rep.passed


def test_third_family_analogue_signs():
    # the ansatz behind the passing third nonlocal family satisfies the
    # analogue identities with the opposite right-hand sign; both facts are
    # pinned here
    e = parse_expr("exp(r1-r2)", 2)
    s = df.R1 + df.R2
    phi = tuple(const(Fraction(1, 2)) * p for p in df.default_ansatz().phi)
    psi_op = tuple(const(c) * s * e for c in (3, 4, 5))
    op_ansatz = df.ProlongationAnsatz(eps=(1, 1, -1), psi=psi_op, phi=phi)
    rep = df.constraint_residuals(op_ansatz, "eq4a3", df.drift_plan(count=60))
    assert not rep.passed  # the stated right side has the opposite sign here

    psi_flip = tuple(-const(c) * s * e for c in (3, 4, 5))
    flip_ansatz = df.ProlongationAnsatz(eps=(1, 1, -1), psi=psi_flip, phi=phi)
    for eq in ("eq4a3", "eq4b3"):
        rep = df.constraint_residuals(flip_ansatz, eq, df.drift_plan(count=60))
        assert rep.passed, eq


def test_non_solution_psi_rejected_as_precondition():
    bad = df.ProlongationAnsatz(eps=(1, 1, -1), psi=(df.R1, const(0), const(0)),
                                phi=(const(0),) * 3)
    with pytest.raises(ValueError, match="wave identity"):
        df.constraint_residuals(bad, "eq4a")


def test_unknown_equation_tag():
    with pytest.raises(ValueError, match="unknown equation"):
        df.constraint_residuals(df.default_ansatz(), "eq9")


def test_eq7_requires_constant():
    with pytest.raises(ValueError, match="requires the constant"):
        df.constraint_residuals(df.default_ansatz(), "eq7")


# -- mutation catalog -------------------------------------------------------------------


def test_catalog_has_at_least_ten_entries():
    assert len(df.mutation_catalog()) >= 10


def test_every_mutation_fails_with_visible_residual():
    for name, kind, op in df.mutation_catalog():
        plan = df.drift_plan(count=40) if op.dim == 3 else df.plane_plan(count=40)
        rep = (check_local_hamiltonian(op, plan) if kind == "local"
               else check_ferapontov(op, plan))
        assert not rep.passed, name
        worst = max((c.residual for c in rep.conditions if c.residual is not None),
                    default=0.0)
        assert worst >= 1e-3, name
