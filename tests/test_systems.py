import numpy as np
import pytest

import cases
from hydroham import driftflux as df
from hydroham.errors import NonConservedCurrentError, VanishingDenominatorError
from hydroham.exprs import const, eval_scalar, exp, variables
from hydroham.parsing import parse_expr
from hydroham.sampling import SamplePlan, default_plan
from hydroham.systems import (
    ConservedCurrent,
    HydroSystem,
    PointChangeMap,
    build_reciprocal_system,
    check_change_of_variables,
    check_conserved_current,
    reciprocal_transform_system,
)

PLAN3 = df.drift_plan(count=60)
PLAN2 = df.plane_plan(count=60)


# -- conserved currents ---------------------------------------------------------


def test_constant_current_conserved_on_any_system():
    c = ConservedCurrent(const(1), const(0))
    assert check_conserved_current(df.build_system_S(), c, PLAN3).passed


def test_exponential_current_conserved():
    _, c2 = df.remark_currents()
    assert check_conserved_current(df.build_system_S(), c2, PLAN3).passed


def test_non_current_fails_with_predicted_residual():
    # rho = r1, sigma = 0: the divergence reduces to v^1_1 = -(r1+r2+1)
    c = ConservedCurrent(df.R1, const(0))
    rep = check_conserved_current(df.build_system_S(), c, PLAN3)
    assert not rep.passed
    cond = rep.conditions[0]
    w = cond.witness
    raw = abs(-(w[0] + w[1] + 1.0))
    assert cond.residual == pytest.approx(raw / max(1.0, raw), rel=1e-12)


SYSTEM_CHECKS = {
    "current": lambda s, plan: check_conserved_current(s, df.remark_currents()[1], plan),
    "change": lambda s, plan: check_change_of_variables(
        s, s, PointChangeMap(forward=tuple(variables(3))), plan),
    "reciprocal": lambda s, plan: build_reciprocal_system(s, *df.remark_currents(), plan),
    "checked reciprocal": lambda s, plan: reciprocal_transform_system(
        s, *df.remark_currents(), plan),
}


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("check", sorted(SYSTEM_CHECKS))
def test_a_plan_of_another_dimension_is_rejected(check, dim):
    # rejected before any tape runs, with the operator checks' message
    with pytest.raises(ValueError,
                       match=f"^sample plan of dimension {dim} for a system of dimension 3$"):
        SYSTEM_CHECKS[check](df.build_system_S(), default_plan(dim))


# -- changes of variables ----------------------------------------------------------


def test_identity_map_conjugates_system_to_itself():
    u = variables(3)
    m = PointChangeMap(forward=tuple(u), inverse=tuple(u))
    s = df.build_system_S()
    assert check_change_of_variables(s, s, m, PLAN3).passed


def test_physical_to_invariant_diagonalization():
    rep = check_change_of_variables(
        df.build_system_S_tilde(), df.build_system_S(), df.riemann_map(),
        df.physical_plan(count=100),
    )
    assert rep.passed
    assert rep.conditions[0].residual <= 1e-9


def test_wrong_map_fails():
    rho1, rho2, u = variables(3)
    good = df.riemann_map()
    bad = PointChangeMap(forward=(good.forward[0], good.forward[1], rho2 * rho1))
    rep = check_change_of_variables(
        df.build_system_S_tilde(), df.build_system_S(), bad, df.physical_plan(count=60)
    )
    assert not rep.passed


def test_conjugacy_is_invertible():
    # if (S_old, S_new, m) passes then so does (S_new, S_old, m^{-1})
    m = df.riemann_map()
    rep = check_change_of_variables(
        df.build_system_S(), df.build_system_S_tilde(),
        PointChangeMap(forward=m.inverse, inverse=m.forward), PLAN3,
    )
    assert rep.passed


# -- reciprocal transformations -------------------------------------------------------


def test_identity_pair_is_identity_on_speeds():
    s = df.build_system_S()
    c1 = ConservedCurrent(const(0), const(1))
    c2 = ConservedCurrent(const(1), const(0))
    t = reciprocal_transform_system(s, c1, c2, PLAN3)
    for i in range(20):
        p = PLAN3.point(i)
        assert np.max(np.abs(t.speeds(p) - s.speeds(p))) <= 1e-12


def test_constant_space_current_rescales_speeds():
    s = df.build_system_S()
    c1 = ConservedCurrent(const(0), const(1))
    ck = ConservedCurrent(const(3), const(0))
    t = reciprocal_transform_system(s, c1, ck, PLAN3)
    for i in range(20):
        p = PLAN3.point(i)
        assert np.allclose(t.speeds(p), 3.0 * s.speeds(p), rtol=0, atol=1e-12)


def test_remark_pair_gives_printed_speeds():
    s = df.build_system_S()
    c1, c2 = df.remark_currents()
    t = reciprocal_transform_system(s, c1, c2, PLAN3)
    for i in range(30):
        p = PLAN3.point(i)
        e = np.exp(p[0] - p[1])
        assert np.allclose(np.diag(t.speeds(p)), (-e, e, 0.0), rtol=0, atol=1e-10 * max(1, e))
        off = t.speeds(p) - np.diag(np.diag(t.speeds(p)))
        assert np.max(np.abs(off)) <= 1e-12


def test_truncated_system_transforms_entrywise():
    s0 = df.build_system_S0()
    c1 = ConservedCurrent(const(0), const(1))
    c2 = ConservedCurrent(parse_expr("exp(r1-r2)", 2), parse_expr("(r1+r2)*exp(r1-r2)", 2))
    t = reciprocal_transform_system(s0, c1, c2, PLAN2)
    for i in range(20):
        p = PLAN2.point(i)
        e = np.exp(p[0] - p[1])
        assert np.allclose(np.diag(t.speeds(p)), (-e, e), rtol=0, atol=1e-10 * max(1, e))


def test_non_conserved_current_rejected():
    s = df.build_system_S()
    bad = ConservedCurrent(df.R1, const(0))
    good = ConservedCurrent(const(0), const(1))
    with pytest.raises(NonConservedCurrentError):
        reciprocal_transform_system(s, good, bad, PLAN3)


def test_vanishing_denominator_rejected():
    # c1 = (1, 0) is conserved but sigma_1 - rho_1 v hits zero where the third
    # speed r1 + r2 crosses zero inside the box
    s = df.build_system_S()
    c1 = ConservedCurrent(const(1), const(0))
    c2 = ConservedCurrent(const(0), const(1))
    with pytest.raises(VanishingDenominatorError):
        reciprocal_transform_system(s, c1, c2, PLAN3)


def test_diagonal_is_read_from_the_entries():
    (u1,) = variables(1)
    assert HydroSystem(dim=2, v=((u1, const(0)), (parse_expr("0", 2), const(1)))).diagonal
    assert not HydroSystem(dim=2, v=((const(1), const(1)), (const(0), const(1)))).diagonal
    # only a literal zero counts, not an entry that merely evaluates to zero
    assert not HydroSystem(dim=2, v=((u1, u1 - u1), (const(0), u1))).diagonal
    assert df.build_system_S().diagonal and not df.build_system_S_tilde().diagonal
    with pytest.raises(ValueError, match=r"speed matrix must have shape \(2, 2\)"):
        HydroSystem(dim=2, v=((const(1), const(0)),))


def test_non_finite_divergence_is_not_conserved():
    s = df.build_system_S()
    bad = ConservedCurrent(exp(400) * exp(400) * df.R1, const(0))
    good = ConservedCurrent(const(0), const(1))
    with pytest.raises(NonConservedCurrentError, match="non-finite"):
        reciprocal_transform_system(s, bad, good, df.drift_plan(count=10))


def test_speed_entries_must_be_expressions():
    (u1,) = variables(1)
    with pytest.raises(TypeError, match="expressions"):
        HydroSystem(dim=1, v=((lambda p: p[0],),))
    with pytest.raises(TypeError, match="expressions"):
        HydroSystem(dim=2, v=((u1, 0.0), (const(0), u1)))


def _spec_example_transform():
    """System, currents and plan of the docs/workbench_spec.md example."""
    spec = cases.spec_example()
    n = spec["dimension"]
    s = HydroSystem(dim=n, v=[[parse_expr(e, n) for e in row] for row in spec["system"]])
    c1, c2 = (ConservedCurrent(parse_expr(c["rho"], n), parse_expr(c["sigma"], n))
              for c in spec["currents"])
    box = tuple(tuple(b) for b in spec["sample_plan"]["box"])
    return s, c1, c2, SamplePlan(dim=n, box=box, count=100, seed=5)


def test_non_diagonal_transform_matches_the_matrix_inverse():
    # S~ is not diagonal, and rho_1 != 0 puts v into the denominator; the spec
    # example's system is diagonal, so its transform is built entrywise
    s_tilde = (df.build_system_S_tilde(),
               ConservedCurrent(parse_expr("r1", 3), parse_expr("3 + r3", 3)),
               ConservedCurrent(parse_expr("exp(r3)", 3), parse_expr("r2", 3)),
               df.physical_plan(count=100))
    for (s, c1, c2, plan), diagonal in ((s_tilde, False), (_spec_example_transform(), True)):
        t = build_reciprocal_system(s, c1, c2, plan)
        assert t.diagonal == diagonal
        for i in range(plan.count):
            p = plan.point(i)
            v, eye = s.speeds(p), np.eye(3)
            sigma1, rho1, sigma2, rho2 = (eval_scalar(e, p) for e in (c1.sigma, c1.rho,
                                                                      c2.sigma, c2.rho))
            want = (rho2 * v + sigma2 * eye) @ np.linalg.inv(sigma1 * eye - rho1 * v)
            assert np.max(np.abs(t.speeds(p) - want)) <= 1e-12 * np.max(np.abs(want))


def test_diagonal_system_transforms_to_diagonal():
    s = df.build_system_S()
    c1, c2 = df.remark_currents()
    t = reciprocal_transform_system(s, c1, c2, PLAN3)
    assert t.diagonal
    from hydroham.exprs import Const

    assert isinstance(t.v[0][1], Const)
