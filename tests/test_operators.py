import json

import numpy as np
import pytest

from hydroham import driftflux as df
from hydroham.exprs import const, eval_jet, eval_scalar, variables
from hydroham.geometry import AffinorField, ConnectionField, MetricField
from hydroham.operators import (
    LocalOperator,
    NonlocalOperator,
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
    check_skew_adjoint,
    gauss_tail_sum,
    hamiltonian_flow,
    pencil_operator,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import default_plan

from conftest import LD, eval_longdouble


PLAN2 = df.plane_plan(count=60)
PLAN3 = df.drift_plan(count=60)
LAMBDAS = (-2.0, -1.0, 0.5, 1.0, 3.0)


def _dx_operator():
    # the simplest Hamiltonian operator: g = 1, b = 0 in one component
    g = MetricField(1, ((parse_expr("1", 1),),))
    b = ConnectionField(1, (((parse_expr("0", 1),),),))
    return LocalOperator(1, g, b)


# -- skew-adjointness ---------------------------------------------------------------


def test_dx_skew_adjoint():
    plan = default_plan(1, count=20, seed=1)
    assert check_skew_adjoint(_dx_operator(), plan).passed


def test_family_member_skew_adjoint():
    assert check_skew_adjoint(df.build_H1_Theta(const(1)), PLAN3).passed


def test_sign_mutation_breaks_skew():
    name, kind, op = df.mutation_catalog()[0]  # b entry (1,2) negated
    rep = check_skew_adjoint(op, PLAN2)
    assert not rep.passed
    failed = [c for c in rep.conditions if not c.passed]
    assert failed and failed[0].witness is not None
    assert failed[0].residual > 1e-3


# -- local Hamiltonian ------------------------------------------------------------


def test_classical_structures_pass_all_five():
    for k in (1, 2, 3):
        rep = check_local_hamiltonian(df.build_nutku(k), PLAN2)
        assert rep.passed, f"operator {k}: {[c.cid for c in rep.conditions if not c.passed]}"
        assert len(rep.conditions) == 5


def test_local_family_passes_for_various_theta():
    for theta in (const(1), df.R3, parse_expr("exp(r3)", 3)):
        assert check_local_hamiltonian(df.build_H1_Theta(theta), PLAN3).passed


def test_nonlocal_local_part_alone_fails_flatness():
    op = df.build_H2_hat(const(1)).local
    rep = check_local_hamiltonian(op, PLAN3)
    assert not rep.passed
    failed = {c.cid for c in rep.conditions if not c.passed}
    assert failed == {"metric_flat"}


def test_degenerate_family_member_fails_condition_two():
    rep = check_local_hamiltonian(df.build_H1_Theta(const(0)), PLAN3)
    cond = {c.cid: c for c in rep.conditions}
    assert not rep.passed
    assert not cond["metric_nondegenerate"].passed
    assert cond["metric_nondegenerate"].residual >= 1e-3
    assert cond["metric_nondegenerate"].note == "identically degenerate"
    assert cond["metric_flat"].residual is None  # not evaluated


# -- nonlocal (Ferapontov-type) checks ------------------------------------------------


def test_nonlocal_prolongations_pass():
    for build in (df.build_H2_hat, df.build_H3_hat):
        rep = check_ferapontov(build(), PLAN3)
        assert rep.passed, [c.cid for c in rep.conditions if not c.passed]
        assert len(rep.conditions) == 8


def test_empty_tails_reduce_to_local_check():
    op = df.build_H1_Theta(const(1))
    nonlocal_rep = check_ferapontov(NonlocalOperator(op, ()), PLAN3)
    local_rep = check_local_hamiltonian(op, PLAN3)
    assert nonlocal_rep.passed
    local = {c.cid: c for c in local_rep.conditions}
    for c in nonlocal_rep.conditions:
        if c.cid in local:
            assert c.residual == local[c.cid].residual
            assert c.passed == local[c.cid].passed
    # with no tails the Gauss right side is zero, so t3 is exactly flatness
    t3 = next(c for c in nonlocal_rep.conditions if c.cid == "t3_gauss")
    assert t3.passed


def test_zeroed_constants_fail_gauss():
    _, _, op = next(m for m in df.mutation_catalog() if m[0].startswith("h2-hat b3"))
    rep = check_ferapontov(op, PLAN3)
    cond = {c.cid: c for c in rep.conditions}
    assert not cond["t3_gauss"].passed
    assert cond["t3_gauss"].residual > 1e-3


def test_gauss_tail_sum_antisymmetry(rng):
    # structural antisymmetry under k<->l and i<->j, independent of pass/fail
    texts = [["u1", "u2*u3", "1"], ["exp(u1-u2)", "2", "u3"], ["u2", "0", "u1*u1"]]
    w = AffinorField(3, -1, tuple(tuple(parse_expr(t, 3) for t in row) for row in texts))
    tails = (w,) + df.build_H2_hat().tails[:2]
    for _ in range(20):
        p = rng.uniform(0.1, 0.9, size=3)
        from hydroham.geometry import eval_matrix

        vals = [eval_matrix(t.entries, p) for t in tails]
        s = gauss_tail_sum(tails, vals)
        scale = max(1.0, np.max(np.abs(s)))
        assert np.max(np.abs(s + np.einsum("ijlk->ijkl", s))) / scale <= 1e-10
        assert np.max(np.abs(s + np.einsum("jikl->ijkl", s))) / scale <= 1e-10


def test_report_determinism():
    a = json.dumps(check_ferapontov(df.build_H2_hat(), PLAN3).to_dict())
    b = json.dumps(check_ferapontov(df.build_H2_hat(), PLAN3).to_dict())
    assert a == b


# -- pencils -----------------------------------------------------------------------


def test_classical_pairs_are_compatible():
    pairs = ((1, 2), (1, 3), (2, 3))
    for i, j in pairs:
        rep = check_pencil_compatibility(df.build_nutku(i), df.build_nutku(j), LAMBDAS, PLAN2)
        assert rep.passed, (i, j, [c.cid for c in rep.conditions if not c.passed])


def test_family_pair_compatible():
    rep = check_pencil_compatibility(
        df.build_H1_Theta(const(1)), df.build_H1_Theta(df.R3), LAMBDAS, PLAN3
    )
    assert rep.passed
    assert any("identically degenerate" in n for n in rep.notes)


def test_lambda_zero_reduces_to_plain_check():
    a = df.build_nutku(1)
    pencil = check_pencil_compatibility(a, df.build_nutku(2), [0.0], PLAN2)
    plain = check_local_hamiltonian(a, PLAN2)
    assert [c.residual for c in pencil.conditions] == [c.residual for c in plain.conditions]


def test_identically_degenerate_lambda_is_skipped_with_note():
    rep = check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2), [1.0], PLAN2)
    assert rep.passed
    assert rep.conditions[0].note == "skipped"
    assert "identically degenerate" in rep.notes[0]


def test_incompatible_mutant_pencil_fails():
    _, _, bad = df.mutation_catalog()[0]
    rep = check_pencil_compatibility(df.build_nutku(2), bad, [1.0, 2.0], PLAN2)
    assert not rep.passed


def test_pencil_operator_builds_sum():
    op = pencil_operator(df.build_nutku(1), df.build_nutku(2), 0.5)
    p = (0.2, -0.1)
    g1 = eval_scalar(df.build_nutku(1).g.entries[0][0], p)
    g2 = eval_scalar(df.build_nutku(2).g.entries[0][0], p)
    assert eval_scalar(op.g.entries[0][0], p) == pytest.approx(g1 + 0.5 * g2)


# -- flows -------------------------------------------------------------------------


def test_flow_of_quadratic_density_is_translation():
    u1, = variables(1)
    system = hamiltonian_flow(_dx_operator(), u1 * u1 / 2, default_plan(1, count=5))
    assert eval_scalar(system.v[0][0], (0.37,)) == pytest.approx(1.0)


def test_flow_constant_hessian():
    g = MetricField(2, tuple(tuple(parse_expr(t, 2) for t in row) for row in (("1", "0"), ("0", "1"))))
    zero = parse_expr("0", 2)
    b = ConnectionField(2, tuple(tuple((zero, zero) for _ in range(2)) for _ in range(2)))
    u1, u2 = variables(2)
    system = hamiltonian_flow(LocalOperator(2, g, b), u1 * u2)
    v = system.speeds((0.3, 0.4))
    assert np.allclose(v, [[0.0, 1.0], [1.0, 0.0]])


def test_flow_matches_the_jet_formula():
    # the Deriv entries against one order-2 jet of the density per point
    from hydroham.geometry import eval_matrix, eval_tensor3

    plan = df.drift_plan(count=30, seed=3)
    op = df.build_H1_Theta(parse_expr("1 + r3^2", 3))
    h = parse_expr("exp(r1-r2)*(r1+r2) + r3^2*r1 + sin(r2*r3)", 3)
    system = hamiltonian_flow(op, h, plan)
    for i in range(plan.count):
        p = plan.point(i)
        jet = eval_jet(h, p, 2)
        want = (eval_matrix(op.g.entries, p) @ jet.hessian()
                + np.einsum("ijk,j->ik", eval_tensor3(op.b.entries, p), jet.gradient()))
        assert np.max(np.abs(system.speeds(p) - want)) <= 1e-12 * np.max(np.abs(want))


def _fd_grad_hess(expr, p, h=LD(1e-5)):
    n = len(p)
    pp = np.array([LD(x) for x in p])

    def f(q):
        return eval_longdouble(expr, q)

    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        grad[i] = float((f(pp + h * ei) - f(pp - h * ei)) / (2 * h))
        hess[i, i] = float((f(pp + h * ei) - 2 * f(pp) + f(pp - h * ei)) / h ** 2)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            hess[i, j] = hess[j, i] = float(
                (f(pp + h * ei + h * ej) - f(pp + h * ei - h * ej)
                 - f(pp - h * ei + h * ej) + f(pp - h * ei - h * ej)) / (4 * h * h)
            )
    return grad, hess


def test_flow_against_finite_difference_hessian(rng):
    # v^i_k = g^{ij} H_{jk} + b^{ij}_k H_j with the Hessian from extended
    # precision central differences; the first density is a Casimir of this
    # operator (zero flow), the second is generic
    from hydroham.geometry import eval_matrix, eval_tensor3

    op = df.build_nutku(1)
    for text in ("exp(r1-r2)", "exp(r1-r2)*(r1+r2) + r1^2"):
        h_expr = parse_expr(text, 2)
        system = hamiltonian_flow(op, h_expr, df.plane_plan(count=5))
        for _ in range(10):
            p = rng.uniform(-0.6, 0.6, size=2)
            grad, hess = _fd_grad_hess(h_expr, p)
            g_vals = eval_matrix(op.g.entries, p)
            b_vals = eval_tensor3(op.b.entries, p)
            expected = g_vals @ hess + np.einsum("ijk,j->ik", b_vals, grad)
            assert np.allclose(system.speeds(p), expected, rtol=1e-7, atol=1e-8)
