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
)
from hydroham.parsing import parse_expr
from hydroham.sampling import default_plan

import oracle
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


@pytest.mark.parametrize("power,seed,note", [
    (16, 0, "degenerate at 32% of attempted points"),
    (16, 1, "degenerate at 29% of attempted points"),
    (16, 2, "degenerate at 32% of attempted points"),
    (8, 1, None),
])
def test_a_metric_degenerate_at_many_draws_fails_by_their_fraction(power, seed, note):
    # det g = u1^power is below the floor at |u1| < 1e-8^(1/power): 0.32 at
    # power 16, about 30% of the box's draws; 0.1 at power 8, about 10%
    g = MetricField(2, ((const(1), const(1)), (const(1), parse_expr(f"1 + u1^{power}", 2))))
    b = ConnectionField(2, ((((const(0),) * 2,) * 2,) * 2))
    rep = check_local_hamiltonian(LocalOperator(2, g, b), default_plan(2, seed=seed))
    cond = {c.cid: c for c in rep.conditions}["metric_nondegenerate"]
    assert cond.passed == (note is None)
    assert cond.note == note
    if note is not None:
        assert abs(cond.witness[0]) < 0.32


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


def _constant_curvature(n: int, signs) -> NonlocalOperator:
    # g = delta - u u^T, b^{ij}_k = -delta^i_k u^j: a metric of constant
    # curvature, whose Gauss equation the tail w = Id with eps = +1 balances
    u, eye = variables(n), [[const(int(i == j)) for j in range(n)] for i in range(n)]
    g = MetricField(n, [[eye[i][j] - u[i] * u[j] for j in range(n)] for i in range(n)])
    b = ConnectionField(n, [[[-u[j] if i == k else const(0) for k in range(n)] for j in range(n)]
                            for i in range(n)])
    return NonlocalOperator(LocalOperator(n, g, b), [AffinorField(n, s, eye) for s in signs])


@pytest.mark.parametrize("n", [4, 5])
def test_constant_curvature_passes_past_three_components(monkeypatch, n):
    # a non-diagonal metric with n > 3, whose nondegeneracy is read from
    # np.linalg.det; with the tail's sign flipped, or with no tail, only the
    # Gauss equation fails, at a residual of order 1
    dets = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(m.shape) or det(m))
    h = 0.9 / np.sqrt(n)
    plan = default_plan(n, [(-h, h)] * n, count=100, seed=1)
    rep = check_ferapontov(_constant_curvature(n, [1]), plan)
    assert rep.passed, [c.cid for c in rep.conditions if not c.passed]
    assert max(c.residual for c in rep.conditions) < 1e-14
    assert dets and all(shape[-2:] == (n, n) for shape in dets)
    for signs in ([-1], []):
        rep = check_ferapontov(_constant_curvature(n, signs), plan)
        failed = [c for c in rep.conditions if not c.passed]
        assert [c.cid for c in failed] == ["t3_gauss"] and failed[0].residual > 0.5


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
        from hydroham.geometry import Patterned, eval_matrix

        vals = Patterned.dense(np.stack([eval_matrix(t.entries, p) for t in tails])[..., None])
        s = gauss_tail_sum(tails, vals)[..., 0]
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


@pytest.mark.parametrize("lambdas", [[], (), iter(())])
def test_pencil_without_a_lambda_is_rejected(lambdas):
    # no lambda checks no condition: not a vacuous PASS
    with pytest.raises(ValueError, match="at least one lambda"):
        check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2), lambdas, PLAN2)


def test_incompatible_mutant_pencil_fails():
    _, _, bad = df.mutation_catalog()[0]
    rep = check_pencil_compatibility(df.build_nutku(2), bad, [1.0, 2.0], PLAN2)
    assert not rep.passed


def test_pencil_operator_builds_sum():
    op = oracle.pencil_operator(df.build_nutku(1), df.build_nutku(2), 0.5)
    p = (0.2, -0.1)
    g1 = eval_scalar(df.build_nutku(1).g.entries[0][0], p)
    g2 = eval_scalar(df.build_nutku(2).g.entries[0][0], p)
    assert eval_scalar(op.g.entries[0][0], p) == pytest.approx(g1 + 0.5 * g2)


# -- flows -------------------------------------------------------------------------


def test_flow_of_quadratic_density_is_translation():
    u1, = variables(1)
    system = hamiltonian_flow(_dx_operator(), u1 * u1 / 2)
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
    from hydroham.geometry import eval_matrix

    plan = df.drift_plan(count=30, seed=3)
    op = df.build_H1_Theta(parse_expr("1 + r3^2", 3))
    h = parse_expr("exp(r1-r2)*(r1+r2) + r3^2*r1 + sin(r2*r3)", 3)
    system = hamiltonian_flow(op, h)
    for i in range(plan.count):
        p = plan.point(i)
        jet = eval_jet(h, p, 2)
        want = (eval_matrix(op.g.entries, p) @ jet.hessian()
                + np.einsum("ijk,j->ik", eval_matrix(op.b.entries, p), jet.gradient()))
        assert np.max(np.abs(system.speeds(p) - want)) <= 1e-12 * np.max(np.abs(want))


def test_flow_evaluates_each_density_jet_once():
    # the speed tape of a 3-component flow computes H's order-2 jet once for
    # all nine second derivatives and its order-1 jet once for the gradient;
    # each entry is the jet formula on H's jets bit for bit, and the oracle's
    # recursive evaluation to roundoff
    from hydroham.exprs import eval_tape
    from hydroham.geometry import eval_matrix

    op = df.build_H1_Theta(parse_expr("1 + r3^2", 3))
    h = parse_expr("r1*r2*r3 + exp(r3)*r1^2", 3)
    system = hamiltonian_flow(op, h)
    tape = system._speed_grid
    assert sorted(order for *_, node, order in tape.code if node == h) == [1, 2]
    plan = df.drift_plan(count=30, seed=3)
    points = np.array([plan.point(i) for i in range(plan.count)])
    speeds = eval_tape(system._speed_grid, points).vals
    for lane, p in enumerate(points):
        grad, hess = eval_jet(h, p, 1).gradient(), eval_jet(h, p, 2).hessian()
        g, b = eval_matrix(op.g.entries, p), eval_matrix(op.b.entries, p)
        for i in range(3):
            for k in range(3):
                terms = [g[i, j] * hess[j, k] + b[i, j, k] * grad[j] for j in range(3)]
                assert sum(terms[1:], terms[0]).tobytes() == speeds[i, k, lane].tobytes()
        want = np.array([[oracle.eval_scalar(e, p) for e in row] for row in system.v])
        assert np.max(np.abs(speeds[..., lane] - want)) <= 1e-12 * np.max(np.abs(want))


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
    from hydroham.geometry import eval_matrix

    op = df.build_nutku(1)
    for text in ("exp(r1-r2)", "exp(r1-r2)*(r1+r2) + r1^2"):
        h_expr = parse_expr(text, 2)
        system = hamiltonian_flow(op, h_expr)
        for _ in range(10):
            p = rng.uniform(-0.6, 0.6, size=2)
            grad, hess = _fd_grad_hess(h_expr, p)
            g_vals = eval_matrix(op.g.entries, p)
            b_vals = eval_matrix(op.b.entries, p)
            expected = g_vals @ hess + np.einsum("ijk,j->ik", b_vals, grad)
            assert np.allclose(system.speeds(p), expected, rtol=1e-7, atol=1e-8)
