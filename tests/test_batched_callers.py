"""The per-point callers on batched tapes (currents, conjugacy, the reciprocal
denominator scan, wave and constraint residuals, field comparisons, and the
frame checks where b or a tail leaves its domain) against per-point reference
loops built on eval_jet/eval_scalar: the same draws, the same verdicts and
residuals up to roundoff, and the same errors at the same first failing
point."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from conftest import SMOOTH_CORPUS, random_smooth_expr
from hydroham import cli, systems
from hydroham import driftflux as df
from hydroham.errors import (
    DegenerateMetricError,
    EvalDomainError,
    HostileDomainError,
    VanishingDenominatorError,
)
from hydroham.exprs import (
    compile_tape,
    eval_jet,
    eval_scalar,
    eval_tape,
    exp,
    fields_equal_numeric,
    variables,
)
from hydroham.geometry import AffinorField, ConnectionField, MetricField, metric_frame, scaled_abs_det
from hydroham.operators import (
    LocalOperator,
    NonlocalOperator,
    check_ferapontov,
    check_local_hamiltonian,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import RESAMPLE_BUDGET, SamplePlan, default_plan, resolve
from hydroham.systems import (
    ConservedCurrent,
    HydroSystem,
    PointChangeMap,
    build_reciprocal_system,
    check_change_of_variables,
    check_conserved_current,
    reciprocal_transform_system,
)

RESIDUAL_REL = 1e-9


class CountingPlan(SamplePlan):
    """A plan that records every (i, retry) it draws."""

    def point(self, i, retry=0):
        self.__dict__.setdefault("drawn", []).append((i, retry))
        return super().point(i, retry)


def counting(plan: SamplePlan) -> CountingPlan:
    return CountingPlan(plan.dim, plan.box, plan.count, plan.seed, plan.tolerance, plan.floor)


def redraw_loop(plan, evaluate, hostile, retriable=(EvalDomainError,)):
    """The per-point redraw loop that resolve batches: [(point, result)] in plan order."""
    out = []
    for i in range(plan.count):
        for r in range(RESAMPLE_BUDGET + 1):
            p = plan.point(i, r)
            try:
                result = evaluate(p)
            except retriable:
                continue
            if result is not None:
                out.append((p, result))
                break
        else:
            raise HostileDomainError(hostile.format(i))
    return out


def worst(samples):
    """(normalized residual, witness) of [(point, (raw, scale))], as
    condition_from_arrays reports them."""
    norms = [abs(raw) / max(1.0, scale) for _, (raw, scale) in samples]
    k = int(np.argmax(norms))
    return norms[k], (None if norms[k] == 0.0 else tuple(float(x) for x in samples[k][0]))


def assert_same_condition(cond, want, draws_got, draws_want):
    assert draws_got == draws_want
    residual, witness = want
    assert cond.residual == pytest.approx(residual, rel=RESIDUAL_REL, abs=1e-15)
    if residual == 0.0 or residual >= 1e-10:
        assert cond.witness == witness


# -- SamplePlan.point ------------------------------------------------------------------


@pytest.mark.parametrize("seed,dim", [(0, 1), (7, 2), (8128, 3), (12345, 5)])
def test_plan_point_is_the_seeded_formula(seed, dim):
    box = tuple((-0.5 - k, 0.25 + 2 * k) for k in range(dim))
    plan = SamplePlan(dim, box, count=20, seed=seed)
    lo, hi = np.array([b[0] for b in box]), np.array([b[1] for b in box])
    for i in range(20):
        for retry in (0, 1, RESAMPLE_BUDGET):
            want = lo + (hi - lo) * np.random.default_rng((seed, i, retry)).random(dim)
            assert np.array_equal(plan.point(i, retry), want)


def test_plan_arrays_stay_out_of_equality_and_echo():
    a, b = default_plan(2, seed=3), default_plan(2, seed=3)
    assert a == b and hash(a) == hash(b)
    assert set(a.echo()) == {"dim", "box", "count", "seed", "tolerance", "floor"}


# -- resolve ---------------------------------------------------------------------------------


def test_resolve_records_every_draw_and_applies_the_exhaustion_rule():
    base = SamplePlan(1, ((0.0, 1.0),), count=60, seed=2)
    budget = range(RESAMPLE_BUDGET + 1)
    pair_of = {float(base.point(i, r)[0]): (i, r) for i in range(base.count) for r in budget}
    # point 7 is always rejected for a cause other than the domain, point 40
    # leaves the domain until retry 3, point 52 alternates the two causes
    cause = {7: lambda r: 2, 40: lambda r: 1 if r < 3 else 0, 52: lambda r: 1 + r % 2}

    def evaluate(points):
        pairs = [pair_of[float(p[0])] for p in points]
        return np.array([cause.get(i, lambda r: 0)(r) for i, r in pairs]), (points[:, 0] * 2.0,)

    plan = counting(base)
    found = resolve(plan, evaluate, "hostile at {}")
    want = sorted([(i, 0) for i in range(60) if i not in cause]
                  + [(7, r) for r in budget] + [(40, r) for r in range(4)] + [(52, r) for r in budget])
    assert sorted(plan.drawn) == want
    assert [pair_of[float(p[0])] for p in found.draws] == want
    assert [pair_of[float(p[0])] for p in found.points] == \
        [(i, 3 if i == 40 else 0) for i in range(60) if i not in (7, 52)]
    assert np.array_equal(found.payload[0], found.points[:, 0] * 2.0)
    assert np.array_equal(found.rows[0], found.draws[:, 0] * 2.0)
    assert list(found.unresolved) == [7, 52]
    assert np.count_nonzero(found.status == 2) == len(budget) + len(budget) // 2

    cause[30] = cause[45] = lambda r: 1  # every draw of these points leaves the domain
    with pytest.raises(HostileDomainError, match="^hostile at 30$"):
        resolve(plan, evaluate, "hostile at {}")


def test_conjugacy_raises_for_a_point_it_cannot_resolve():
    u1, u2 = variables(2)
    s = HydroSystem(2, ((u1, u2), (u2, u1)))
    singular = PointChangeMap((u1 + u2, u1 + u2))  # Jacobian singular everywhere
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 0$"):
        check_change_of_variables(s, s, singular, default_plan(2, count=10))


# -- one-lane views ----------------------------------------------------------------------


def test_speeds_apply_and_jacobian_match_recursive_evaluation():
    m = df.riemann_map()
    plan = df.physical_plan(count=30, seed=4)
    for s in (df.build_system_S(), df.build_system_S_tilde()):
        for i in range(plan.count):
            p = plan.point(i)
            want = np.array([[eval_scalar(e, p) for e in row] for row in s.v])
            assert np.allclose(s.speeds(p), want, rtol=1e-14, atol=0)
    for i in range(plan.count):
        p = plan.point(i)
        assert np.allclose(m.apply(p), [eval_scalar(e, p) for e in m.forward], rtol=1e-14)
        jac = np.array([eval_jet(e, p, 1).gradient() for e in m.forward])
        assert np.allclose(m.jacobian(p), jac, rtol=1e-14, atol=1e-300)


def test_one_lane_views_raise_the_recursive_error():
    u1, u2 = variables(2)
    s = HydroSystem(2, ((u1, parse_expr("sqrt(u2)", 2)), (parse_expr("ln(u1)", 2), u2)))
    p = (-0.5, -0.25)  # both entries fail; the first in row-major order is named
    with pytest.raises(EvalDomainError) as got:
        s.speeds(p)
    with pytest.raises(EvalDomainError) as want:
        eval_scalar(s.v[0][1], p)
    assert str(got.value) == str(want.value)
    m = PointChangeMap((parse_expr("ln(u1)", 2), parse_expr("sqrt(u1*u2)", 2)))
    for view, reference in ((m.apply, eval_scalar), (m.jacobian, lambda e, q: eval_jet(e, q, 1))):
        with pytest.raises(EvalDomainError) as got:
            view(p)
        with pytest.raises(EvalDomainError) as want:
            reference(m.forward[0], p)
        assert str(got.value) == str(want.value)


def test_failed_output_names_the_first_failing_expression():
    rng = np.random.default_rng(11)
    corpus = [parse_expr(t, n) for t, n, _ in SMOOTH_CORPUS if n == 2]
    corpus += [parse_expr(t, 2) for t in ("ln(u1)", "sqrt(u2)", "1/(u1-u2)", "ln(u1)*sqrt(u2)")]
    corpus += [random_smooth_expr(rng, 2, 4) for _ in range(10)]
    for _ in range(20):
        exprs = [corpus[k] for k in rng.choice(len(corpus), size=4)]
        points = rng.uniform(-2.0, 2.0, size=(15, 2))
        for order in (0, 1):
            values = eval_tape(compile_tape(exprs, 2, order), points)
            for lane, p in enumerate(points):
                first = len(exprs)
                for k, e in enumerate(exprs):
                    try:
                        eval_jet(e, p, order) if order else eval_scalar(e, p)
                    except EvalDomainError:
                        first = k
                        break
                assert values.failed_output()[lane] == first, ([str(e) for e in exprs], p)


# -- metric frames with b and tails ----------------------------------------------------------


def _flat_plane(b000):
    """g = identity on the plane, b zero but for b^{11}_1 = b000."""
    zero, one = parse_expr("0", 2), parse_expr("1", 2)
    g = MetricField(2, ((one, zero), (zero, one)))
    b = ConnectionField(2, tuple(tuple(tuple(b000 if i == j == k == 0 else zero for k in range(2))
                                             for j in range(2)) for i in range(2)))
    return LocalOperator(2, g, b)


def _frame_reference(op, plan, sample, tails=()):
    """The per-point loop of a frame check: redraw where g, b or a tail
    leaves its domain or g is degenerate, then ``sample(p)``."""
    def evaluate(p):
        metric_frame(op.g, p, curvature=True)
        for e in np.array(op.b.entries, dtype=object).ravel():
            eval_scalar(e, p)
        for w in tails:
            for e in np.array(w.entries, dtype=object).ravel():
                eval_scalar(e, p)
                eval_jet(e, p, 1)
        return sample(p)

    return redraw_loop(plan, evaluate, "", (EvalDomainError, DegenerateMetricError))


def test_local_check_redraws_where_b_leaves_its_domain():
    # Gamma^1_{11} = -ln(u1 + 0.5): nabla_1 g_{11} = 2 ln(u1 + 0.5) against scale |ln(u1 + 0.5)|
    b000 = parse_expr("ln(u1 + 0.5)", 2)
    op = _flat_plane(b000)
    plan = counting(SamplePlan(2, HOSTILE_BOX, count=60, seed=4))
    rep = check_local_hamiltonian(op, plan)
    reference = counting(plan)

    def sample(p):
        log = eval_scalar(b000, p)
        return 2.0 * abs(log), abs(log)

    want = worst(_frame_reference(op, reference, sample))
    got = {c.cid: c for c in rep.conditions}
    assert_same_condition(got["metric_compatible"], want, sorted(plan.drawn),
                          sorted(reference.drawn))
    assert any(r > 0 for _, r in plan.drawn)
    assert [c.cid for c in rep.conditions if not c.passed] == ["metric_compatible"]


def test_nonlocal_check_redraws_where_a_tail_leaves_its_domain():
    # w^1_1 = sqrt(u2 + 0.3): the Codazzi residual is d_2 w^1_1 = 1 / (2 sqrt(u2 + 0.3))
    root = parse_expr("sqrt(u2 + 0.3)", 2)
    zero = parse_expr("0", 2)
    tails = (AffinorField(2, 1, ((root, zero), (zero, zero))),)
    op = NonlocalOperator(_flat_plane(zero), tails)
    plan = counting(SamplePlan(2, HOSTILE_BOX, count=60, seed=4))
    rep = check_ferapontov(op, plan)
    reference = counting(plan)

    def sample(p):
        slope = eval_jet(root, p, 1).gradient()[1]
        return abs(slope), abs(slope)

    want = worst(_frame_reference(op.local, reference, sample, tails))
    got = {c.cid: c for c in rep.conditions}
    assert_same_condition(got["t2_codazzi"], want, sorted(plan.drawn), sorted(reference.drawn))
    assert any(r > 0 for _, r in plan.drawn)
    assert [c.cid for c in rep.conditions if not c.passed] == ["t2_codazzi"]


# -- conserved currents, conjugacy and the reciprocal transform ------------------------------


HOSTILE_BOX = ((-1.0, 1.0), (-1.0, 1.0))


def _current_reference(s, c, plan):
    def evaluate(p):
        grad_rho = eval_jet(c.rho, p, 1).gradient()
        grad_sigma = eval_jet(c.sigma, p, 1).gradient()
        transport = grad_rho @ s.speeds(p)
        return (np.max(np.abs(transport + grad_sigma)),
                max(np.max(np.abs(transport)), np.max(np.abs(grad_sigma))))

    return redraw_loop(plan, evaluate, "domain too hostile at sample point {}")


def _recursive_speeds(s):
    return lambda p: np.array([[eval_scalar(e, p) for e in row] for row in s.v])


@pytest.mark.parametrize("seed", [1, 5])
def test_current_check_redraws_like_the_per_point_loop(seed):
    u1, u2 = variables(2)
    s = HydroSystem(2, ((parse_expr("sqrt(u2 + 0.5)", 2), u1), (u2, parse_expr("-u1", 2))))
    c = ConservedCurrent(parse_expr("ln(u1 + 0.5) + u2", 2), u1 * u2)
    plan = counting(SamplePlan(2, HOSTILE_BOX, count=60, seed=seed))
    rep = check_conserved_current(s, c, plan)
    reference = counting(plan)
    want = worst(_current_reference(s, c, reference))
    assert sum(r > 0 for _, r in plan.drawn) > 20  # the domain forces redraws
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn), sorted(reference.drawn))
    assert not rep.passed


def test_current_check_on_transformed_speeds():
    s, (c1, c2) = df.build_system_S(), df.remark_currents()
    t = build_reciprocal_system(s, c1, c2, df.drift_plan(count=30))
    c = ConservedCurrent(df.R3, parse_expr("0", 3))
    plan = df.drift_plan(count=40, seed=2)
    rep = check_conserved_current(t, c, plan)
    speeds = _recursive_speeds(t)

    def evaluate(p):
        transport = eval_jet(c.rho, p, 1).gradient() @ speeds(p)
        return np.max(np.abs(transport)), np.max(np.abs(transport))

    want = worst(redraw_loop(plan, evaluate, ""))
    assert rep.conditions[0].residual == pytest.approx(want[0], rel=RESIDUAL_REL)
    assert rep.conditions[0].witness == want[1]


def test_current_check_hostile_point_is_the_first_in_plan_order():
    (u1,) = variables(1)
    s = HydroSystem(1, ((u1,),))
    c = ConservedCurrent(parse_expr("ln(u1 - 0.999)", 1), u1)
    plan = SamplePlan(1, ((-1.0, 1.0),), count=40, seed=3)
    with pytest.raises(HostileDomainError) as got:
        check_conserved_current(s, c, plan)
    with pytest.raises(HostileDomainError) as want:
        _current_reference(s, c, plan)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("floor", [1e-12, 0.3])
def test_conjugacy_redraws_like_the_per_point_loop(floor):
    m = df.riemann_map()
    plan = counting(SamplePlan(3, ((-1.0, 1.0), (0.1, 1.0), (-0.7, 0.7)), count=50, seed=9,
                               floor=floor))
    s_old, s_new = df.build_system_S_tilde(), df.build_system_S()
    rep = check_change_of_variables(s_old, s_new, m, plan)
    reference = counting(plan)
    singular = []

    def evaluate(p):
        jac = np.array([eval_jet(e, p, 1).gradient() for e in m.forward])
        if scaled_abs_det(jac) < floor:
            singular.append(p)
            return None
        lhs = jac @ _recursive_speeds(s_old)(p)
        rhs = _recursive_speeds(s_new)(np.array([eval_scalar(e, p) for e in m.forward])) @ jac
        return np.max(np.abs(lhs - rhs)), max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))

    want = worst(redraw_loop(reference, evaluate, ""))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn), sorted(reference.drawn))
    assert any(r > 0 for _, r in plan.drawn)  # ln(rho1 + rho2) leaves its domain
    assert bool(singular) == (floor == 0.3)
    assert rep.notes == (["singular Jacobian encountered; point redrawn"] if singular else [])


def _denominator_reference(s, c1, plan):
    """The per-point scan: redraw where a field leaves its domain, raise at
    the first resolved point where the denominator is bad."""
    n, sign_seen = s.dim, 0

    def evaluate(p):
        nonlocal sign_seen
        d = eval_scalar(c1.sigma, p) * np.eye(n) - eval_scalar(c1.rho, p) * s.speeds(p)
        if scaled_abs_det(d) < 1e-6:
            raise VanishingDenominatorError(f"denominator field vanishes near {tuple(p)}")
        sign = 1 if np.linalg.det(d) > 0 else -1
        if sign_seen == 0:
            sign_seen = sign
        elif sign != sign_seen:
            raise VanishingDenominatorError(
                f"denominator field vanishes inside the box (sign change near {tuple(p)})")
        return sign

    return redraw_loop(plan, evaluate, "domain too hostile at sample point {}")


DENOMINATOR_BOX = ((-0.7, 0.7), (-0.7, 0.7), (0.1, 1.0))


@pytest.mark.parametrize("rho,sigma", [("1", "0"), ("0", "u1"), ("ln(u1)", "1"), ("1", "u3 - 0.55")])
def test_denominator_scan_raises_at_the_first_bad_point(rho, sigma):
    s = df.build_system_S()
    c1 = ConservedCurrent(parse_expr(rho, 3), parse_expr(sigma, 3))
    c2 = ConservedCurrent(parse_expr("0", 3), parse_expr("1", 3))
    plan = SamplePlan(3, DENOMINATOR_BOX, count=80, seed=6)
    with pytest.raises(VanishingDenominatorError) as want:
        _denominator_reference(s, c1, plan)
    with pytest.raises(VanishingDenominatorError) as got:
        build_reciprocal_system(s, c1, c2, plan)
    assert str(got.value) == str(want.value)


def test_denominator_scan_redraws_like_the_per_point_loop():
    s = df.build_system_S()
    c1 = ConservedCurrent(parse_expr("0 * ln(u1)", 3), parse_expr("1", 3))
    c2 = ConservedCurrent(parse_expr("0", 3), parse_expr("1", 3))
    plan = counting(SamplePlan(3, DENOMINATOR_BOX, count=60, seed=6))
    build_reciprocal_system(s, c1, c2, plan)
    reference = counting(plan)
    _denominator_reference(s, c1, reference)
    assert sorted(plan.drawn) == sorted(reference.drawn)
    assert any(r > 0 for _, r in plan.drawn)  # ln(u1) leaves its domain where u1 <= 0


def test_builder_equals_the_checked_transform():
    s = df.build_system_S_tilde()
    c1 = ConservedCurrent(parse_expr("0", 3), parse_expr("2", 3))
    c2 = ConservedCurrent(parse_expr("1", 3), parse_expr("0", 3))
    plan = df.physical_plan(count=30)
    checked = reciprocal_transform_system(s, c1, c2, plan)
    built = build_reciprocal_system(s, c1, c2, plan)
    for i in range(10):
        p = plan.point(i)
        assert np.array_equal(checked.speeds(p), built.speeds(p))
        assert np.allclose(built.speeds(p), s.speeds(p) / 2.0, rtol=1e-13, atol=1e-15)


def test_reciprocal_command_checks_currents_once_and_skips_the_builder(tmp_path, capsys,
                                                                     monkeypatch):
    spec = {"dimension": 3,
            "system": [["-(r1+r2+1)", "0", "0"], ["0", "-(r1+r2-1)", "0"], ["0", "0", "-(r1+r2)"]],
            "currents": [{"rho": "0", "sigma": "1"},
                         {"rho": "exp(r1-r2)", "sigma": "(r1+r2)*exp(r1-r2) + r1"}],
            "sample_plan": {"count": 30, "seed": 5,
                            "box": [[-0.7, 0.7], [-0.7, 0.7], [0.1, 1.0]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("transform built for a non-conserved current")

    monkeypatch.setattr(cli, "build_reciprocal_system", refuse)
    assert cli.main(["reciprocal", str(path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "transformed_speeds" not in doc
    assert [c["passed"] for c in doc["checks"]] == [True, False]
    # the builder behind a passing check does not check the currents again
    monkeypatch.setattr(systems, "check_conserved_current",
                        lambda *a: pytest.fail("a current was checked twice"))
    monkeypatch.setattr(cli, "build_reciprocal_system", build_reciprocal_system)
    spec["currents"][1]["sigma"] = "(r1+r2)*exp(r1-r2)"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli.main(["reciprocal", str(path), "--json"]) == 0


# -- wave and constraint residuals -------------------------------------------------------------


def _wave_sample(psi, p):
    jet = eval_jet(psi, p[:2], 2)
    mixed = 2.0 * jet.derivative((1, 1))
    d1, d2 = jet.derivative((1, 0)), jet.derivative((0, 1))
    return mixed + d1 - d2, max(abs(mixed), abs(d1), abs(d2))


def test_wave_residual_redraws_like_the_per_point_loop():
    psi = parse_expr("ln(r1 + 0.5) + r1 * r2", 2)
    plan = counting(df.plane_plan(count=60, seed=3))
    rep = df.kg_residual(psi, plan)
    reference = counting(plan)
    want = worst(redraw_loop(reference, lambda p: _wave_sample(psi, p), ""))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn), sorted(reference.drawn))
    assert any(r > 0 for _, r in plan.drawn)  # ln(r1 + 0.5) leaves its domain


def test_wave_residual_matches_the_per_point_jets():
    plan = df.drift_plan(count=50, seed=4)
    for psi in (df.kg_family_v(2), df.kg_family_u_half_r1(1), parse_expr("r1*r2^2", 2)):
        rep = df.kg_residual(psi, plan)
        samples = [(plan.point(i), _wave_sample(psi, plan.point(i))) for i in range(plan.count)]
        assert_same_condition(rep.conditions[0], worst(samples), 0, 0)


def test_constraint_residuals_redraw_like_the_per_point_loop():
    # Phi^1 = ln(r3) and Phi^2 = sqrt(r3 - 0.2) leave their domains on part
    # of the box, and Omega = ln(r3 - 0.4) on a further part
    base = df.default_ansatz()
    ans = df.ProlongationAnsatz(base.eps, base.psi,
                                (parse_expr("ln(r3)", 3), parse_expr("sqrt(r3 - 0.2)", 3), df.R3))
    omega = parse_expr("ln(r3 - 0.4)", 3)
    plan = counting(SamplePlan(3, ((-0.7, 0.7), (-0.7, 0.7), (-0.5, 1.0)), count=40, seed=2))
    rep = df.constraint_residuals(ans, "eq5", plan, omega=omega)
    reference = counting(plan)

    def evaluate(p):
        total, scale = 0.0, abs(float(np.exp(p[0] - p[1])))
        for a in range(3):
            psi = eval_jet(ans.psi[a], p, 1).value
            term = ans.eps[a] * (eval_scalar(ans.phi[a], p) + psi / 2.0) * psi
            total += term
            scale = max(scale, abs(term))
        return total - eval_scalar(omega, p) + float(np.exp(p[0] - p[1])), scale

    want = worst(redraw_loop(reference, evaluate, ""))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn), sorted(reference.drawn))
    assert any(r > 0 for _, r in plan.drawn)


def test_constraint_residuals_match_the_per_point_loop():
    ans = df.default_ansatz()
    plan = df.drift_plan(count=40, seed=3)
    for which, kw in (("eq4a", {}), ("eq4c", {}), ("eq5", {"omega": df.R3 * df.R3}),
                      ("eq7", {"big_c": 0.5}), ("eq4b3", {})):
        rep = df.constraint_residuals(ans, which, plan, **kw)
        samples = []
        for i in range(plan.count):
            p = plan.point(i)
            e_val, s = float(np.exp(p[0] - p[1])), p[0] + p[1]
            total, scale = 0.0, abs(e_val)
            for a in range(3):
                jet = eval_jet(ans.psi[a], p, 1)
                psi, (d1, d2) = jet.value, jet.gradient()[:2]
                phi, sign = eval_scalar(ans.phi[a], p), ans.eps[a]
                term = {"eq4a": sign * (phi + psi) * d1, "eq4c": sign * d1 * d2,
                        "eq5": sign * (phi + psi / 2.0) * psi, "eq7": sign * psi * psi,
                        "eq4b3": sign * (phi + psi) * d2}[which]
                total += term
                scale = max(scale, abs(term))
            res = {"eq4a": total + e_val, "eq4c": total,
                   "eq5": total - eval_scalar(kw.get("omega", df.R3), p) + e_val,
                   "eq7": total - 0.5 + 2.0 * e_val,
                   "eq4b3": total + 0.5 * (s - 1.0) * e_val}[which]
            samples.append((p, (res, scale)))
        assert_same_condition(rep.conditions[0], worst(samples), 0, 0)


# -- field comparisons -------------------------------------------------------------------------


def test_field_comparison_redraws_like_resolve_point():
    f1, f2 = parse_expr("ln(u1) * u2", 2), parse_expr("ln(u1) * u2 * (1 + 1e-12 * u2)", 2)
    plan = counting(SamplePlan(2, HOSTILE_BOX, count=50, seed=8))
    rep = fields_equal_numeric(f1, f2, plan)
    reference = counting(plan)

    def evaluate(p):
        v1, v2 = eval_scalar(f1, p), eval_scalar(f2, p)
        return abs(v1 - v2), max(abs(v1), abs(v2))

    want = worst(redraw_loop(reference, evaluate, ""))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn), sorted(reference.drawn))


def test_field_comparison_hostile_message():
    plan = SamplePlan(1, ((-1.0, 1.0),), count=5, seed=7)
    with pytest.raises(HostileDomainError,
                       match=f"sample point 0 exhausted {RESAMPLE_BUDGET} redraws"):
        fields_equal_numeric(parse_expr("ln(-2-u1^2)", 1), parse_expr("0", 1), plan)


def test_non_finite_comparison_fails():
    (u1,) = variables(1)
    e = exp(400) * exp(400) * (2 + u1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fields_equal_numeric(e, e, default_plan(1, count=10))
    cond = rep.conditions[0]
    assert not rep.passed and cond.residual is None
    assert cond.witness == tuple(default_plan(1, count=10).point(0))
    assert cond.note == "non-finite value at 10 of 10 points"
    # the product overflows to inf, and 0 * inf is NaN, where u1 > 709.78 / 1400
    plan = default_plan(1, count=40, seed=2)
    f2 = u1 + 0 * (exp(700 * u1) * exp(700 * u1))
    one_bad = fields_equal_numeric(u1, f2, plan)
    first = next(i for i in range(40) if not np.isfinite(eval_scalar(f2, plan.point(i))))
    assert plan.point(first)[0] > 0.5
    assert one_bad.conditions[0].witness == tuple(plan.point(first))
    assert not one_bad.passed


def test_field_comparison_keeps_its_floor_rule():
    (u1,) = variables(1)
    plan = default_plan(1, count=20, seed=1, tolerance=1e-9, floor=1e-6)
    rep = fields_equal_numeric(u1 * 1e-3, u1 * 1e-3 + 5e-7, plan)
    assert rep.passed  # |f1 - f2| = 5e-7 <= tol * 1 + floor
    assert rep.conditions[0].residual == pytest.approx(5e-7, rel=1e-6)
    assert not fields_equal_numeric(u1, u1 + 2e-6, plan).passed
