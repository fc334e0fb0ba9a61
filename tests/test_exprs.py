import json
import re

import numpy as np
import pytest

import cases
from hydroham import driftflux as df
from hydroham.errors import EvalDomainError, HostileDomainError
from hydroham.exprs import (
    Deriv,
    compile_tape,
    const,
    eval_jet,
    eval_scalar,
    eval_tape,
    fields_equal_numeric,
    variables,
)
from hydroham.operators import hamiltonian_flow
from hydroham.parsing import parse_expr
from hydroham.sampling import SamplePlan, default_plan

from conftest import SMOOTH_CORPUS, eval_longdouble, random_smooth_expr


def test_eval_scalar_examples():
    assert eval_scalar(parse_expr("exp(u1-u2)", 3), (0, 0, 0)) == 1.0
    assert eval_scalar(parse_expr("u1+u2+1", 3), (0.5, -0.5, 2)) == 1.0


def test_log_domain_violation_names_subtree():
    with pytest.raises(EvalDomainError, match="ln"):
        eval_scalar(parse_expr("ln(u1)", 2), (0.0, 1.0))


def test_division_by_zero():
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_scalar(parse_expr("1/u1", 1), (0.0,))


def test_zero_to_negative_power():
    with pytest.raises(EvalDomainError):
        eval_scalar(parse_expr("u1^-1", 1), (0.0,))


def test_negative_base_integer_power_ok():
    assert eval_scalar(parse_expr("u1^3", 1), (-2.0,)) == -8.0


def test_eval_jet_matches_longdouble_oracle():
    # spot check the scalar value path against the independent evaluator
    rng = np.random.default_rng(3)
    for text, n, box in SMOOTH_CORPUS:
        e = parse_expr(text, n)
        p = np.array([rng.uniform(lo, hi) for lo, hi in box])
        assert eval_scalar(e, p) == pytest.approx(float(eval_longdouble(e, p)), rel=1e-13)
        assert eval_jet(e, p, 2).value == pytest.approx(eval_scalar(e, p), rel=1e-13)


def test_deriv_node_scalar_and_jet():
    u1, u2 = variables(2)
    e = Deriv(u1 * u1 * u2, 0)  # d/du1 (u1^2 u2) = 2 u1 u2
    assert eval_scalar(e, (3.0, 2.0)) == pytest.approx(12.0)
    jet = eval_jet(e, (3.0, 2.0), 2)
    assert jet.derivative((1, 0)) == pytest.approx(4.0)  # 2 u2
    assert jet.derivative((0, 1)) == pytest.approx(6.0)  # 2 u1


def test_expr_equal_exponential_identity():
    plan = default_plan(2, count=100, seed=5)
    e1 = parse_expr("exp(u1+u2)", 2)
    e2 = parse_expr("exp(u1)*exp(u2)", 2)
    rep = fields_equal_numeric(e1, e2, plan)
    assert rep.passed


def test_expr_equal_distinct_polynomials_fail_with_witness():
    plan = default_plan(2, count=50, seed=5)
    rep = fields_equal_numeric(parse_expr("u1+u2", 2), parse_expr("u1-u2", 2), plan)
    assert not rep.passed
    cond = rep.conditions[0]
    assert cond.residual > 0
    assert cond.witness is not None


def test_family_exponent_mismatch_detected():
    # halved first exponent term vs the corrected one, at k = 1: they differ
    # wherever u1 != 0, e.g. e^{1/2} vs e at (1, 0)
    plan = default_plan(2, count=50, seed=11)
    halved = parse_expr("exp(u1/2 + u2/(1-2))", 2)
    corrected = parse_expr("exp(u1 + u2/(1-2))", 2)
    assert eval_scalar(halved, (1.0, 0.0)) != pytest.approx(eval_scalar(corrected, (1.0, 0.0)))
    rep = fields_equal_numeric(halved, corrected, plan)
    assert not rep.passed


def test_soundness_identical_trees_never_fail(rng):
    for _ in range(15):
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n)
        plan = default_plan(n, count=40, seed=int(rng.integers(1 << 30)))
        assert fields_equal_numeric(e, e, plan).passed


def test_report_determinism_byte_identical():
    plan = default_plan(2, count=60, seed=1234)
    e1 = parse_expr("sin(u1)*cos(u2)", 2)
    e2 = parse_expr("sin(u1)*cos(u2) + 1e-14*u1", 2)
    d1 = json.dumps(fields_equal_numeric(e1, e2, plan).to_dict())
    d2 = json.dumps(fields_equal_numeric(e1, e2, plan).to_dict())
    assert d1 == d2


def test_plan_points_are_pure_functions_of_seed_and_index():
    plan = default_plan(3, count=10, seed=99)
    a = [plan.point(i) for i in range(10)]
    b = [plan.point(i) for i in reversed(range(10))]
    for i in range(10):
        assert np.array_equal(a[i], b[9 - i])
    assert not np.array_equal(plan.point(0, retry=0), plan.point(0, retry=1))


def test_domain_violations_are_resampled():
    # ln(u1) on a box straddling zero: some draws violate, the loop redraws
    plan = SamplePlan(dim=1, box=((-1.0, 1.0),), count=40, seed=7)
    rep = fields_equal_numeric(parse_expr("ln(u1^2+1)", 1), parse_expr("ln(1+u1^2)", 1), plan)
    assert rep.passed
    rep2 = fields_equal_numeric(
        parse_expr("ln(u1)", 1), parse_expr("ln(u1)", 1), plan
    )
    assert rep2.passed  # hostile half of the box is redrawn within budget


def test_hostile_domain_exhausts_budget():
    plan = SamplePlan(dim=1, box=((-1.0, 1.0),), count=5, seed=7)
    with pytest.raises(HostileDomainError, match="domain too hostile"):
        fields_equal_numeric(
            parse_expr("ln(-2-u1^2)", 1), parse_expr("0", 1), plan
        )


def test_fields_equal_rejects_non_expressions():
    plan = default_plan(2, count=30, seed=2)
    e = parse_expr("u1*u2", 2)
    with pytest.raises(TypeError, match="not an expression node"):
        fields_equal_numeric(e, lambda p: p[0] * p[1], plan)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(dim=1, box=((1.0, -1.0),), count=10)
    with pytest.raises(ValueError):
        SamplePlan(dim=1, box=((-1.0, 1.0),), count=0)
    with pytest.raises(ValueError):
        SamplePlan(dim=2, box=((-1.0, 1.0),), count=10)
    with pytest.raises(ValueError):
        SamplePlan(dim=1, box=((-1.0, 1.0),), count=10, tolerance=0.0)


# -- instructions no one reads --------------------------------------------------------


def _unread_slots(tape) -> list:
    read = {a for _, args, *_ in tape.code for a in args}
    read |= {s for s in tape.outputs if s is not None}
    return [i for i in range(len(tape.code)) if i not in read]


def test_folding_leaves_no_unread_instruction():
    # the folded argument's const 3.0 at order 1 stayed in the tape, written per call
    tape = compile_tape([Deriv(const(3), 0)], 2, 0)
    assert tape.code == (("const", (), 0.0, None, 0),) and tape.outputs == (0,)
    u1, u2 = variables(2)
    tape = compile_tape([(u1 + const(2) * const(3)) * Deriv(u2 * u2, 1), const(0)], 2, 1)
    assert _unread_slots(tape) == [] and tape.outputs[1] is None


def _shipped_grids():
    """(name, entries, dim, order) of every grid a check of a shipped operator
    or system compiles."""
    ops = [(name, op, ()) for name, op in cases.local_operators()]
    ops += [(name, op.local, op.tails) for name, op in cases.nonlocal_operators()]
    ops += [(name, op if kind == "local" else op.local, () if kind == "local" else op.tails)
            for name, kind, op in df.mutation_catalog()]
    for name, op, tails in ops:
        for order in (0, 1, 2):
            yield name, op.g.entries, op.dim, order
        yield name, op.b.entries, op.dim, 0
        for order in (0, 1):
            if tails:
                yield name, tuple(w.entries for w in tails), op.dim, order
    systems = [("S", df.build_system_S()), ("S0", df.build_system_S0()),
               ("S~", df.build_system_S_tilde()),
               ("flow", hamiltonian_flow(df.build_H1_Theta(parse_expr("1 + r3^2", 3)),
                                         parse_expr("exp(r1-r2)*(r1+r2) + r3^2*r1", 3)))]
    for name, system in systems:
        yield name, system.v, system.dim, 0


def test_no_shipped_grid_compiles_an_unread_instruction():
    for name, entries, dim, order in _shipped_grids():
        assert _unread_slots(compile_tape(entries, dim, order)) == [], (name, order)


@pytest.mark.parametrize("text", ["u1^0 + 1", "u1^0 * u2", "sin(u1^0)", "u1^0 + u1^0",
                                  "2^0 - u2", "(u1*u2)^0 / u2"])
def test_a_zero_power_is_the_jet_of_one_in_any_operation(text):
    # its kernel returned the float 1.0, which +, - and the functions took for
    # an array: an AttributeError or TypeError instead of a value
    for order in (0, 1, 2):
        got = eval_tape(compile_tape(parse_expr(text, 2), 2, order), [(0.3, 0.7)]).coeffs
        one = parse_expr(re.sub(r"\(u1\*u2\)\^0|u1\^0|2\^0", "1", text), 2)
        # equal, up to the sign of a zero coefficient (1 - u2 negates, then adds)
        assert np.array_equal(got, eval_tape(compile_tape(one, 2, order), [(0.3, 0.7)]).coeffs)
