"""Batched evaluation: jet tapes against the recursive evaluator of
``oracle``, Jet and the one-point views against tape lanes bit for bit, lane
independence of tapes and frames, and reports pinned against
``golden_reports.json``: first written by record_golden.py from the
per-point evaluator, re-recorded from the batched one with no verdict
change, residuals and witnesses moving at roundoff only."""

from __future__ import annotations

import json
import operator
import os
import warnings

import numpy as np
import pytest

import cases
from conftest import SMOOTH_CORPUS, random_smooth_expr
from oracle import eval_jet, eval_scalar
from hydroham import driftflux as df
from hydroham import operators
from hydroham.errors import EvalDomainError
from hydroham.exprs import (
    BinOp,
    Call,
    Const,
    Deriv,
    NamedConst,
    Neg,
    Power,
    Var,
    compile_tape,
    eval_tape,
    exp,
    ln,
    sqrt,
    variables,
)
from hydroham.exprs import eval_jet as hydroham_eval_jet
from hydroham.geometry import (
    ConnectionField,
    MetricField,
    lane_einsum,
    metric_frames,
    metric_status,
)
from hydroham.jets import Jet, JetDomainError
from hydroham.operators import (
    REDRAW_DEGENERATE,
    LocalOperator,
    check_local_hamiltonian,
    pencil_operator,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, default_plan

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
RESIDUAL_ABS, RESIDUAL_REL = 1e-12, 1e-9
WITNESS_EXACT_FROM = 1e-10


# -- tape against the oracle ------------------------------------------------------


def _oracle_corpus():
    """(expression, dimension, box): the smooth corpus on boxes widened past
    its domains, the seeded random expressions, and every metric, connection
    and tail entry of the drift-flux presets (Deriv included)."""
    out = [(parse_expr(t, n), n, tuple((lo - 1.5, hi + 1.5) for lo, hi in box))
           for t, n, box in SMOOTH_CORPUS]
    # two subtrees that fail together on a quarter of the box: the error
    # must name the one evaluated first
    for text in ("ln(u1) + sqrt(u2)", "sqrt(u2) * ln(u1)"):
        out.append((parse_expr(text, 2), 2, ((-1.0, 1.0), (-1.0, 1.0))))
    # a Deriv whose argument leaves its domain: alone, nested, beside the
    # same argument outside the Deriv, and after or before another subtree
    # that fails on the same quarter of the box
    u1, u2 = variables(2)
    log = ln(u1)
    for e in (Deriv(log, 0), Deriv(sqrt(u1), 0), Deriv(Deriv(ln(u1 + u2 * u2), 0), 1),
              log + Deriv(log, 0), sqrt(u2) * Deriv(log, 0), Deriv(log, 0) * sqrt(u2)):
        out.append((e, 2, ((-1.0, 1.0), (-1.0, 1.0))))
    rng = np.random.default_rng(20240817)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        out.append((random_smooth_expr(rng, n, 4), n, ((-1.0, 1.0),) * n))
    box3 = ((-0.7, 0.7), (-0.7, 0.7), (0.1, 1.0))
    seen = set()
    for _, op in cases.local_operators() + cases.nonlocal_operators():
        local = getattr(op, "local", op)
        grids = [local.g.entries, local.b.entries] + [w.entries for w in getattr(op, "tails", ())]
        for grid in grids:
            for e in np.array(grid, dtype=object).ravel():
                if str(e) not in seen and str(e) != "0":
                    seen.add(str(e))
                    out.append((e, local.dim, box3[:local.dim]))
    return out


ORACLE = _oracle_corpus()


def _reference(e, p, order):
    try:
        return (eval_jet(e, p, order).coeffs if order else np.array([eval_scalar(e, p)])), None
    except EvalDomainError as err:
        return None, err


@pytest.mark.parametrize("order", [1, 2, 3])
def test_tape_matches_eval_jet(order):
    rng = np.random.default_rng(order)
    worst = 0.0
    for e, n, box in ORACLE:
        points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(12)])
        try:
            tape = compile_tape([e], n, order)
        except ValueError:  # a Deriv needs a jet beyond MAX_ORDER
            with pytest.raises(ValueError, match="jet order"):
                eval_jet(e, points[0], order)
            continue
        got = eval_tape(tape, points)
        for lane, p in enumerate(points):
            ref, err = _reference(e, p, order)
            assert got.failed[lane] == (err is not None), (str(e), p)
            if err is not None:
                assert str(got.error(lane)) == str(err)
                continue
            # relative to the jet's largest coefficient, so an exact zero that
            # the tape reaches through a different rounding does not divide by 0
            diff = np.max(np.abs(got.coeffs[0, :, lane] - ref))
            worst = max(worst, float(diff / max(np.max(np.abs(ref)), np.finfo(float).tiny)))
    assert worst <= 1e-13, worst


def test_scalar_tape_matches_eval_scalar():
    rng = np.random.default_rng(0)
    for e, n, box in ORACLE:
        points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(12)])
        got = eval_tape(compile_tape([e], n, 0), points)
        for lane, p in enumerate(points):
            ref, err = _reference(e, p, 0)
            assert got.failed[lane] == (err is not None)
            if err is not None:
                assert str(got.error(lane)) == str(err)
            else:
                assert got.coeffs[0, 0, lane] == pytest.approx(ref[0], rel=1e-13, abs=1e-300)


def test_order_1_values_are_the_order_0_tape_wherever_it_evaluates():
    # the checks read a field's values from its order-1 jets: an order-1 tape
    # fails wherever the order-0 tape does, but for a power that overflows,
    # which only order 0 flags; here exp(400*u1)^2 overflows past u1 = 0.887
    rng = np.random.default_rng(1)
    corpus = ORACLE + [(parse_expr("exp(400*u1)^2", 1), 1, ((0.1, 1.0),))]
    worst, overflows = 0.0, 0
    for e, n, box in corpus:
        points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(40)])
        values, jets = (eval_tape(compile_tape([e], n, order), points) for order in (0, 1))
        for lane in np.flatnonzero(values.failed & ~jets.failed):
            assert values.error(lane).reason == "overflow in power", (str(e), points[lane])
            overflows += 1
        both = ~values.failed & ~jets.failed
        want, got = values.vals[0, both], jets.vals[0, both]
        diff = np.abs(got - want)
        worst = max(worst, float(np.max(diff / np.maximum(np.abs(want), np.finfo(float).tiny),
                                        initial=0.0)))
    assert overflows > 0
    assert worst <= 1e-13, worst


def _jet_build(node, p, order):
    """``node`` at ``p`` built operation by operation from Jet values, with
    constant subtrees folded to floats as compile_tape folds them."""
    if isinstance(node, (Const, NamedConst)):
        return float(node.value)
    if isinstance(node, Var):
        return Jet.variable(node.index, p[node.index], len(p), order)
    if isinstance(node, Neg):
        return -_jet_build(node.arg, p, order)
    if isinstance(node, BinOp):
        a, b = _jet_build(node.left, p, order), _jet_build(node.right, p, order)
        if node.op == "/" and isinstance(a, float) and isinstance(b, float):
            return a * (1.0 / b)
        return {"+": operator.add, "-": operator.sub, "*": operator.mul,
                "/": operator.truediv}[node.op](a, b)
    as_jet = (lambda x: Jet.constant(x, len(p), order) if isinstance(x, float) else x)
    if isinstance(node, Power):
        return as_jet(_jet_build(node.base, p, order)) ** node.exponent
    if isinstance(node, Call):
        arg = as_jet(_jet_build(node.arg, p, order))
        return getattr(arg, "log" if node.func == "ln" else node.func)()
    inner = _jet_build(node.arg, p, order + 1)  # Deriv
    return 0.0 if isinstance(inner, float) else inner.partial(node.index)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_and_eval_jet_are_tape_lanes_bit_for_bit(order):
    rng = np.random.default_rng(10 + order)
    compared = flagged = 0
    for e, n, box in ORACLE:
        points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(12)])
        try:
            got = eval_tape(compile_tape([e], n, order), points)
        except ValueError:  # a Deriv needs a jet beyond MAX_ORDER
            continue
        for lane, p in enumerate(points):
            if got.failed[lane]:
                with pytest.raises(JetDomainError) as err:
                    _jet_build(e, p, order)
                assert str(err.value) == got.error(lane).reason
                with pytest.raises(EvalDomainError) as err:
                    hydroham_eval_jet(e, p, order)
                assert str(err.value) == str(got.error(lane))
                flagged += 1
                continue
            want = got.coeffs[0, :, lane].tobytes()
            built = _jet_build(e, p, order)
            if isinstance(built, float):
                built = Jet.constant(built, n, order)
            assert built.coeffs.tobytes() == want, (str(e), p)
            assert hydroham_eval_jet(e, p, order).coeffs.tobytes() == want, (str(e), p)
            compared += 1
    assert compared > 1000 and flagged > 10


def test_tape_shares_subtrees_and_drops_zero_entries():
    u1, u2 = variables(2)
    p = exp(u2 - u1)
    tape = compile_tape([p * u1, parse_expr("exp(u2-u1)*u2", 2), parse_expr("0", 2), p], 2, 2)
    assert [op for op, *_ in tape.code].count("exp") == 1
    assert tape.outputs[2] is None
    assert tape.code[tape.outputs[3]][0] == "exp"


# -- lane independence ------------------------------------------------------------


def _operators():
    """(name, g, b, tails) of every operator the golden reports check."""
    ops = [(name, op, ()) for name, op in cases.local_operators()]
    ops += [(name, op.local, op.tails) for name, op in cases.nonlocal_operators()]
    ops += [(f"{name} lambda={lam}", pencil_operator(a, b, lam), ())
            for name, a, b in cases.pencil_pairs() for lam in cases.LAMBDAS]
    ops += [(f"mutant {name}", getattr(op, "local", op), getattr(op, "tails", ()))
            for name, _, op in df.mutation_catalog()]
    return [(name, op.g, op.b, tails) for name, op, tails in ops]


def _batch_arrays(g, b, tails, points):
    """Every tape coefficient and frame array the checks compute, with the
    frames' trailing lane axis moved first.  Frames are built at the usable
    lanes only; their arrays read NaN at the other lanes, so they line up
    with the batch."""
    dim = points.shape[1]
    jets = eval_tape(compile_tape(g.entries, dim, 2), points)
    status = metric_status(jets)
    frames = metric_frames(jets, status.usable)
    arrays = {"usable": status.usable, "det": status.det}
    for name in ("g_up", "g_lo", "dg_up", "dg_lo", "gamma", "d2g_up", "dgamma", "riemann",
                 "riemann_up"):
        built = np.moveaxis(getattr(frames, name).values, -1, 0)
        arrays[name] = np.full((len(points),) + built.shape[1:], np.nan)
        arrays[name][status.usable] = built
    for label, entries, order in [("b", b.entries, 0)] + [
            (f"w{a}.{order}", w.entries, order) for a, w in enumerate(tails) for order in (0, 1)]:
        values = eval_tape(compile_tape(entries, dim, order), points)
        arrays[label] = np.moveaxis(values.coeffs, -1, 0)
    arrays["g.coeffs"] = jets.coeffs.transpose(2, 0, 1)
    return arrays


OPERATORS = _operators()


@pytest.mark.parametrize("name,g,b,tails", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_lanes_are_bit_identical_in_any_batch(name, g, b, tails):
    plan = cases.plan_for(g.dim, 5)
    points = np.array([plan.point(i) for i in range(plan.count)])
    full = _batch_arrays(g, b, tails, points)
    perm = np.random.default_rng(3).permutation(plan.count)
    permuted = _batch_arrays(g, b, tails, points[perm])
    seven = _batch_arrays(g, b, tails, points[10:17])
    for key, arr in full.items():
        assert np.array_equal(permuted[key], arr[perm], equal_nan=True), key
        assert np.array_equal(seven[key], arr[10:17], equal_nan=True), key
    for i in (0, 13, plan.count - 1):
        alone = _batch_arrays(g, b, tails, points[i:i + 1])
        for key, arr in full.items():
            assert np.array_equal(alone[key][0], arr[i], equal_nan=True), (key, i)


@pytest.mark.parametrize("spec", [
    "ia,kab,bj->kij", "jm,msk->jsk", "lia,kab,bj->lkij", "jmk,msl->jskl",
    "is,jskl->ijkl", "kjsl->jskl", "il,jk->ijkl",
])
def test_lane_einsum_matches_einsum(spec):
    rng = np.random.default_rng(9)
    inputs = spec.split("->")[0].split(",")
    ops = [rng.standard_normal((3,) * len(sub) + (5,)) for sub in inputs]
    want = np.einsum(",".join(sub + "z" for sub in inputs) + "->" + spec.split("->")[1] + "z", *ops)
    assert np.allclose(lane_einsum(spec, *ops), want, rtol=1e-13, atol=1e-13)


# -- reports against the golden file ------------------------------------------------------


with open(GOLDEN, "r", encoding="utf-8") as fh:
    GOLDEN_REPORTS = json.load(fh)

CASES = {f"{name} @ seed {seed}": (run, seed) for name, run in cases.cases() for seed in cases.SEEDS}


def test_golden_covers_every_case():
    assert sorted(CASES) == sorted(GOLDEN_REPORTS)


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_matches_per_point_evaluator(key):
    run, seed = CASES[key]
    got, want = run(seed).to_dict(), GOLDEN_REPORTS[key]
    assert (got["title"], got["passed"], got["plan"], got["notes"]) == \
        (want["title"], want["passed"], want["plan"], want["notes"])
    assert [c["id"] for c in got["conditions"]] == [c["id"] for c in want["conditions"]]
    for g, w in zip(got["conditions"], want["conditions"]):
        assert (g["description"], g["passed"], g["note"]) == \
            (w["description"], w["passed"], w["note"]), g["id"]
        if w["max_residual"] is None:
            assert g["max_residual"] is None and g["witness"] == w["witness"], g["id"]
            continue
        assert g["max_residual"] == pytest.approx(w["max_residual"], rel=RESIDUAL_REL,
                                                  abs=RESIDUAL_ABS), g["id"]
        if w["max_residual"] == 0.0 or w["max_residual"] >= WITNESS_EXACT_FROM:
            assert g["witness"] == w["witness"], g["id"]


# -- non-finite values fail ----------------------------------------------------------------


def test_non_finite_metric_fails_without_warnings():
    (u1,) = variables(1)
    g = MetricField(1, ((exp(400) * exp(400) * (2 + u1),),))
    b = ConnectionField(1, (((parse_expr("0", 1),),),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_local_hamiltonian(LocalOperator(1, g, b), default_plan(1, count=20, seed=3))
    assert not rep.passed
    failed = [c for c in rep.conditions if not c.passed]
    assert failed and all("non-finite" in c.note for c in failed)
    assert all(c.residual is None and c.witness is not None for c in failed)


def test_overflowing_metric_entry_fails_without_warnings():
    # np.linalg.inv turns [[inf, 0], [0, 1]] into a finite matrix, so a lane
    # whose det is not finite must get no frame for its residuals to fail
    u1, _ = variables(2)
    zero, one = parse_expr("0", 2), parse_expr("1", 2)
    g = MetricField(2, ((exp(400) * exp(400) * (2 + u1), zero), (zero, one)))
    b = ConnectionField(2, ((((zero,) * 2,) * 2,) * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_local_hamiltonian(LocalOperator(2, g, b), default_plan(2, count=20, seed=3))
    notes = {c.cid: (c.passed, c.residual, c.note) for c in rep.conditions}
    non_finite = (False, None, "non-finite value at 20 of 20 points")
    assert notes == {"metric_symmetric": non_finite, "metric_nondegenerate": (True, 0.0, None),
                     "connection_symmetric": non_finite, "metric_compatible": non_finite,
                     "metric_flat": non_finite}


# -- frames only where a round can resolve -----------------------------------------------


@pytest.fixture
def frame_check_spy(monkeypatch):
    """Record the lanes handed to the frame builder and every plan walk of
    the frame checks."""
    built, walks = [], []
    resolve = operators.resolve

    def build(jets, lanes):
        built.append(jets.vals[..., lanes].shape[-1])
        return metric_frames(jets, lanes)

    def walk(plan, evaluate):
        walks.append(resolve(plan, evaluate))
        return walks[-1]

    monkeypatch.setattr(operators, "metric_frames", build)
    monkeypatch.setattr(operators, "resolve", walk)
    return built, walks


def _identically_degenerate(plan, last_draw) -> dict:
    """The report of a local check whose metric is degenerate at every draw."""
    not_evaluated = {"max_residual": None, "witness": None, "passed": False,
                     "note": "not evaluated (metric degenerate)"}
    return {
        "title": "local Hamiltonian",
        "passed": False,
        "conditions": [
            {"id": "metric_symmetric", "description": "g^{ij} = g^{ji}", "max_residual": 0.0,
             "witness": None, "passed": True, "note": None},
            {"id": "metric_nondegenerate",
             "description": "|det g| above the degeneracy floor on the box", "max_residual": 1.0,
             "witness": [float(x) for x in last_draw], "passed": False,
             "note": "identically degenerate"},
            {"id": "connection_symmetric", "description": "Gamma^j_{sk} = Gamma^j_{ks}",
             **not_evaluated},
            {"id": "metric_compatible", "description": "nabla g = 0", **not_evaluated},
            {"id": "metric_flat", "description": "curvature of g vanishes", **not_evaluated},
        ],
        "plan": plan.echo(),
        "notes": [],
    }


DEGENERATE_OPERATORS = {
    "mutant h1-theta Theta = 0 (degenerate)":
        dict((name, op) for name, _, op in df.mutation_catalog())["h1-theta Theta = 0 (degenerate)"],
    "pair 1-2 lambda=-1.0": pencil_operator(df.build_nutku(1), df.build_nutku(2), -1.0),
}


@pytest.mark.parametrize("seed", cases.SEEDS)
@pytest.mark.parametrize("name", sorted(DEGENERATE_OPERATORS))
def test_degenerate_rounds_build_no_frame(frame_check_spy, name, seed):
    built, walks = frame_check_spy
    op = DEGENERATE_OPERATORS[name]
    plan = cases.plan_for(op.dim, seed)
    report = check_local_hamiltonian(op, plan).to_dict()
    assert sum(built) == 0
    (found,) = walks
    draws = np.array([plan.point(i, r) for i in range(plan.count)
                      for r in range(RESAMPLE_BUDGET + 1)])
    assert np.array_equal(found.status, np.full(len(draws), REDRAW_DEGENERATE))
    assert found.draws.tobytes() == draws.tobytes()
    assert report == _identically_degenerate(plan, draws[-1])
    if name.startswith("mutant"):
        assert report == GOLDEN_REPORTS[f"{name} @ seed {seed}"]


def test_resolving_rounds_build_frames(frame_check_spy):
    built, _ = frame_check_spy
    op = df.build_nutku(1)
    assert check_local_hamiltonian(op, cases.plan_for(op.dim, 1)).passed
    assert sum(built) == 100


def test_domain_redraw_outranks_degeneracy(frame_check_spy):
    built, walks = frame_check_spy
    g = MetricField(1, ((parse_expr("0", 1),),))
    b = ConnectionField(1, (((parse_expr("ln(u1)", 1),),),))
    report = check_local_hamiltonian(LocalOperator(1, g, b), default_plan(1, count=20, seed=3))
    (found,) = walks
    assert sum(built) == 0 and len(found.draws) == 20 * (RESAMPLE_BUDGET + 1)
    outside = found.draws[:, 0] <= 0
    assert outside.any() and not outside.all()
    assert np.array_equal(found.status, np.where(outside, REDRAW_DOMAIN, REDRAW_DEGENERATE))
    nondegenerate = report.conditions[1]
    assert nondegenerate.note == "identically degenerate"
    assert nondegenerate.witness == tuple(found.draws[~outside][-1])
