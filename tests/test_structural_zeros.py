"""Structural zeros: the patterns a tape records are sound, every
contraction of a check forms only the products whose factors are all
structurally nonzero, and the reports are those of the dense contractions
bit for bit, with a non-diagonal metric and with infinite entries too."""

from __future__ import annotations

import numpy as np
import pytest

import cases
from cases import plan_for
from hydroham import driftflux as df
from hydroham import geometry, operators
from hydroham.exprs import Deriv, TapeValues, compile_tape, const, eval_tape, variables
from hydroham.geometry import ConnectionField, MetricField, Patterned
from hydroham.operators import (LocalOperator, NonlocalOperator, check_ferapontov,
                                check_local_hamiltonian, check_skew_adjoint)
from hydroham.parsing import parse_expr
from hydroham.sampling import default_plan


def euclidean_sheared(b21: int = -2, entry=None) -> LocalOperator:
    """The Euclidean metric in u1 = x - y^2, u2 = y: g = [[1 + 4 u2^2, -2 u2],
    [-2 u2, 1]], b^{11}_2 = 4 u2, b^{21}_2 = -2 and every other b entry 0;
    ``b21`` replaces b^{21}_2 and ``entry`` b^{22}_2."""
    u1, u2 = variables(2)
    zero = const(0)
    g = ((1 + 4 * u2 * u2, -2 * u2), (-2 * u2, const(1)))
    b = [[[zero, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
    b[0][0][1] = 4 * u2
    b[1][0][1] = const(b21)
    if entry is not None:
        b[1][1][1] = parse_expr(entry, 2)
    return LocalOperator(2, MetricField(2, g), ConnectionField(2, b))


@pytest.fixture
def all_true(monkeypatch):
    """Call to make every pattern all-true from then on: the tapes' and the
    inverse metric's, and so every contraction's."""
    patterns = TapeValues.patterns

    def force():
        monkeypatch.setattr(TapeValues, "patterns", property(lambda self: tuple(
            None if p is None else np.ones_like(p) for p in patterns.fget(self))))
        monkeypatch.setattr(geometry, "_inverse_pattern",
                            lambda pattern, n: np.ones((n, n), dtype=bool))
    return force


def _reports(runs):
    return [run().to_dict() for run in runs]


# -- the patterns ------------------------------------------------------------------------


def _grids():
    """(name, TapeValues) of every grid a shipped check evaluates, at 60
    plan points: g at orders 0-2, b, the tails at orders 0 and 1, and the
    pencil members."""
    ops = [(name, op, ()) for name, op in cases.local_operators()]
    ops += [(name, op.local, op.tails) for name, op in cases.nonlocal_operators()]
    ops.append(("euclidean sheared", euclidean_sheared(), ()))
    for name, op, tails in ops:
        points = plan_for(op.dim, 2).points(np.arange(60))
        for order in (0, 1, 2):
            yield f"{name} g@{order}", eval_tape(compile_tape(op.g.entries, op.dim, order), points)
        yield f"{name} b", eval_tape(compile_tape(op.b.entries, op.dim, 0), points)
        for order in (0, 1):
            if tails:
                yield f"{name} tails@{order}", eval_tape(
                    compile_tape(tuple(w.entries for w in tails), op.dim, order), points)
    for name, a, b in cases.pencil_pairs():
        points = plan_for(a.dim, 2).points(np.arange(60))
        members = [(lam, slice(0, 60)) for lam in cases.LAMBDAS + (0.0,)]
        for order in (0, 2):
            yield f"{name}@{order}", geometry.pencil_values(
                compile_tape((a.g.entries, b.g.entries), a.dim, order), points, members)


def test_every_structurally_zero_entry_of_a_grid_is_zero():
    for name, grid in _grids():
        assert not grid.failed.any(), name
        for part, values, pattern in zip(("vals", "d1", "d2"), grid.at(), grid.patterns):
            assert (values is None) == (pattern is None), (name, part)
            if values is not None:
                assert pattern.shape == values.shape[:-1], (name, part)
                assert not values[~pattern].any(), (name, part)
                assert not pattern.flags.writeable, (name, part)


def test_a_tape_records_zeros_constants_and_the_variables_each_output_reads():
    u1, u2, u3 = variables(3)
    entries = (const(0), const(2), u1 - u1, 3 * u2, Deriv(u2 * u3, 0),
               parse_expr("1 - 1", 3), parse_expr("sin(u1) * exp(u3)", 3))
    tape = compile_tape(entries, 3, 2)
    assert tape.reads == (None, 0, 0b001, 0b010, 0b110, None, 0b101)
    vals, d1, d2 = eval_tape(tape, [(0.1, 0.2, 0.3)]).patterns
    assert vals.tolist() == [False, True, True, True, True, False, True]
    # d_k is zero where the tree does not read u_k: a superset through d1
    assert d1.tolist() == [[False, False, True, False, False, False, True],
                           [False, False, False, True, True, False, False],
                           [False, False, False, False, True, False, True]]
    assert np.array_equal(d2, d1[:, None] & d1[None])


def test_a_pencil_member_has_the_union_of_its_pairs_patterns():
    u1, u2 = variables(2)
    zero = const(0)
    a = ((u1, zero), (zero, zero))
    b = ((u2, const(1)), (zero, zero))
    member = geometry.pencil_values(compile_tape((a, b), 2, 1), [(0.3, 0.4)],
                                    [(0.5, slice(0, 1))])
    vals, d1, _ = member.patterns
    assert vals.tolist() == [[True, True], [False, False]]
    assert d1.tolist() == [[[True, False], [False, False]], [[True, False], [False, False]]]


def test_the_inverse_pattern_is_block_diagonal_over_the_components():
    pattern = np.array([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=bool)
    inverse = geometry._inverse_pattern(pattern.tobytes(), 4)
    assert inverse.astype(int).tolist() == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0],
                                            [0, 1, 0, 1]]
    chain = np.eye(4, dtype=bool) | np.eye(4, k=1, dtype=bool)  # one component
    assert geometry._inverse_pattern(chain.tobytes(), 4).all()


def test_frame_patterns_come_from_the_tapes_alone():
    # the same patterns for any batch, and a frame array is zero wherever its
    # pattern is
    op = df.build_H2_hat()
    points = plan_for(3, 4).points(np.arange(40))
    grid = compile_tape(op.local.g.entries, 3, 2)
    first = geometry.metric_frames(eval_tape(grid, points), np.arange(40))
    for lanes in (np.arange(40)[::-1], [7]):
        frames = geometry.metric_frames(eval_tape(grid, points[lanes]), np.arange(len(lanes)))
        for name in first._fields[1:]:  # every field but the point
            assert np.array_equal(getattr(frames, name).pattern, getattr(first, name).pattern), name
    for field, name in zip(first[1:], first._fields[1:]):
        assert not field.values[~field.pattern].any(), name
    assert not first.g_lo.pattern[0, 1] and first.riemann_up.pattern.any()


# -- fewer products --------------------------------------------------------------------


def _terms(plan) -> int:
    return 0 if plan.gathers is None else len(plan.gathers[0]) - (plan.zero is not None)


@pytest.fixture
def products(monkeypatch):
    """[products formed, products of the dense contractions] per lane, over
    every lane_einsum call from then on."""
    counts = [0, 0]
    plan_of = geometry._einsum_plan

    def counted(spec, *key):
        plan = plan_of(spec, *key)
        factors = len(key) // 2 - 1
        dense = plan_of(spec, *(None if k % 2 else x for k, x in enumerate(key)))
        counts[0] += factors * _terms(plan)
        counts[1] += factors * _terms(dense)
        return plan

    monkeypatch.setattr(geometry, "_einsum_plan", counted)
    return counts


def test_an_h2_hat_frame_round_forms_a_seventh_of_the_dense_products(products):
    op = df.build_H2_hat()
    points = plan_for(3, 1).points(np.arange(20))
    grids = [operators._grid(op.local, "g", 2), operators._grid(op.local, "b", 0),
             operators._grid(op, "tails", 1)]
    g, b, *w = [eval_tape(grid, points) for grid in grids]
    status, _ = operators._frame_round(operators._TAIL_CONDITIONS, op.tails, g, b, w)
    assert (status == 0).all()
    assert products == [474, 3402]


def _frame_operators():
    """(name, LocalOperator, points) of every shipped operator, the local
    part of every nonlocal one and of every catalog mutant, the sheared
    Euclidean operator and constant curvature at n = 2 to 5."""
    from test_operators import _constant_curvature

    ops = cases.local_operators() + [(name, op.local) for name, op in cases.nonlocal_operators()]
    ops += [(name, getattr(op, "local", op)) for name, _, op in df.mutation_catalog()]
    ops.append(("euclidean sheared", euclidean_sheared()))
    for name, op in ops:
        yield name, op, plan_for(op.dim, 3).points(np.arange(60))
    for n in (2, 3, 4, 5):
        h = 0.9 / np.sqrt(n)
        plan = default_plan(n, [(-h, h)] * n, count=60, seed=3)
        yield f"constant curvature n={n}", _constant_curvature(n, []).local, plan.points(np.arange(60))


def test_the_second_compatibility_term_is_the_first_transposed_bit_for_bit():
    # Gamma^s_{jk} g_{is} is Gamma^s_{ik} g_{sj} with i and j swapped, signs
    # of zero and pattern included, since g_lo is exactly symmetric; so
    # metric_compatible is the two-contraction form's
    for name, op, points in _frame_operators():
        g = eval_tape(compile_tape(op.g.entries, op.dim, 1), points)
        b = eval_tape(compile_tape(op.b.entries, op.dim, 0), points)
        lanes = np.flatnonzero(geometry.metric_status(g).usable & ~b.failed)
        frames = geometry.metric_frames(g, lanes)
        b_vals = Patterned(b.vals[..., lanes], b.patterns[0])
        gamma = -geometry.lane_einsum("is,ijk->jsk", frames.g_lo, b_vals)
        t1 = geometry.lane_einsum("sik,sj->kij", gamma, frames.g_lo)
        t2 = geometry.lane_einsum("sjk,is->kij", gamma, frames.g_lo)
        swapped = t1.transpose("kji->kij")
        assert swapped.values.tobytes() == np.ascontiguousarray(t2.values).tobytes(), name
        assert np.array_equal(swapped.pattern, t2.pattern), name
        dg_lo = frames.dg_lo.values
        scale = np.maximum(np.maximum(geometry.lane_max(dg_lo), geometry.lane_max(t1.values)),
                           geometry.lane_max(t2.values))
        raw, got_scale = operators.connection_residuals(frames, b_vals)["metric_compatible"]
        assert raw.tobytes() == geometry.lane_max(dg_lo - t1.values - t2.values).tobytes(), name
        assert got_scale.tobytes() == scale.tobytes(), name


# -- the same reports --------------------------------------------------------------------


def test_a_non_diagonal_metric_passes_and_its_mutant_fails(all_true):
    plan = default_plan(2, seed=1)
    runs = [lambda: check_skew_adjoint(euclidean_sheared(), plan),
            lambda: check_local_hamiltonian(euclidean_sheared(), plan),
            lambda: check_skew_adjoint(euclidean_sheared(b21=2), plan),
            lambda: check_local_hamiltonian(euclidean_sheared(b21=2), plan)]
    reports = _reports(runs)
    for report in reports[:2]:
        assert report["passed"]
        assert all(c["max_residual"] < 4.5e-15 for c in report["conditions"])
    for report in reports[2:]:
        assert not report["passed"]
    failed = {c["id"] for r in reports[2:] for c in r["conditions"] if not c["passed"]}
    assert failed == {"skew_pairing", "connection_symmetric", "metric_compatible"}
    all_true()
    assert _reports(runs) == reports


INFINITE = ("u1*1e200*1e200", "u1*1e308*10")  # infinite at every lane, and where |u1| > 0.18


@pytest.mark.parametrize("entry", INFINITE)
def test_infinite_entries_give_the_reports_of_the_dense_contractions(all_true, entry):
    # a dense sum multiplies a structural zero by inf, a NaN; the verdicts,
    # residuals, witnesses and notes are the same without those products
    r3 = parse_expr(entry.replace("u1", "r3"), 3)
    h1_theta = df.build_H1_Theta(df.R3)
    b = [[list(row) for row in plane] for plane in h1_theta.b.entries]
    b[0][1][2] = parse_expr(entry, 3)
    h1_theta = LocalOperator(3, h1_theta.g, ConnectionField(3, b))
    h2_hat = df.build_H2_hat()
    tails = list(h2_hat.tails)
    w = [list(row) for row in tails[0].entries]
    w[0][2] = r3
    tails[0] = geometry.AffinorField(3, tails[0].sign, w)
    h2_hat = NonlocalOperator(h2_hat.local, tails)
    runs = [lambda: check_skew_adjoint(euclidean_sheared(entry=entry), default_plan(2, seed=1)),
            lambda: check_local_hamiltonian(euclidean_sheared(entry=entry),
                                            default_plan(2, seed=1)),
            lambda: check_local_hamiltonian(h1_theta, plan_for(3, 1)),
            lambda: check_ferapontov(h2_hat, plan_for(3, 1))]
    reports = _reports(runs)
    non_finite = [c for r in reports for c in r["conditions"] if c["max_residual"] is None]
    assert len(non_finite) >= 4 and all(c["note"].startswith("non-finite") for c in non_finite)
    all_true()
    assert _reports(runs) == reports
