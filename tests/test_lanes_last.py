"""The lanes-last layout: every contraction the package runs equals the
lanes-first reference of ``oracle`` bit for bit, at any lane count and with
NaN and inf entries; the fused tail kernels equal the loop over tails; and
each operator compiles its grids once per object."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import cases
import oracle
from cases import plan_for, run_cli_json
from hydroham import driftflux as df
from hydroham import geometry, operators, systems
from hydroham.exprs import TapeValues, compile_tape, const, eval_tape, variables
from hydroham.geometry import (
    ConnectionField,
    MetricField,
    lane_einsum,
    metric_frames,
    metric_status,
)
from hydroham.operators import (
    LocalOperator,
    _worst,
    check_ferapontov,
    check_local_hamiltonian,
    tail_residuals,
)
from hydroham.sampling import default_plan

# every spec string the package passes to lane_einsum or Patterned.transpose
SPECS = (
    # metric frames
    "ia,kab->kib", "kib,bj->kij", "smk->msk", "kms->msk", "jm,msk->jsk",
    "lia,kaj->lkij", "kab,bj->kaj", "lkib,bj->lkij", "ia,lkab->lkib", "kib,lbj->lkij",
    "lsmk->lmsk", "lkms->lmsk", "ljm,msk->ljsk", "jm,lmsk->ljsk", "kjsl->jskl", "ljsk->jskl",
    "jmk,msl->jskl", "is,jskl->ijkl",
    # connection and tail kernels, covariant derivatives, the Gauss tail sum
    "is,ijk->jsk", "sik,sj->kij", "kji->kij", "jsk->jks", "ik,akj->aij",
    "isk,asj->akij", "sjk,ais->akij", "akij->ajik", "pik,pkj->pij", "ail,ajk->ijkl",
    # systems
    "k,kl->l", "ak,kl->al",
)


@pytest.fixture
def seen_specs(monkeypatch):
    seen = set()

    def spy(spec, *operands):
        seen.add(spec)
        return lane_einsum(spec, *operands)

    def transpose_spy(self, spec):
        seen.add(spec)
        return transpose(self, spec)

    for module in (geometry, operators, systems):
        monkeypatch.setattr(module, "lane_einsum", spy)
    transpose = geometry.Patterned.transpose
    monkeypatch.setattr(geometry.Patterned, "transpose", transpose_spy)
    return seen


def test_specs_are_every_contraction_of_the_package(seen_specs):
    for argv in (["preset", "h2-hat"], ["preset", "h1"], ["preset", "s"], ["preset", "s-tilde"]):
        run_cli_json(argv)
    geometry.covariant_derivative_values(df.build_H2_hat().tails[0],
                                         geometry.metric_frame(df.build_H2_hat().local.g,
                                                               (0.1, 0.2, 0.5)))
    assert seen_specs == set(SPECS)


def _operands(spec: str, lanes: int, rng) -> list:
    """Lanes-first random operands of ``spec``, each index of size 1 to 3,
    with NaN, inf and -inf entries and signed zeros scattered in."""
    inputs = spec.split("->")[0].split(",")
    sizes = {c: int(rng.integers(1, 4)) for c in sorted(set("".join(inputs)))}
    ops = []
    for sub in inputs:
        x = rng.standard_normal((lanes,) + tuple(sizes[c] for c in sub))
        for value in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            x[rng.random(x.shape) < 0.04] = value
        ops.append(x)
    return ops


@pytest.mark.parametrize("lanes", [1, 7, 100])
@pytest.mark.parametrize("spec", SPECS)
def test_lane_einsum_is_the_lanes_first_reference_bit_for_bit(spec, lanes):
    rng = np.random.default_rng([lanes, len(spec)])
    for _ in range(3):
        ops = _operands(spec, lanes, rng)
        with np.errstate(all="ignore"):  # inf - inf and 0 * inf are part of the test
            got = np.moveaxis(lane_einsum(spec, *[np.moveaxis(x, 0, -1) for x in ops]), -1, 0)
            want = oracle.lane_einsum(spec, *ops)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _patterned_operands(spec: str, lanes: int, rng) -> tuple:
    """Lanes-first finite random operands of ``spec``, each index of size 1
    to 3, with random patterns; each structurally zero entry is +0.0 or
    -0.0 at every lane, and signed zeros are scattered among the others."""
    inputs = spec.split("->")[0].split(",")
    sizes = {c: int(rng.integers(1, 4)) for c in sorted(set("".join(inputs)))}
    ops, patterns = [], []
    for sub in inputs:
        x = rng.standard_normal((lanes,) + tuple(sizes[c] for c in sub))
        x[rng.random(x.shape) < 0.04] = 0.0
        x[rng.random(x.shape) < 0.04] = -0.0
        pattern = rng.random(x.shape[1:]) < rng.choice([0.0, 0.3, 0.7, 1.0])
        x[:, ~pattern] = np.where(rng.random((lanes, np.count_nonzero(~pattern))) < 0.5,
                                  0.0, -0.0)
        ops.append(x)
        patterns.append(pattern)
    return ops, patterns


@pytest.mark.parametrize("lanes", [0, 1, 7, 100])
@pytest.mark.parametrize("spec", SPECS)
def test_lane_einsum_with_patterns_is_the_lanes_first_reference(spec, lanes):
    rng = np.random.default_rng([lanes, len(spec), 7])
    inputs, out = spec.split("->")
    for _ in range(4):
        ops, patterns = _patterned_operands(spec, lanes, rng)
        lanes_last = [np.moveaxis(x, 0, -1) for x in ops]
        want = oracle.lane_einsum(spec, *ops)
        got = lane_einsum(spec, *map(geometry.Patterned, lanes_last, patterns))
        assert isinstance(got, geometry.Patterned)
        values = np.moveaxis(got.values, -1, 0)
        assert values.shape == want.shape
        assert np.array_equal(values, want)
        # the pattern is the set of entries with a term whose factors are all
        # structurally nonzero, and every other entry is zero
        terms = np.einsum(spec, *(p.astype(int) for p in patterns))
        assert got.pattern.shape == want.shape[1:]
        assert np.array_equal(got.pattern, terms > 0)
        assert not values[:, ~got.pattern].any()
        # an array operand is all-true
        plain = lane_einsum(spec, *lanes_last)
        assert isinstance(plain, np.ndarray)
        assert np.array_equal(np.moveaxis(plain, -1, 0), want)
        mixed = lane_einsum(spec, geometry.Patterned.dense(lanes_last[0]), *lanes_last[1:])
        assert np.array_equal(np.moveaxis(mixed.values, -1, 0), want)


PERMUTATIONS = [spec for spec in SPECS
                if "," not in spec and sorted(spec.split("->")[0]) == sorted(spec.split("->")[1])]


def test_the_package_permutes_indices_nine_ways():
    assert PERMUTATIONS == ["smk->msk", "kms->msk", "lsmk->lmsk", "lkms->lmsk", "kjsl->jskl",
                            "ljsk->jskl", "kji->kij", "jsk->jks", "akij->ajik"]


@pytest.mark.parametrize("lanes", [0, 1, 7, 100])
@pytest.mark.parametrize("spec", PERMUTATIONS)
def test_a_transpose_is_the_permuting_lane_einsum(spec, lanes):
    # the same values, up to the sign of a zero at structurally zero entries
    # (±0.0 here), which lane_einsum makes +0.0, and the same pattern
    rng = np.random.default_rng([lanes, len(spec), 11])
    for _ in range(4):
        (x,), (pattern,) = _patterned_operands(spec, lanes, rng)
        operand = geometry.Patterned(np.moveaxis(x, 0, -1), pattern)
        got, want = operand.transpose(spec), lane_einsum(spec, operand)
        assert got.values.shape == want.values.shape
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.pattern, want.pattern)
        nonzero = got.values[want.pattern]
        assert nonzero.tobytes() == want.values[want.pattern].tobytes()
        assert not got.values[~want.pattern].any()
        assert not lanes or np.shares_memory(got.values, operand.values)  # a view, no copy


def test_a_contraction_with_no_term_is_zero_and_patterned_zero():
    g = geometry.Patterned(np.ones((2, 2, 5)), np.eye(2, dtype=bool))
    b = geometry.Patterned(np.full((2, 2, 2, 5), -0.0), np.zeros((2, 2, 2), dtype=bool))
    for got in (lane_einsum("is,ijk->jsk", g, b), lane_einsum("ijk->kji", b)):
        assert got.values.shape == (2, 2, 2, 5) and not got.pattern.any()
        assert not got.values.any() and not np.signbit(got.values).any()
    # an index of size zero: nothing to gather, every entry zero
    got = lane_einsum("aij->ij", np.zeros((0, 2, 2, 5)))
    assert got.shape == (2, 2, 5) and not got.any()


@pytest.mark.parametrize("rows", [0, 1, 2, 5])
def test_worst_row_is_the_rule_of_the_loop_over_rows(rows):
    rng = np.random.default_rng(rows)
    lanes = 400
    raw = rng.integers(0, 3, (rows, lanes)).astype(float)  # many ties
    raw[rng.random(raw.shape) < 0.1] = np.nan
    scale = rng.random((rows, lanes))
    want = (np.zeros(lanes), np.ones(lanes))
    for r, s in zip(raw, scale):
        want = oracle.keep_worst(want, r, s)
    got = _worst(raw, scale)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("build", [df.build_H2_hat, df.build_H3_hat])
def test_fused_tail_kernels_are_the_loop_over_tails_bit_for_bit(build):
    op = build()
    plan = plan_for(op.dim, 4)
    points = plan.points(np.arange(plan.count))
    g = eval_tape(compile_tape(op.local.g.entries, op.dim, 2), points)
    usable = np.flatnonzero(metric_status(g).usable)
    frames = metric_frames(g, usable)
    tails = eval_tape(compile_tape(tuple(w.entries for w in op.tails), op.dim, 1), points)
    lanes_last = [geometry.Patterned.dense(x) for x in tails.at(usable)[:2]]
    got = tail_residuals(frames, op.tails, *lanes_last)
    first = [np.moveaxis(x.values, -1, 0) for x in
             (frames.g_lo, frames.gamma, frames.riemann_up, frames.dgamma, *lanes_last)]
    want = oracle.tail_residuals_by_tail(*first[:4], op.tails, *first[4:])
    assert sorted(got) == sorted(want)
    for key in want:
        for g_, w_ in zip(got[key], want[key]):
            assert g_.tobytes() == w_.tobytes(), key


def test_gauss_tail_sum_at_a_point_is_one_lane_of_the_batch():
    op = df.build_H2_hat()
    plan = plan_for(op.dim, 2)
    points = plan.points(np.arange(5))
    tails = eval_tape(compile_tape(tuple(w.entries for w in op.tails), op.dim, 0), points)
    pattern = tails.patterns[0]
    batch = operators.gauss_tail_sum(op.tails, geometry.Patterned(tails.vals, pattern))
    for lane in range(5):
        one = geometry.Patterned(tails.vals[..., lane:lane + 1], pattern)
        alone = operators.gauss_tail_sum(op.tails, one)
        assert alone[..., 0].tobytes() == np.ascontiguousarray(batch[..., lane]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_tail_sum_is_the_loop_over_tails(n):
    # one signed contraction sums in another order than the loop: within
    # 4 eps sum_a max|w_a|^2 per lane for dense tails (2.1 eps at worst over
    # these 210 stacks), and the loop's doubles, up to the sign of a zero,
    # for diagonal tails and for one tail
    rng = np.random.default_rng([n, 31])
    lanes, eps = 16, np.finfo(float).eps
    for _ in range(70):
        count = int(rng.integers(2, 5))
        tails = [SimpleNamespace(sign=int(s)) for s in rng.choice([-1, 1], count)]
        w = rng.standard_normal((lanes, count, n, n))
        w *= 10.0 ** rng.uniform(-3, 3, (lanes, count, 1, 1))
        got = np.moveaxis(operators.gauss_tail_sum(
            tails, geometry.Patterned.dense(np.moveaxis(w, 0, -1))), -1, 0)
        gap = np.abs(got - oracle.gauss_tail_sum_by_tail(tails, w)).reshape(lanes, -1).max(1)
        assert (gap <= 4 * eps * (np.abs(w).max((2, 3)) ** 2).sum(1)).all()
        diagonal = w * np.eye(n)
        for stack, pattern, signs in [(diagonal, np.eye(n, dtype=bool), tails),
                                      (diagonal, np.ones((n, n), dtype=bool), tails),
                                      (w[:, :1], np.ones((n, n), dtype=bool), tails[:1])]:
            values = geometry.Patterned(np.moveaxis(stack, 0, -1),
                                        np.broadcast_to(pattern, stack.shape[1:]))
            got = np.moveaxis(operators.gauss_tail_sum(signs, values), -1, 0)
            want = oracle.gauss_tail_sum_by_tail(signs, stack)
            assert np.abs(got).tobytes() == np.abs(want).tobytes()


# -- grids compiled once per operator --------------------------------------------------------


@pytest.fixture
def compiled(monkeypatch):
    calls = []

    def counted(entries, dim, order):
        calls.append((dim, order))
        return compile_tape(entries, dim, order)

    monkeypatch.setattr(operators, "compile_tape", counted)
    return calls


def test_each_operator_compiles_its_grids_once(compiled):
    nonlocal_op, local_op = df.build_H2_hat(), df.build_nutku(1)
    runs = [lambda: check_ferapontov(nonlocal_op, plan_for(3, 1)),
            lambda: check_local_hamiltonian(local_op, plan_for(2, 1)),
            lambda: operators.check_skew_adjoint(local_op, plan_for(2, 1))]
    first = []
    for run in runs:
        before = len(compiled)
        first.append(run().to_dict())
        assert len(compiled) > before
    total = len(compiled)
    # g at orders 2 and 1, b once, the tails at order 1
    assert sorted(compiled) == sorted([(3, 2), (3, 0), (3, 1), (2, 2), (2, 0), (2, 1)])
    assert [run().to_dict() for run in runs] == first
    assert len(compiled) == total


def test_a_plan_of_another_dimension_fails_as_before(compiled):
    op = df.build_nutku(1)
    assert check_local_hamiltonian(op, plan_for(2, 1)).passed
    total = len(compiled)
    for check in (check_local_hamiltonian, operators.check_skew_adjoint):
        for _ in range(2):  # the plan is checked before any grid is compiled or read
            with pytest.raises(ValueError, match="sample plan of dimension 1 for an operator "
                                                 "of dimension 2"):
                check(op, default_plan(1))
            with pytest.raises(ValueError, match="sample plan of dimension 3 for an operator "
                                                 "of dimension 2"):
                check(op, default_plan(3))
    with pytest.raises(ValueError, match="sample plan of dimension 4 for an operator "
                                         "of dimension 3"):
        check_ferapontov(df.build_H2_hat(), default_plan(4))
    assert len(compiled) == total
    assert check_local_hamiltonian(op, plan_for(2, 1)).passed


def test_a_smaller_plan_raises_instead_of_giving_a_verdict():
    # g = diag(1 + u1^2, 1) uses u1 only, so its grids would compile over one
    # variable as well and a one-dimensional plan would get a verdict (a wrong
    # one: metric_flat fails there); the plan's dimension is checked first
    u1, _ = variables(2)
    zero = const(0)
    probe = LocalOperator(2, MetricField(2, ((1 + u1 * u1, zero), (zero, const(1)))),
                          ConnectionField(2, (((zero,) * 2,) * 2,) * 2))
    flat = {c.cid: c for c in check_local_hamiltonian(probe, default_plan(2)).conditions}
    assert flat["metric_flat"].passed and flat["metric_flat"].residual == 0.0
    for check in (check_local_hamiltonian, operators.check_skew_adjoint):
        with pytest.raises(ValueError, match="sample plan of dimension 1 for an operator "
                                             "of dimension 2"):
            check(probe, default_plan(1))


# -- derivatives formed where they are read ----------------------------------------------


def _grids_of_every_kind():
    """(name, TapeValues at 100 plan points) of plain grids at orders 0-2 and
    of pencil members."""
    for name, op in [("h2-hat", df.build_H2_hat()), ("h3-hat", df.build_H3_hat())]:
        points = plan_for(op.dim, 3).points(np.arange(100))
        for order in (0, 1, 2):
            yield f"{name} g@{order}", eval_tape(compile_tape(op.local.g.entries, op.dim, order),
                                                 points)
        yield f"{name} tails@1", eval_tape(
            compile_tape(tuple(w.entries for w in op.tails), op.dim, 1), points)
    for name, a, b in cases.pencil_pairs():
        points = plan_for(a.dim, 3).points(np.arange(100))
        for order in (0, 2):
            yield f"{name}@{order}", geometry.pencil_values(
                compile_tape((a.g.entries, b.g.entries), a.dim, order), points, cases.LAMBDAS)


@pytest.mark.parametrize("lanes", [[], [0], [5, 2, 99, 2], list(range(0, 100, 3)),
                                   list(range(100)), list(range(99, -1, -1)),
                                   list(range(99)) + [98]])
def test_derivatives_at_lanes_are_the_sliced_derivatives_bit_for_bit(lanes):
    for name, grid in _grids_of_every_kind():
        # the values are a view of the coefficients, with the bits at() forms
        assert np.shares_memory(grid.vals, grid.coeffs), name
        assert grid.vals.tobytes() == np.ascontiguousarray(grid.at()[0]).tobytes(), name
        at = grid.at(np.array(lanes, dtype=int))
        # read in place at every lane in order only (a pencil grid has 500)
        every = lanes == list(range(grid.coeffs.shape[-1]))
        assert np.shares_memory(at[0], grid.coeffs) == every, name
        for part, got, full in zip(("vals", "d1", "d2"), at, grid.at()):
            if full is None:
                assert got is None, (name, part)
                continue
            want = np.take(full, lanes, axis=-1)
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(
                want).tobytes(), (name, part)


def test_a_frame_round_forms_no_derivative_at_every_lane(monkeypatch):
    # only metric_frames and the tails' kernels read derivatives, at the lanes they build
    rounds, original = [], operators._frame_round
    monkeypatch.setattr(operators, "_frame_round",
                        lambda table, tails, g, b, w: rounds.append([g, b, *w])
                        or original(table, tails, g, b, w))
    reads, at = [], TapeValues.at
    monkeypatch.setattr(TapeValues, "at",
                        lambda self, lanes=None: reads.append((self, lanes)) or at(self, lanes))
    check_ferapontov(df.build_H2_hat(), plan_for(3, 1))
    operators.check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2), cases.LAMBDAS,
                                         plan_for(2, 1))
    assert len(rounds) > 2
    in_rounds = [lanes for values, lanes in reads
                 if any(values is grid for grids in rounds for grid in grids)]
    assert in_rounds and all(lanes is not None for lanes in in_rounds)
    assert all(lanes is not None for _, lanes in reads)


def test_a_nonlocal_check_of_256_points_peaks_below_3_mib():
    # a round whose lanes all resolve copies no jets, and the Gauss tail sum
    # forms no (tails, n^4) array: the peak is 2.48 MiB
    op, plan = df.build_H2_hat(), df.drift_plan(count=256, seed=1)
    first = check_ferapontov(op, plan).to_dict()
    tracemalloc.start()
    try:
        assert check_ferapontov(op, plan).to_dict() == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20
