"""The per-point callers on batched tapes (currents, conjugacy, the reciprocal
denominator scan, wave and constraint residuals, field comparisons, and the
frame checks where b or a tail leaves its domain) against per-point reference
loops built on the recursive evaluator of ``oracle``: the same draws, the
same verdicts and residuals up to roundoff, and the same errors at the same
first failing point."""

from __future__ import annotations

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from hydroham import cli, operators, sampling, systems
from hydroham import driftflux as df
from hydroham.errors import (
    DegenerateMetricError,
    EvalDomainError,
    HostileDomainError,
    VanishingDenominatorError,
)
from hydroham.exprs import compile_tape, const, eval_tape, exp, fields_equal_numeric, variables
from hydroham.geometry import AffinorField, ConnectionField, MetricField, metric_frame, scaled_abs_det
from hydroham.operators import (
    LocalOperator,
    NonlocalOperator,
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, SamplePlan, default_plan, resolve
from hydroham.systems import (
    ConservedCurrent,
    HydroSystem,
    PointChangeMap,
    build_reciprocal_system,
    check_change_of_variables,
    check_conserved_current,
    reciprocal_transform_system,
)

from oracle import eval_jet, eval_scalar

RESIDUAL_REL = 1e-9


class CountingPlan(SamplePlan):
    """A plan that records every (i, retry) it draws, row by row: for a range
    of retries, retry after retry, each retry's indices in request order;
    and each call, as (number of indices, retry or range of retries)."""

    def points(self, indices, retry=0):
        indices = [int(i) for i in indices]
        retries = retry if isinstance(retry, range) else (retry,)
        self.__dict__.setdefault("drawn", []).extend((i, q) for q in retries for i in indices)
        self.__dict__.setdefault("calls", []).append((len(indices), retry))
        return super().points(indices, retry)


def counting(plan: SamplePlan) -> CountingPlan:
    return CountingPlan(plan.dim, plan.box, plan.count, plan.seed, plan.tolerance, plan.floor)


def redraw_loop(plan, evaluate, retriable=(EvalDomainError,)):
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
            raise HostileDomainError(i)
    return out


def walk_rounds(draw_counts, count: int, block: int | None = None) -> list:
    """The rounds of one walk of ``resolve`` over a plan of ``count`` points in
    blocks of ``block`` (``sampling.BLOCK`` unless given), as (first plan
    index of the block, retries, points), from ``draw_counts[i]``: the draws
    the per-point redraw loop makes of point i, which resolves at its last
    draw unless that is retry RESAMPLE_BUDGET.  A round after one that
    resolved nothing is the block's last: it asks for every retry left."""
    block = sampling.BLOCK if block is None else block
    rounds = []
    for start in range(0, count, block):
        todo, r, span = list(range(start, min(start + block, count))), 0, 1
        while todo and r <= RESAMPLE_BUDGET:
            rounds.append((start, range(r, r + span), todo))
            if span > 1:
                break
            left = [i for i in todo if draw_counts[i] > r + 1]
            span = RESAMPLE_BUDGET - r if len(left) == len(todo) else 1
            todo, r = left, r + 1
    return rounds


def resolve_requests(loop_draws, count: int) -> list:
    """The (i, retry) pairs ``resolve`` asks ``SamplePlan.points`` for, sorted,
    on a plan of ``count`` points where the per-point redraw loop draws the
    (i, retry) pairs ``loop_draws``."""
    counts = Counter(i for i, _ in loop_draws)
    return sorted((i, q) for _, retries, points in walk_rounds(counts, count)
                  for q in retries for i in points)


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


# -- SamplePlan.points ------------------------------------------------------------------


_M64, _G = 2**64 - 1, 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def splitmix_bits(seed: int, i: int, retry: int, dim: int) -> list:
    """The 53-bit integers 2**53 u[d] of plan point i at draw ``retry``, in
    Python ints: the seed's 64-bit words folded into a key, low word first,
    then top 53 bits of mix(mix(mix(key + i G) + retry G) + (d + 1) G)."""
    key = 0
    while True:
        key = _mix(key + _G + (seed & _M64) & _M64)
        seed >>= 64
        if not seed:
            break
    lane = _mix(_mix(key + i * _G & _M64) + retry * _G & _M64)
    return [_mix(lane + (d + 1) * _G & _M64) >> 11 for d in range(dim)]


def formula(plan: SamplePlan, indices, retry: int) -> np.ndarray:
    """Plan points ``indices`` at draw ``retry``, one per-point formula each."""
    lo, hi = np.array(plan.box).T
    rows = [lo + (hi - lo) * (np.array(splitmix_bits(plan.seed, int(i), retry, plan.dim)) * 2.0 ** -53)
            for i in indices]
    return np.array(rows).reshape(-1, plan.dim)


# 2**53 u of plan point (seed, i, retry) at dim 2
KNOWN_BITS = {
    (0, 0, 0): (0x059d0135c03956, 0x0f249581fdad19),
    (0, 0, 16): (0x0b685a31dbe669, 0x0630cf5bc18457),
    (0, 2**63, 0): (0x145a5f973bf645, 0x19a00f9c972ddd),
    (0, 2**63, 16): (0x18c5aa69460d7f, 0x1b2848ef073be5),
    (0, 2**64 - 1, 0): (0x00369101490391, 0x0fa939dce78f42),
    (0, 2**64 - 1, 16): (0x1292c1e0104649, 0x10896da851e249),
    (2**64 + 99, 0, 0): (0x148bfe47ab8e2a, 0x007c34eba39d9d),
    (2**64 + 99, 0, 16): (0x19b78e37da4db3, 0x162e1b99a94b9b),
    (2**64 + 99, 2**63, 0): (0x11d2de134c0fef, 0x02e2455a56356e),
    (2**64 + 99, 2**63, 16): (0x1ba05bc0b6159f, 0x0f981198a002e4),
    (2**64 + 99, 2**64 - 1, 0): (0x06d9ecf061fb1d, 0x1a66625fa7e234),
    (2**64 + 99, 2**64 - 1, 16): (0x03f19615bcc0f2, 0x0c3a0c70116214),
    (2**100 + 12345, 0, 0): (0x14c2a92a62c1f0, 0x1e6e6de2d8e4fa),
    (2**100 + 12345, 0, 16): (0x1fe5176cb7b3ed, 0x01d35f4cc6fefd),
    (2**100 + 12345, 2**63, 0): (0x16e8e31f161cc1, 0x14b6afa2b83351),
    (2**100 + 12345, 2**63, 16): (0x1cf7f45505d119, 0x0dda074a9358dd),
    (2**100 + 12345, 2**64 - 1, 0): (0x15d70f4baee87e, 0x1e02565e9f9954),
    (2**100 + 12345, 2**64 - 1, 16): (0x0bf23cf76da356, 0x10148044f8e574),
}


@pytest.mark.parametrize("seed,i,retry", sorted(KNOWN_BITS))
def test_plan_points_are_the_known_answers(seed, i, retry):
    box = ((-0.5, 0.25), (-1.5, 2.25))
    want = np.array(KNOWN_BITS[seed, i, retry]) * 2.0 ** -53
    lo, hi = np.array(box).T
    assert np.array_equal(SamplePlan(2, ((0.0, 1.0),) * 2, seed=seed).point(i, retry), want)
    assert np.array_equal(SamplePlan(2, box, seed=seed).points([i], retry)[0], lo + (hi - lo) * want)
    assert splitmix_bits(seed, i, retry, 2) == list(KNOWN_BITS[seed, i, retry])


# seeds of one, two and three 64-bit words; indices near 0, 2**32, 2**53, 2**63 and 2**64
DRAW_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 99, 2**100 + 12345)
DRAW_INDICES = (list(range(200)) + [2**32 - 1 - k for k in range(25)]
                + [2**32 + k for k in range(15)] + [2**40 + 7, 2**53 + 1, 2**63 - 1, 2**63,
                                                     2**64 - 2, 2**64 - 1, 3**40, 5**27, 7**22, 11**18])


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_plan_points_are_a_pure_function_of_seed_index_and_retry(seed):
    # the per-point formula at every (index, retry), bit for bit, whatever the
    # split or order of the request, and point(i, r) == points([i], r)[0]
    order = np.random.default_rng(seed % 2**32).permutation(len(DRAW_INDICES))
    for dim in (1, 3):
        plan = SamplePlan(dim, ((-0.5, 0.25), (-1.5, 2.25), (0.0, 1.0))[:dim], seed=seed)
        for retry in (0, 1, 7, RESAMPLE_BUDGET):
            got = plan.points(DRAW_INDICES, retry)
            assert got.tobytes() == formula(plan, DRAW_INDICES, retry).tobytes(), (dim, retry)
            shuffled = plan.points([DRAW_INDICES[k] for k in order], retry)
            assert shuffled.tobytes() == got[order].tobytes()
            split = np.concatenate([plan.points(DRAW_INDICES[at:at + 37], retry)
                                    for at in range(0, len(DRAW_INDICES), 37)])
            assert split.tobytes() == got.tobytes()
            for k in (0, 201, 249):
                assert plan.point(DRAW_INDICES[k], retry).tobytes() == got[k].tobytes()


RETRY_RANGES = (range(0, 1), range(0, RESAMPLE_BUDGET + 1), range(5, 17), range(16, 0, -5),
                range(2**64 - 3, 2**64))


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_a_range_of_retries_is_the_per_retry_calls_stacked(seed):
    # rows retry after retry, each retry's in request order, byte for byte
    plan = SamplePlan(3, ((-0.5, 0.25), (-1.5, 2.25), (0.0, 1.0)), seed=seed)
    indices = DRAW_INDICES[190:215] + [DRAW_INDICES[-1], 0, 0, 7]
    for retries in RETRY_RANGES:
        want = np.concatenate([plan.points(indices, q) for q in retries])
        assert plan.points(indices, retries).tobytes() == want.tobytes(), retries
        assert plan.points(np.array(indices, dtype=np.uint64), retries).tobytes() == want.tobytes()
        assert plan.points([], retries).shape == (0, 3)
    stacked = np.concatenate([formula(plan, indices, q) for q in RETRY_RANGES[2]])
    assert plan.points(indices, RETRY_RANGES[2]).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("seed", sorted({seed for seed, _, _ in KNOWN_BITS}))
def test_a_range_of_retries_gives_the_known_answers(seed):
    indices = sorted({i for s, i, _ in KNOWN_BITS if s == seed})
    rows = SamplePlan(2, ((0.0, 1.0),) * 2, seed=seed).points(indices, range(0, 17, 16))
    want = [KNOWN_BITS[seed, i, retry] for retry in (0, 16) for i in indices]
    assert np.array_equal(rows, np.array(want) * 2.0 ** -53)


def test_plan_points_fill_each_tenth_of_the_box_evenly():
    # 10**5 draws per coordinate: each of 10 bins within 5% of its 10**4
    plan = SamplePlan(3, ((0.0, 1.0), (-1.0, 1.0), (2.0, 7.0)), count=10**5, seed=8128)
    rows = plan.points(np.arange(plan.count))
    for d, (lo, hi) in enumerate(plan.box):
        counts, _ = np.histogram(rows[:, d], bins=10, range=(lo, hi))
        assert counts.sum() == 10**5
        assert np.all(np.abs(counts - 10**4) <= 500), (d, counts)


def test_plan_points_raise_no_warning_when_warnings_are_errors():
    # the uint64 products wrap in arrays, where numpy does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**64 - 1, 2**100 + 12345):
            plan = SamplePlan(2, ((0.0, 1.0),) * 2, seed=seed)
            for retry in (0, RESAMPLE_BUDGET, 2**64 - 1):
                plan.points([0, 2**63, 2**64 - 1], retry)
                plan.points(np.arange(300), retry)
                plan.point(2**64 - 1, retry)
            plan.points([0, 2**63, 2**64 - 1], range(2**64 - RESAMPLE_BUDGET, 2**64))


BOX = ((-0.5, 0.25), (-1.5, 2.25), (0.0, 1.0))


def test_rows_come_back_in_request_order_in_a_fresh_array():
    plan = SamplePlan(2, BOX[:2], count=1000, seed=5)
    orders = ([999, 0, 255, 256, 256, 511, 512, 3, 768, 767, 3, 999],
              list(np.random.default_rng(1).permutation(1000)) + [0, 0, 999, 511])
    for indices in orders:
        assert np.array_equal(plan.points(indices, 1), formula(plan, indices, 1))
        assert np.array_equal(plan.points(np.array(indices), 1), formula(plan, indices, 1))
    first = plan.points([7, 3], 2)
    first[:] = -9.0  # a caller's write reaches no other caller
    plan.point(7, 2)[:] = -9.0
    assert np.array_equal(plan.points([7, 3], 2), formula(plan, [7, 3], 2))
    assert plan.points([], 2).shape == (0, 2)


BAD_CALLS = {
    "negative retry": (lambda p: p.points([1], -1), "retry"),
    "float retry": (lambda p: p.points([1], 1.0), "retry"),
    "bool retry": (lambda p: p.points([1], True), "retry"),
    "retry of 2**64": (lambda p: p.points([1], 2**64), "retry"),
    "negative retry of point": (lambda p: p.point(1, -1), "retry"),
    "retry range from -1": (lambda p: p.points([1], range(-1, 3)), "retry"),
    "falling retry range to -1": (lambda p: p.points([1], range(3, -2, -1)), "retry"),
    "retry range to 2**64": (lambda p: p.points([1], range(2**64 - 2, 2**64 + 1)), "retry"),
    "float index": (lambda p: p.points([1.5]), "plan index"),
    "float index array": (lambda p: p.points(np.array([0.0, 1.0])), "plan index"),
    "float index of point": (lambda p: p.point(1.5), "plan index"),
    "bool index": (lambda p: p.points([0, True]), "plan index"),
    "bool index of point": (lambda p: p.point(False), "plan index"),
    "negative index": (lambda p: p.points([-1]), "plan index"),
    "negative index array": (lambda p: p.points(np.array([2, -1])), "plan index"),
    "negative index of point": (lambda p: p.point(-1), "plan index"),
    "index of 2**64": (lambda p: p.points([0, 2**64]), "plan index"),
    "index of 2**64 of point": (lambda p: p.point(2**64), "plan index"),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_points_reject_an_index_or_retry_that_is_not_an_integer_at_least_zero(case):
    call, what = BAD_CALLS[case]
    plan = SamplePlan(2, BOX[:2], count=10, seed=3)
    with pytest.raises(ValueError, match=f"^{what} must be an integer >= 0"):
        call(plan)


def test_points_reject_an_empty_range_of_retries():
    plan = SamplePlan(2, BOX[:2], count=10, seed=3)
    for retries in (range(0), range(3, 3), range(3, 5, -1)):
        with pytest.raises(ValueError, match="^a retry range must hold a retry"):
            plan.points([1], retries)


def test_an_index_below_2_to_the_64_still_draws():
    plan = SamplePlan(2, BOX[:2], count=10, seed=3)
    big = [2**63, 2**64 - 1]
    assert plan.points(big).tobytes() == formula(plan, big, 0).tobytes()
    assert plan.points(np.array(big, dtype=np.uint64)).tobytes() == formula(plan, big, 0).tobytes()


@pytest.mark.parametrize("seed", [-1, True, 1.0, "7", None])
def test_plan_rejects_a_seed_that_is_not_an_integer_at_least_zero(seed):
    with pytest.raises(ValueError, match="seed"):
        SamplePlan(1, ((-1.0, 1.0),), seed=seed)


def test_plan_arrays_stay_out_of_equality_and_echo():
    a, b = default_plan(2, seed=3), default_plan(2, seed=3)
    a.points(range(50))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert set(a.echo()) == {"dim", "box", "count", "seed", "tolerance", "floor"}
    assert {k for k in vars(a) if k.startswith("_")} == {"_lo", "_hi", "_key"}


# -- resolve ---------------------------------------------------------------------------------


def _pair_causes(base):
    """(evaluate, cause, pair_of): an evaluator over ``base`` that rejects
    chosen (i, retry) pairs, its table of causes, and the pair of each drawn
    value.  Point 7 is always rejected for a cause other than the domain,
    point 40 leaves the domain until retry 3, point 52 alternates the two
    causes."""
    pair_of = {float(p[0]): (i, r) for r in range(RESAMPLE_BUDGET + 1)
               for i, p in enumerate(base.points(range(base.count), r))}
    cause = {7: lambda r: 2, 40: lambda r: 1 if r < 3 else 0, 52: lambda r: 1 + r % 2}

    def evaluate(points):
        pairs = [pair_of[float(p[0])] for p in points]
        return np.array([cause.get(i, lambda r: 0)(r) for i, r in pairs]), (points[:, 0] * 2.0,)

    return evaluate, cause, pair_of


def test_resolve_records_every_draw_and_applies_the_exhaustion_rule():
    base = SamplePlan(1, ((0.0, 1.0),), count=60, seed=2)
    budget = range(RESAMPLE_BUDGET + 1)
    evaluate, cause, pair_of = _pair_causes(base)
    plan = counting(base)
    found = resolve(plan, evaluate)
    want = sorted([(i, 0) for i in range(60) if i not in cause]
                  + [(7, r) for r in budget] + [(40, r) for r in range(4)] + [(52, r) for r in budget])
    # round 1 resolves none of points 7, 40 and 52, so round 2, the last, asks
    # for retries 2 to 16 of all three at once; point 40 keeps its draws up to
    # retry 3, where it resolves
    asked = sorted([(i, 0) for i in range(60) if i not in cause]
                   + [(i, r) for i in (7, 40, 52) for r in budget])
    assert sorted(plan.drawn) == asked == resolve_requests(want, 60)
    assert [pair_of[float(p[0])] for p in found.draws] == want
    assert [pair_of[float(p[0])] for p in found.points] == \
        [(i, 3 if i == 40 else 0) for i in range(60) if i not in (7, 52)]
    assert np.array_equal(found.payload[0], found.points[:, 0] * 2.0)
    assert np.array_equal(found.rows[0], found.draws[:, 0] * 2.0)
    assert list(found.unresolved) == [7, 52]
    assert np.count_nonzero(found.status == 2) == len(budget) + len(budget) // 2

    cause[30] = cause[45] = lambda r: 1  # every draw of these points leaves the domain
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 30$"):
        resolve(plan, evaluate)


@pytest.mark.parametrize("block", [1, 7, 25, 256])
def test_resolve_is_the_same_for_every_block_size(monkeypatch, block):
    base = SamplePlan(1, ((0.0, 1.0),), count=60, seed=2)
    evaluate, cause, _ = _pair_causes(base)
    reference = counting(base)
    want = resolve(reference, evaluate)
    monkeypatch.setattr(sampling, "BLOCK", block)
    plan = counting(base)
    got = resolve(plan, evaluate)
    for name in ("points", "draws", "status", "unresolved"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got.payload + got.rows, want.payload + want.rows, strict=True):
        assert np.array_equal(a, b)
    assert sorted(plan.drawn) == sorted(reference.drawn)
    cause[45] = cause[30] = lambda r: 1  # every draw of these points leaves the domain
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 30$"):
        resolve(plan, evaluate)


def test_a_point_that_only_leaves_the_domain_still_raises_at_its_index():
    # round 0 resolves points 0-19, round 1 resolves nothing, so round 2 is
    # the last and asks for retries 2 to 16 at once; points 33 and 37 leave
    # the domain at every draw, the others of 20-39 are rejected for another cause
    base = SamplePlan(1, ((0.0, 1.0),), count=40, seed=2)
    pair_of = {float(p[0]): (i, r) for r in range(RESAMPLE_BUDGET + 1)
               for i, p in enumerate(base.points(range(40), r))}
    calls = []

    def evaluate(points):
        calls.append(len(points))
        index = np.array([pair_of[float(p[0])][0] for p in points])
        status = np.where(index < 20, 0, np.where(np.isin(index, (33, 37)), REDRAW_DOMAIN, 2))
        return status, (points[:, 0],)

    plan = counting(base)
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 33$"):
        resolve(plan, evaluate)
    assert calls == [40, 20, 20 * (RESAMPLE_BUDGET - 1)]
    assert sorted(plan.drawn) == sorted([(i, 0) for i in range(20)]
                                        + [(i, q) for i in range(20, 40) for q in range(17)])


MUTANTS = {name: op for name, _, op in df.mutation_catalog()}


@pytest.mark.parametrize("count,blocks", [(100, 1), (1000, 4)])
def test_an_identically_degenerate_block_costs_two_draw_and_two_evaluator_calls(
        monkeypatch, count, blocks):
    # round 0 resolves nothing, so round 1, the last, draws retries 1 to 16 in
    # one call and evaluates them in one call
    calls = []

    def spy(plan, evaluate):
        def counted(points):
            calls.append(len(points))
            return evaluate(points)
        return resolve(plan, counted)

    monkeypatch.setattr(operators, "resolve", spy)
    plan = counting(df.drift_plan(count=count, seed=3))
    rep = check_local_hamiltonian(MUTANTS["h1-theta Theta = 0 (degenerate)"], plan)
    assert not rep.passed
    sizes = [min(sampling.BLOCK, count - start) for start in range(0, count, sampling.BLOCK)]
    assert len(sizes) == blocks
    assert calls == [n for size in sizes for n in (size, RESAMPLE_BUDGET * size)]
    assert plan.calls == [(size, retries) for size in sizes
                          for retries in (range(0, 1), range(1, RESAMPLE_BUDGET + 1))]
    assert sorted(plan.drawn) == [(i, q) for i in range(count) for q in range(RESAMPLE_BUDGET + 1)]


# seeds of the hostile current below: at the first, every round of its walk
# resolves some point; at the second, a round resolves none, so the next is the last
EVERY_ROUND_RESOLVES_SEED, A_ROUND_RESOLVES_NOTHING_SEED = 1, 2


@pytest.mark.parametrize("seed", [EVERY_ROUND_RESOLVES_SEED, A_ROUND_RESOLVES_NOTHING_SEED])
def test_a_walk_asks_for_every_retry_left_only_after_a_round_that_resolved_nothing(seed):
    # ln(u1 + 0.5) and sqrt(u2 + 0.5) leave their domains at about 44% of draws
    u1, u2 = variables(2)
    s = HydroSystem(2, ((parse_expr("sqrt(u2 + 0.5)", 2), u1), (u2, parse_expr("-u1", 2))))
    c = ConservedCurrent(parse_expr("ln(u1 + 0.5) + u2", 2), u1 * u2)
    plan = counting(SamplePlan(2, HOSTILE_BOX, count=60, seed=seed))
    check_conserved_current(s, c, plan)
    reference = counting(plan)
    _current_reference(s, c, reference)
    assert sorted(plan.drawn) == resolve_requests(reference.drawn, plan.count)
    rounds = [{i for i, q in plan.drawn if q == r} for r in range(RESAMPLE_BUDGET + 1)]
    last = next((r for r in range(1, RESAMPLE_BUDGET + 1) if rounds[r] and rounds[r] == rounds[r - 1]),
                None)
    assert (last is None) == (seed == EVERY_ROUND_RESOLVES_SEED)
    assert (sorted(plan.drawn) == sorted(reference.drawn)) == (last is None)
    if last is not None:  # the last round asks for its points at every retry left
        assert all(rounds[q] == rounds[last] for q in range(last, RESAMPLE_BUDGET + 1))
        assert all(rounds[r] > rounds[r + 1] for r in range(last - 1))


def test_reports_are_the_same_for_every_block_size(monkeypatch):
    def runs(drift, plane):
        return [json.dumps(check_ferapontov(df.build_H2_hat(), drift).to_dict()),
                # the lambda = -1 member of this pencil is degenerate everywhere
                json.dumps(check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2),
                                                      (-2.0, -1.0, 0.5), plane).to_dict())]

    def fresh():
        return df.drift_plan(count=30, seed=4), df.plane_plan(count=30, seed=4)

    reused = fresh()  # plans whose draws every earlier block size already holds
    want = runs(*reused)
    for block in (1, 7, 25, 256):
        monkeypatch.setattr(sampling, "BLOCK", block)
        assert runs(*fresh()) == want, block
        assert runs(*reused) == want, block


def test_reports_are_the_same_for_every_frame_batch(monkeypatch):
    # frames built 1 lane, 7 lanes or a whole evaluator call at a time, at
    # n = 2, 3 and 5 and on a pencil whose lambda = -1 is degenerate everywhere
    from test_operators import _constant_curvature

    h = 0.9 / np.sqrt(5)
    box5 = default_plan(5, [(-h, h)] * 5, count=30, seed=2)
    plane, drift = df.plane_plan(count=30, seed=2), df.drift_plan(count=30, seed=2)
    theta = df.build_H1_Theta(df.R3), df.build_H1_Theta(const(1))
    runs = [(2, lambda: check_local_hamiltonian(df.build_nutku(1), plane)),
            (3, lambda: check_ferapontov(df.build_H2_hat(), drift)),
            (5, lambda: check_ferapontov(_constant_curvature(5, [1]), box5)),
            (5, lambda: check_ferapontov(_constant_curvature(5, [-1]), box5)),
            (3, lambda: check_pencil_compatibility(*theta, (-2.0, -1.0, 0.5), drift))]
    want = [json.dumps(run().to_dict()) for _, run in runs]
    assert '"lambda=-1.0:degenerate"' in want[-1]
    for lanes in (1, 7, RESAMPLE_BUDGET * sampling.BLOCK):
        for (n, run), doc in zip(runs, want):
            monkeypatch.setattr(operators, "FRAME_ENTRIES", lanes * n**4)
            assert json.dumps(run().to_dict()) == doc, (n, lanes)


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

    return redraw_loop(plan, evaluate, (EvalDomainError, DegenerateMetricError))


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
                          resolve_requests(reference.drawn, plan.count))
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


OVERFLOW_BOX = ((0.1, 1.0),)


def _order_0_overflows(text: str, plan) -> int:
    """How many of the plan's first draws overflow the order-0 tape of the
    expression ``text`` in u1, a power its order-1 jets do not flag: those
    draws are kept, not redrawn."""
    e = parse_expr(text, 1)
    values = eval_tape(compile_tape((e,), 1, 0), plan.points(np.arange(plan.count)))
    assert {values.error(lane).reason for lane in np.flatnonzero(values.failed)} == {
        "overflow in power"}
    return int(np.count_nonzero(values.failed))


def test_a_tail_power_that_overflows_fails_as_non_finite():
    # the tail conditions read the tails' values from their order-1 jets, so
    # the draws past u1 = 0.887, where w = exp(400*u1)^2 overflows, are not
    # redrawn; the Codazzi residual, d_1 w = 800 exp(400*u1)^2, overflows from
    # u1 = 0.879 and the Gauss one, w^2, from u1 = 0.444
    one, zero, w = (parse_expr(text, 1) for text in ("1", "0", "exp(400*u1)^2"))
    local = LocalOperator(1, MetricField(1, ((one,),)), ConnectionField(1, (((zero,),),)))
    plan = counting(SamplePlan(1, OVERFLOW_BOX, seed=1))
    rep = check_ferapontov(NonlocalOperator(local, (AffinorField(1, 1, ((w,),)),)), plan)
    assert all(r == 0 for _, r in plan.drawn)
    notes = {c.cid: c.note for c in rep.conditions if not c.passed}
    overflows = {"t1_pairing_symmetric": "exp(400*u1)^2",
                 "t2_codazzi": "(sqrt(800)*exp(400*u1))^2",
                 "t3_gauss": "exp(400*u1)^4"}
    assert notes == {cid: f"non-finite value at {_order_0_overflows(text, plan)} of 100 points"
                     for cid, text in overflows.items()}
    assert 0 < _order_0_overflows("exp(400*u1)^2", plan) < 100


# -- conserved currents, conjugacy and the reciprocal transform ------------------------------


HOSTILE_BOX = ((-1.0, 1.0), (-1.0, 1.0))


def _current_reference(s, c, plan):
    def evaluate(p):
        grad_rho = eval_jet(c.rho, p, 1).gradient()
        grad_sigma = eval_jet(c.sigma, p, 1).gradient()
        transport = grad_rho @ s.speeds(p)
        return (np.max(np.abs(transport + grad_sigma)),
                max(np.max(np.abs(transport)), np.max(np.abs(grad_sigma))))

    return redraw_loop(plan, evaluate)


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
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn),
                          resolve_requests(reference.drawn, plan.count))
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

    want = worst(redraw_loop(plan, evaluate))
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

    want = worst(redraw_loop(reference, evaluate))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn),
                          resolve_requests(reference.drawn, plan.count))
    assert any(r > 0 for _, r in plan.drawn)  # ln(rho1 + rho2) leaves its domain
    assert bool(singular) == (floor == 0.3)
    assert rep.notes == (["singular Jacobian encountered; point redrawn"] if singular else [])


def test_a_map_power_that_overflows_fails_as_non_finite():
    # the check maps points through the map's order-1 jets, so the draws
    # where m = exp(400*u1)^2 overflows are not redrawn; the conjugacy
    # residual's v_new(m) J = m * 800 exp(400*u1)^2 overflows from u1 = 0.439
    (u1,) = variables(1)
    s, m = HydroSystem(1, ((u1,),)), PointChangeMap((parse_expr("exp(400*u1)^2", 1),))
    plan = counting(SamplePlan(1, OVERFLOW_BOX, seed=1))
    rep = check_change_of_variables(s, s, m, plan)
    assert 0 < _order_0_overflows("exp(400*u1)^2", plan) < 100
    assert all(r == 0 for _, r in plan.drawn)
    assert not rep.passed
    overflows = _order_0_overflows("(800^(1/4)*exp(400*u1))^4", plan)
    assert rep.conditions[0].note == f"non-finite value at {overflows} of 100 points"


def _denominator_reference(s, c1, plan):
    """The per-point scan: redraw where a field leaves its domain, raise at
    the first resolved point where the denominator is bad."""
    n, sign_seen = s.dim, 0

    def evaluate(p):
        nonlocal sign_seen
        d = eval_scalar(c1.sigma, p) * np.eye(n) - eval_scalar(c1.rho, p) * s.speeds(p)
        if scaled_abs_det(d) < 1e-6:
            raise VanishingDenominatorError(
                f"denominator field vanishes near {tuple(float(x) for x in p)}")
        sign = 1 if np.linalg.det(d) > 0 else -1
        if sign_seen == 0:
            sign_seen = sign
        elif sign != sign_seen:
            raise VanishingDenominatorError(
                f"denominator field vanishes inside the box (sign change near "
                f"{tuple(float(x) for x in p)})")
        return sign

    return redraw_loop(plan, evaluate)


DENOMINATOR_BOX = ((-0.7, 0.7), (-0.7, 0.7), (0.1, 1.0))


@pytest.mark.parametrize("rho,sigma", [("0", "0"), ("1", "0"), ("0", "u1"), ("ln(u1)", "1"),
                                       ("1", "u3 - 0.55")])
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
    assert sorted(plan.drawn) == resolve_requests(reference.drawn, plan.count)
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
    want = worst(redraw_loop(reference, lambda p: _wave_sample(psi, p)))
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

    want = worst(redraw_loop(reference, evaluate))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn),
                          resolve_requests(reference.drawn, plan.count))
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

    want = worst(redraw_loop(reference, evaluate))
    assert_same_condition(rep.conditions[0], want, sorted(plan.drawn),
                          resolve_requests(reference.drawn, plan.count))


def test_field_comparison_hostile_message():
    plan = SamplePlan(1, ((-1.0, 1.0),), count=5, seed=7)
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 0$"):
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
