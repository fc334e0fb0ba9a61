"""The draw memo of ``SamplePlan.points``: each (i, retry) of a plan object is
computed once, however many walks ask for it, and every row handed out is
the seeded formula bit for bit, in request order, in a fresh array.  Also
the input checks that keep a bad index or retry out of the memo."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from hydroham import driftflux as df
from hydroham import sampling
from hydroham.errors import HostileDomainError
from hydroham.exprs import variables
from hydroham.operators import check_local_hamiltonian, check_pencil_compatibility
from hydroham.parsing import parse_expr
from hydroham.sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, SamplePlan, resolve
from hydroham.systems import ConservedCurrent, HydroSystem, check_conserved_current

from cases import LAMBDAS, run_cli_json
from test_batched_callers import DRAW_SEEDS, HOSTILE_BOX

GOLDEN_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
BOX = ((-0.5, 0.25), (-1.5, 2.25), (0.0, 1.0))


def formula(plan: SamplePlan, indices, retry: int) -> np.ndarray:
    lo, hi = np.array(plan.box).T
    return np.array([lo + (hi - lo) * np.random.default_rng((plan.seed, i, retry)).random(plan.dim)
                     for i in indices])


@pytest.fixture
def draws(monkeypatch):
    """Lanes the kernel computes, as (seed, i, retry), and lanes callers
    request through SamplePlan.points, as (plan, i, retry)."""
    computed, requested = [], []
    uniforms, points = sampling._uniforms, SamplePlan.points

    def counted_uniforms(entropy, lanes, dim):
        seed, *words, retry = entropy  # seeds and retries below 2**32: one word each
        i = sum(np.asarray(w, dtype=object) << 32 * k for k, w in enumerate(words))
        computed.extend((seed, int(k), int(q))
                        for k, q in zip(np.broadcast_to(i, lanes), np.broadcast_to(retry, lanes)))
        return uniforms(entropy, lanes, dim)

    def counted_points(self, indices, retry=0):
        rows = points(self, indices, retry)
        requested.extend((id(self), int(i), retry) for i in np.asarray(indices).reshape(-1))
        return rows

    monkeypatch.setattr(sampling, "_uniforms", counted_uniforms)
    monkeypatch.setattr(SamplePlan, "points", counted_points)
    return computed, requested


@pytest.fixture
def kernel_calls(draws, monkeypatch):
    """The draws fixture's lists, and a one-item list counting calls of the kernel."""
    calls = [0]
    uniforms = sampling._uniforms

    def counted_uniforms(entropy, lanes, dim):
        calls[0] += 1
        return uniforms(entropy, lanes, dim)

    monkeypatch.setattr(sampling, "_uniforms", counted_uniforms)
    return (*draws, calls)


# -- (a) each distinct (i, retry) once per request -------------------------------------------


def test_pencil_computes_each_draw_once(draws):
    computed, requested = draws
    check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2), LAMBDAS,
                               df.plane_plan(count=100, seed=1))
    assert len(requested) == 3700  # five walks of one plan, as without the memo
    assert len(computed) == len(set(computed)) == len(set(requested)) == 1700


def test_kg_family_computes_each_draw_once(draws):
    computed, requested = draws
    got = run_cli_json(["preset", "kg-family", "--k=2", "--seed", "1"])
    with open(GOLDEN_CLI, encoding="utf-8") as fh:
        golden = json.load(fh)["preset kg-family --k=2 @ seed 1"]
    assert got["draws"] == golden["draws"] == len(requested) == 600  # six walks of one plan
    assert len(computed) == len(set(computed)) == len(set(requested)) == 100


# -- (b) memo hits are the formula, bit for bit ---------------------------------------------


def test_memo_hits_are_the_seeded_formula(draws):
    computed, _ = draws
    plan = SamplePlan(3, BOX, count=300, seed=11)
    indices = [0, 7, 299, 255, 256, 100]
    for retry in (0, 3, RESAMPLE_BUDGET):
        first = plan.points(indices, retry)
        first[:] = -9.0  # a caller's write reaches no other caller
        plan.point(7, retry)[:] = -9.0
        before = len(computed)
        hit = plan.points(indices, retry)
        assert len(computed) == before  # every row from the memo
        assert np.array_equal(hit, SamplePlan(3, BOX, count=300, seed=11).points(indices, retry))
        assert np.array_equal(hit, formula(plan, indices, retry))
        assert np.array_equal(plan.point(7, retry), hit[1])


def test_a_partly_drawn_request_is_drawn_whole(kernel_calls):
    # a request the memo cannot serve whole is one kernel call over every
    # requested row, in request order; one it holds every row of is a gather
    computed, _, calls = kernel_calls
    plan = SamplePlan(2, BOX[:2], count=100, seed=6)
    plan.points(range(10), 2)
    for indices, drawn in (([12, 5, 10, 12, 9, 11], True), (range(8, 14), True),
                           ([13, 11, 10, 12], False)):
        before, called = len(computed), calls[0]
        assert np.array_equal(plan.points(list(indices), 2), formula(plan, indices, 2))
        assert computed[before:] == ([(6, i, 2) for i in indices] if drawn else [])
        assert calls[0] == called + drawn


def test_a_first_request_with_repeats_is_drawn_in_request_order(kernel_calls):
    # repeats included, and kept: the same request again is a gather
    computed, _, calls = kernel_calls
    plan = SamplePlan(2, BOX[:2], count=100, seed=6)
    for indices, retry in (([5, 5, 2, 5], 0), ([9, 4, 7], 1), ([3, 8], 2)):
        before, called = len(computed), calls[0]
        assert np.array_equal(plan.points(indices, retry), formula(plan, indices, retry))
        assert computed[before:] == [(6, i, retry) for i in indices]
        assert np.array_equal(plan.points(indices, retry), formula(plan, indices, retry))
        assert len(computed) == before + len(indices) and calls[0] == called + 1


# -- (c) request order -----------------------------------------------------------------------


def test_rows_come_back_in_request_order():
    plan = SamplePlan(2, BOX[:2], count=1000, seed=5)
    plan.points([3, 300, 600, 999], 1)  # part of the memo already drawn
    orders = ([999, 0, 255, 256, 256, 511, 512, 3, 768, 767, 3, 999],
              list(np.random.default_rng(1).permutation(1000)) + [0, 0, 999, 511])
    for indices in orders:
        assert np.array_equal(plan.points(indices, 1), formula(plan, indices, 1))
        assert np.array_equal(plan.points(np.array(indices), 1), formula(plan, indices, 1))


def test_indices_far_apart_draw_only_their_own_chunks(draws):
    # a request visits the memo chunks its indices fall in, not every chunk between
    computed, _ = draws
    plan = SamplePlan(2, BOX[:2], count=2**33, seed=4)
    indices = [0, 2**33 - 1, 2**32 + 5]
    assert plan.points(indices).tobytes() == formula(plan, indices, 0).tobytes()
    assert sorted(plan._memo) == [(0, 0), (2**24, 0), (2**25 - 1, 0)]
    assert sorted(computed) == sorted((4, i, 0) for i in indices)


# -- (d) only plan draws are kept -------------------------------------------------------------


@pytest.mark.parametrize("indices,retry",
                         [([0, 100], 0), ([2**40], 0), ([5, 6], RESAMPLE_BUDGET + 1)])
def test_draws_outside_the_plan_are_not_kept(draws, indices, retry):
    computed, _ = draws
    plan = SamplePlan(1, ((0.0, 1.0),), count=100, seed=2)
    for calls in (1, 2):
        assert np.array_equal(plan.points(indices, retry), formula(plan, indices, retry))
        assert len(computed) == calls * len(indices)
    plan.points([0], 0)
    assert len(computed) == 2 * len(indices) + 1


# -- (e) the memo is not part of the plan's value --------------------------------------------


def test_memo_stays_out_of_equality_and_replace(draws):
    computed, _ = draws
    used, fresh = SamplePlan(3, BOX, seed=4), SamplePlan(3, BOX, seed=4)
    used.points(range(50), 0)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and used.echo() == fresh.echo()
    for copy in (dataclasses.replace(used), dataclasses.replace(used, tolerance=1e-6)):
        before = len(computed)
        copy.points(range(50), 0)
        assert len(computed) == before + 50


# -- bad indices and retries ------------------------------------------------------------------


BAD_CALLS = {
    "negative retry": (lambda p: p.points([1], -1), "retry"),
    "float retry": (lambda p: p.points([1], 1.0), "retry"),
    "bool retry": (lambda p: p.points([1], True), "retry"),
    "negative retry of point": (lambda p: p.point(1, -1), "retry"),
    "float index": (lambda p: p.points([1.5]), "plan index"),
    "float index array": (lambda p: p.points(np.array([0.0, 1.0])), "plan index"),
    "float index of point": (lambda p: p.point(1.5), "plan index"),
    "negative index": (lambda p: p.points([-1]), "plan index"),
    "negative index array": (lambda p: p.points(np.array([2, -1])), "plan index"),
    "negative index of point": (lambda p: p.point(-1), "plan index"),
    "index of 2**64": (lambda p: p.points([0, 2**64]), "plan index"),
    "index of 2**64 of point": (lambda p: p.point(2**64), "plan index"),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_points_reject_an_index_or_retry_that_is_not_an_integer_at_least_zero(case):
    # as np.random.default_rng((seed, i, retry)) does, so no bad value reaches the memo
    call, what = BAD_CALLS[case]
    plan = SamplePlan(2, BOX[:2], count=10, seed=3)
    with pytest.raises(ValueError, match=f"^{what} must be an integer >= 0"):
        call(plan)


def test_an_index_below_2_to_the_64_still_draws():
    plan = SamplePlan(2, BOX[:2], count=10, seed=3)
    big = [2**63, 2**64 - 1]
    assert plan.points(big).tobytes() == formula(plan, big, 0).tobytes()


# -- (f) drawing ahead after a round that resolved nothing ------------------------------------


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("retry", [1, 9, RESAMPLE_BUDGET])
def test_the_fill_is_the_seeded_formula_at_every_later_retry(monkeypatch, seed, retry):
    # indices of one and two entropy words, across three memo chunks
    plan = SamplePlan(2, BOX[:2], count=2**33, seed=seed)
    indices = [0, 1, 255, 256, 2**32 - 3, 2**32 - 1, 2**32, 2**32 + 2, 2**33 - 1]
    plan._prefetch(indices, retry)
    assert sorted(plan._memo) == sorted((c, q) for c in (0, 1, 2**24 - 1, 2**24, 2**25 - 1)
                                        for q in range(retry, RESAMPLE_BUDGET + 1))
    monkeypatch.setattr(sampling, "_uniforms", None)  # every row below from the memo
    for q in range(retry, RESAMPLE_BUDGET + 1):
        got = np.concatenate([plan.points([i], q) for i in indices])  # one request per chunk
        assert got.tobytes() == formula(plan, indices, q).tobytes(), q


def test_the_fill_draws_only_plan_rows_the_memo_lacks(kernel_calls):
    computed, _, calls = kernel_calls
    plan = SamplePlan(2, BOX[:2], count=100, seed=6)
    plan.points([1, 2], 5)
    plan._prefetch([0, 1, 2, 3], 4)
    assert calls[0] == 2
    assert sorted(computed[2:]) == sorted({(6, i, q) for i in range(4) for q in range(4, 17)}
                                          - {(6, 1, 5), (6, 2, 5)})
    before = len(computed)
    plan._prefetch([0, 1, 2, 3], 3)  # only retry 3 is new
    plan._prefetch([1, 2], 7)
    plan._prefetch([5, 99, 100, 2**40], RESAMPLE_BUDGET)
    plan._prefetch([5], RESAMPLE_BUDGET + 1)
    assert sorted(computed[before:]) == [(6, i, 3) for i in range(4)] + [(6, 5, 16), (6, 99, 16)]
    assert calls[0] == 4
    assert sorted(plan._memo) == [(0, q) for q in range(3, 17)]


MUTANTS = {name: op for name, _, op in df.mutation_catalog()}


@pytest.mark.parametrize("count,blocks", [(100, 1), (1000, 4)])
def test_an_identically_degenerate_block_costs_two_kernel_calls(kernel_calls, count, blocks):
    # round 0 resolves nothing, so round 1 fills retries 1 to 16 in one call
    computed, requested, calls = kernel_calls
    rep = check_local_hamiltonian(MUTANTS["h1-theta Theta = 0 (degenerate)"],
                                  df.drift_plan(count=count, seed=3))
    assert not rep.passed
    assert calls[0] == 2 * blocks
    assert len(computed) == len(set(computed)) == len(set(requested)) == count * 17
    assert {(i, q) for _, i, q in computed} == {(i, q) for _, i, q in requested}


def test_a_pencil_with_degenerate_lambdas_draws_in_two_calls(kernel_calls):
    # lambda = -1 fills every retry; lambda = 1 finds them in the memo
    computed, requested, calls = kernel_calls
    check_pencil_compatibility(df.build_nutku(1), df.build_nutku(2), LAMBDAS,
                               df.plane_plan(count=100, seed=1))
    assert calls[0] == 2
    assert len(computed) == len(set(computed)) == len(set(requested)) == 1700


@pytest.mark.parametrize("seed", [1, 5])
def test_a_walk_computes_ahead_only_after_a_round_that_resolved_nothing(draws, seed):
    # ln(u1 + 0.5) and sqrt(u2 + 0.5) leave their domains at about 44% of draws:
    # at seed 1 every round resolves something; at seed 5 round 5 resolves nothing
    computed, requested = draws
    u1, u2 = variables(2)
    s = HydroSystem(2, ((parse_expr("sqrt(u2 + 0.5)", 2), u1), (u2, parse_expr("-u1", 2))))
    c = ConservedCurrent(parse_expr("ln(u1 + 0.5) + u2", 2), u1 * u2)
    check_conserved_current(s, c, SamplePlan(2, HOSTILE_BOX, count=60, seed=seed))
    rounds = [sorted(i for _, i, q in requested if q == r) for r in range(RESAMPLE_BUDGET + 1)]
    ahead = set()
    for r in range(1, RESAMPLE_BUDGET + 1):
        if rounds[r] and rounds[r] == rounds[r - 1]:
            ahead = {(seed, i, q) for i in rounds[r] for q in range(r, RESAMPLE_BUDGET + 1)}
            break
    assert bool(ahead) == (seed == 5)
    assert len(computed) == len(set(computed))
    assert set(computed) == {(seed, i, q) for _, i, q in requested} | ahead


def test_a_point_that_only_leaves_the_domain_still_raises_at_its_index(kernel_calls):
    # round 0 resolves points 0-19, round 1 resolves nothing, so round 2 draws
    # ahead; points 33 and 37 leave the domain at every draw, the others of
    # 20-39 are rejected for another cause
    *_, calls = kernel_calls
    plan = SamplePlan(1, ((0.0, 1.0),), count=40, seed=2)
    pair_of = {float(p[0]): (i, r) for r in range(RESAMPLE_BUDGET + 1)
               for i, p in enumerate(plan.points(range(40), r))}

    def evaluate(points):
        index = np.array([pair_of[float(p[0])][0] for p in points])
        status = np.where(index < 20, 0, np.where(np.isin(index, (33, 37)), REDRAW_DOMAIN, 2))
        return status, (points[:, 0],)

    calls[0] = 0
    with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 33$"):
        resolve(SamplePlan(1, ((0.0, 1.0),), count=40, seed=2), evaluate)
    assert calls[0] == 3  # rounds 0 and 1, then retries 2 to 16 at once
