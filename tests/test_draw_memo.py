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
from hydroham.operators import check_pencil_compatibility
from hydroham.sampling import RESAMPLE_BUDGET, SamplePlan

from cases import LAMBDAS, run_cli_json

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
        computed.extend((seed, int(k), retry) for k in np.broadcast_to(i, lanes))
        return uniforms(entropy, lanes, dim)

    def counted_points(self, indices, retry=0):
        rows = points(self, indices, retry)
        requested.extend((id(self), int(i), retry) for i in np.asarray(indices).reshape(-1))
        return rows

    monkeypatch.setattr(sampling, "_uniforms", counted_uniforms)
    monkeypatch.setattr(SamplePlan, "points", counted_points)
    return computed, requested


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


def test_a_partly_drawn_request_computes_only_the_rows_it_lacks(draws):
    computed, _ = draws
    plan = SamplePlan(2, BOX[:2], count=100, seed=6)
    plan.points(range(10), 2)
    for indices, lacking in (([12, 5, 10, 12, 9, 11], 3), (range(8, 14), 1), ([13, 11, 10, 12], 0)):
        before = len(computed)
        assert np.array_equal(plan.points(list(indices), 2), formula(plan, indices, 2))
        assert len(computed) == before + lacking


def test_a_first_request_with_repeats_computes_each_row_once(draws):
    # a chunk's first request skips the dedupe only when its indices ascend
    computed, _ = draws
    plan = SamplePlan(2, BOX[:2], count=100, seed=6)
    for indices, retry in (([5, 5, 2, 5], 0), ([9, 4, 7], 1), ([3, 8], 2)):
        before = len(computed)
        assert np.array_equal(plan.points(indices, retry), formula(plan, indices, retry))
        assert sorted(computed[before:]) == [(6, i, retry) for i in sorted(set(indices))]


# -- (c) request order -----------------------------------------------------------------------


def test_rows_come_back_in_request_order():
    plan = SamplePlan(2, BOX[:2], count=1000, seed=5)
    plan.points([3, 300, 600, 999], 1)  # part of the memo already drawn
    orders = ([999, 0, 255, 256, 256, 511, 512, 3, 768, 767, 3, 999],
              list(np.random.default_rng(1).permutation(1000)) + [0, 0, 999, 511])
    for indices in orders:
        assert np.array_equal(plan.points(indices, 1), formula(plan, indices, 1))
        assert np.array_equal(plan.points(np.array(indices), 1), formula(plan, indices, 1))


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
