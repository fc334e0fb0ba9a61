"""The walk rule of ``sampling.resolve_walks`` as a property: on random status
tables over (i, retry), for one to four walks in lockstep, every walk's
``Resolved`` is the per-point redraw loop's, byte for byte; the walks of a
round that ask for the same draws draw them with one ``SamplePlan.points``
call, and the round evaluates every walk's draws, walk after walk, in calls
of ``RESAMPLE_BUDGET`` x ``BLOCK`` lanes, the round's last call holding the
rest, each call handed every draw its lanes read once per set of draws; a
round draws several retries only after a round of the walk that resolved
nothing."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroham import sampling
from hydroham.errors import HostileDomainError
from hydroham.sampling import REDRAW_DOMAIN, RESAMPLE_BUDGET, SamplePlan, resolve_walks

from test_batched_callers import counting
from test_lockstep import PAIR_OF, assert_same_resolved, lockstep, one_walk, round_layout

RETRIES = RESAMPLE_BUDGET + 1
MAX_COUNT = 60  # the points PAIR_OF names
BASE = SamplePlan(1, ((0.0, 1.0),), count=MAX_COUNT, seed=2)
VALUES = np.stack([BASE.points(range(MAX_COUNT), q)[:, 0] for q in range(RETRIES)], axis=1)
assert set(PAIR_OF.values()) == {(i, q) for i in range(MAX_COUNT) for q in range(RETRIES)}


@st.composite
def walks_of_a_plan(draw):
    """(plan count, block size, one (count, RETRIES) status table per walk)."""
    count = draw(st.integers(1, MAX_COUNT))
    block = draw(st.sampled_from([1, 7, 256]))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        table = np.full((count, RETRIES), draw(st.sampled_from([0, 0, 2])))  # some walks degenerate
        point = st.integers(0, count - 1)
        # per point: the first retry that resolves (RETRIES: none), the causes
        # before it and the statuses after it, each repeated over the retries
        special = draw(st.dictionaries(point, st.tuples(
            st.integers(0, RETRIES),
            st.lists(st.sampled_from([REDRAW_DOMAIN, 2]), min_size=1, max_size=3),
            st.lists(st.sampled_from([0, REDRAW_DOMAIN, 2]), min_size=1, max_size=3)),
            max_size=12))
        for i, (k, before, after) in special.items():
            table[i] = [before[q % len(before)] if q < k else 0 if q == k else after[q % len(after)]
                        for q in range(RETRIES)]
        for i in draw(st.one_of(st.just([]), st.lists(point, max_size=2))):
            table[i] = REDRAW_DOMAIN  # leaves the domain at every draw
        tables.append(table)
    return count, block, tables


def causes(table) -> dict:
    """A status table as the causes ``test_lockstep.one_walk`` reads."""
    return {i: (lambda r, row=row: int(row[r])) for i, row in enumerate(table)}


def per_point_loop(tables, count: int, block: int) -> list:
    """Each walk's Resolved by the per-point redraw loop, or the plan index
    HostileDomainError names: at the end of the first block in which some
    walk has a point that left the domain at every draw, the first such
    point of the first such walk."""
    found = []
    for start in range(0, count, block):
        for table in tables:
            for i in range(start, min(start + block, count)):
                if (table[i] == REDRAW_DOMAIN).all():
                    return i
    for w, table in enumerate(tables):
        pairs = []
        for i in range(count):
            resolves = np.flatnonzero(table[i] == 0)
            pairs += [(i, q) for q in range(resolves[0] + 1 if resolves.size else RETRIES)]
        draws = np.array([[VALUES[i, q]] for i, q in pairs])
        status, rows = one_walk(causes(table), w)(draws)
        ok = status == 0
        unresolved = np.array([i for i in range(count) if not (table[i] == 0).any()], dtype=np.int64)
        found.append(sampling.Resolved(draws[ok], tuple(a[ok] for a in rows), draws, status, rows,
                                       unresolved))
    return found


def assert_last_rounds_follow_a_round_that_resolved_nothing(lanes, table, block):
    """A lane past its point's first resolving draw (speculative) is drawn
    only in a block's last round, which starts at a retry r >= 1 after a
    round of the walk that resolved no point of the block, and evaluates the
    same points at every retry from r to RESAMPLE_BUDGET."""
    first = [int(np.argmax(row == 0)) if (row == 0).any() else RETRIES for row in table]
    at = {}  # block -> the points evaluated at each retry
    for i, q in lanes:
        at.setdefault(i // block, [set() for _ in range(RETRIES)])[q].add(i)
    for points in at.values():
        speculative = [q for q in range(RETRIES) for i in points[q] if q > first[i]]
        if not speculative:
            continue
        last = next(r for r in range(1, RETRIES) if points[r] and points[r] == points[r - 1])
        assert min(speculative) >= last
        assert not any(first[i] == last - 1 for i in points[last - 1])
        assert all(points[q] == points[last] for q in range(last, RETRIES))


@settings(max_examples=100, deadline=None)
@given(walks_of_a_plan())
def test_resolve_walks_is_the_per_point_loop(example):
    count, block, tables = example
    want = per_point_loop(tables, count, block)
    plan = counting(SamplePlan(1, BASE.box, count=count, seed=BASE.seed))
    calls, rows, evaluated, drawn_before = [], [], [], []
    walks = lockstep([causes(table) for table in tables], calls, rows)

    def evaluate(points, runs):
        drawn_before.append(len(plan.drawn))
        evaluated.extend((w, *PAIR_OF[float(p[0])]) for w, s in runs for p in points[s])
        return walks(points, runs)

    with mock.patch.object(sampling, "BLOCK", block):
        if isinstance(want, int):
            with pytest.raises(HostileDomainError,
                               match=f"^domain too hostile at sample point {want}$"):
                resolve_walks(plan, evaluate, len(tables))
            got = None
        else:
            got = resolve_walks(plan, evaluate, len(tables))
    assert max(calls) <= RESAMPLE_BUDGET * block
    # a round is the calls made after the same draws: its lanes are every
    # walk's draws, walk after walk, in calls of RESAMPLE_BUDGET x BLOCK
    # lanes, the round's last call holding the rest, and what it drew is
    # each distinct walk's draws once, in the order of the first walk
    step, at, before = RESAMPLE_BUDGET * block, 0, 0
    for mark in sorted(set(drawn_before)):
        sizes = [n for m, n in zip(drawn_before, calls) if m == mark]
        lanes, at = evaluated[at:at + sum(sizes)], at + sum(sizes)
        assert sizes == [min(step, len(lanes) - k) for k in range(0, len(lanes), step)]
        assert [w for w, _, _ in lanes] == sorted(w for w, _, _ in lanes)
        per_walk, distinct = {}, []
        for w, i, q in lanes:
            per_walk.setdefault(w, []).append((i, q))
        for draws in per_walk.values():
            if draws not in distinct:
                distinct.append(draws)
        assert sum(distinct, []) == plan.drawn[before:mark]
        before = mark
    assert before == len(plan.drawn)
    for w, table in enumerate(tables):
        lanes = [(i, q) for v, i, q in evaluated if v == w]
        assert_last_rounds_follow_a_round_that_resolved_nothing(lanes, table, block)
    if got is None:
        return
    for g, f in zip(got, want, strict=True):
        assert_same_resolved(g, f)
    # the draws, calls and draws handed to each call of every round are the
    # walk rule's
    assert (plan.drawn, calls, rows) == round_layout(want, block, count)
