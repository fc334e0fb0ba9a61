"""The report builder ``reports.walk_report`` as a property: on random
per-point (raw, scale) rows with zeros, NaN and infinities, walked with
redraws, every condition is the one a plain-Python reading of the verdict
rule gives: residual max |raw| / max(1, scale) over the resolved points,
witness the first point of that maximum (none when it is 0), a pass iff the
residual is within tolerance, and for a NaN or infinite value residual None,
the first such point as witness and a note counting them."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroham.reports import walk_report
from hydroham.sampling import SamplePlan

from test_lockstep import BASE, PAIR_OF

SPECIAL = (math.nan, math.inf, -math.inf)
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
KINDS = {
    "zero": st.sampled_from([0.0, -0.0]),
    "finite": FINITE,
    "special": st.one_of(FINITE, st.sampled_from(SPECIAL)),
}


def per_point(draw, count: int, values) -> list:
    """``count`` values, each one of a few drawn from ``values``: one byte
    per point picks it, which draws far faster than a value per point."""
    pool = draw(st.lists(values, min_size=1, max_size=8))
    return [pool[b % len(pool)] for b in draw(st.binary(min_size=count, max_size=count))]


@st.composite
def walked_rows(draw):
    """(count, per point the retry at which it resolves, tolerance, rows of
    (raw, scale) lists with one value per point)."""
    count = draw(st.integers(1, BASE.count))
    redraws = per_point(draw, count, st.integers(0, 2))
    tolerance = draw(st.one_of(st.sampled_from([1e-9, 1.0]),
                               st.floats(1e-12, 10.0, allow_nan=False)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        raw = per_point(draw, count, KINDS[draw(st.sampled_from(list(KINDS)))])
        scale = per_point(draw, count, KINDS[draw(st.sampled_from(["finite", "special"]))])
        rows.append((raw, scale))
    if draw(st.booleans()):  # a residual exactly at the tolerance passes
        residual = reference(*rows[0], [None] * count, tolerance)[0]
        tolerance = residual if residual else tolerance
    return count, redraws, tolerance, rows


def reference(raw, scale, points, tolerance):
    """(residual, witness, passed, note) of one row, point by point."""
    bad = [i for i, (r, s) in enumerate(zip(raw, scale))
           if not (math.isfinite(r) and math.isfinite(s))]
    if bad:
        return None, points[bad[0]], False, f"non-finite value at {len(bad)} of {len(raw)} points"
    norm = [abs(r) / max(1.0, s) for r, s in zip(raw, scale)]
    worst = max(norm)
    witness = None if worst == 0.0 else points[norm.index(worst)]
    return worst, witness, worst <= tolerance, None


@settings(max_examples=200, deadline=None)
@given(walked_rows())
def test_each_condition_follows_the_verdict_rule(case):
    count, redraws, tolerance, rows = case
    plan = SamplePlan(1, BASE.box, count=count, seed=BASE.seed, tolerance=tolerance)
    arrays = [(np.array(raw), np.array(scale)) for raw, scale in rows]

    def evaluate(points):  # point i is rejected until its retry redraws[i]
        lanes = [PAIR_OF[float(p[0])] for p in points]
        index = np.array([i for i, _ in lanes])
        status = np.array([2 if r < redraws[i] else 0 for i, r in lanes])
        return status, tuple(a[index] for pair in arrays for a in pair)

    table = tuple((f"row{k}", f"row {k} of the table") for k in range(len(rows)))
    rep, found = walk_report("rows", table, plan, evaluate)
    points = [(float(plan.point(i, redraws[i])[0]),) for i in range(count)]
    assert rep.title == "rows" and rep.plan == plan
    assert [tuple(p) for p in found.points.tolist()] == points
    assert [(c.cid, c.description) for c in rep.conditions] == list(table)
    for cond, (raw, scale) in zip(rep.conditions, rows):
        assert (cond.residual, cond.witness, cond.passed, cond.note) == \
            reference(raw, scale, points, tolerance)
