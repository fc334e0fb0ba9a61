"""Walks in lockstep: ``sampling.resolve_walks`` against one ``resolve`` per
walk, and the pencil check, which walks every lambda of a pair at once,
against the local check of each ``pencil_operator`` member."""

from __future__ import annotations

import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hydroham import driftflux as df
from hydroham import geometry, operators, sampling
from hydroham.errors import HostileDomainError
from hydroham.exprs import compile_tape, const, eval_tape
from hydroham.geometry import pencil_values
from hydroham.parsing import parse_expr
from hydroham.operators import (
    check_local_hamiltonian,
    check_pencil_compatibility,
    pencil_operator,
)
from hydroham.reports import CheckReport, ConditionResult
from hydroham.sampling import RESAMPLE_BUDGET, SamplePlan, resolve, resolve_walks

import cases
from test_batched_callers import counting, resolve_requests, walk_rounds

BASE = SamplePlan(1, ((0.0, 1.0),), count=60, seed=2)
PAIR_OF = {float(p[0]): (i, r) for r in range(RESAMPLE_BUDGET + 1)
           for i, p in enumerate(BASE.points(range(BASE.count), r))}

# per walk, (i, retry) -> status of the draws that do not resolve at once
EVERY_WALK_RESOLVES = (
    {7: lambda r: 2 if r < 16 else 0, 40: lambda r: 1 if r < 3 else 0, 52: lambda r: 1 + r % 2},
    {},
    {11: lambda r: 2 if r < 5 else 0, 12: lambda r: 1 if r < 2 else 0},
)
DEGENERATE = lambda r: 2  # noqa: E731  (rejected at every draw, for a cause besides the domain)
ONE_WALK_DEGENERATE = EVERY_WALK_RESOLVES[:2] + (dict.fromkeys(range(60), DEGENERATE),)
HOSTILE = lambda r: 1  # noqa: E731  (leaves the domain at every draw)
# points 30 and 45 leave the domain at every draw of every walk
WITH_A_HOSTILE_POINT = tuple({**causes, 30: HOSTILE, 45: HOSTILE}
                             for causes in ONE_WALK_DEGENERATE)
TABLES = {"every walk resolves": EVERY_WALK_RESOLVES,
          "one walk identically degenerate": ONE_WALK_DEGENERATE,
          "a hostile point": WITH_A_HOSTILE_POINT}


def one_walk(causes: dict, w: int):
    """The evaluator of walk ``w`` alone, with two payload arrays."""
    def evaluate(points):
        status = np.array([causes.get(i, lambda r: 0)(r)
                           for i, r in (PAIR_OF[float(p[0])] for p in points)], dtype=int)
        return status, (points[:, 0] * (w + 2.0), np.outer(points[:, 0], [1.0, -float(w)]))
    return evaluate


def lockstep(tables, calls: list):
    """The evaluator of every walk at once; records the lanes of each call."""
    walks = [one_walk(causes, w) for w, causes in enumerate(tables)]

    def evaluate(points, walk):
        calls.append(len(points))
        status = np.empty(len(points), dtype=int)
        rows = (np.empty(len(points)), np.empty((len(points), 2)))
        for w in np.unique(walk):
            lanes = walk == w
            st, payload = walks[w](points[lanes])
            status[lanes] = st
            for out, part in zip(rows, payload):
                out[lanes] = part
        return status, rows
    return evaluate


def assert_same_resolved(got, want):
    for name in ("points", "draws", "status", "unresolved"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(got.payload + got.rows, want.payload + want.rows, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [1, 7, 256])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_walks_in_lockstep_are_walks_one_by_one(monkeypatch, table, block):
    monkeypatch.setattr(sampling, "BLOCK", block)
    tables = TABLES[table]
    hostile = table == "a hostile point"
    singles, drawn = [], []
    for w, causes in enumerate(tables):
        plan = counting(BASE)
        if hostile:
            with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 30$"):
                resolve(plan, one_walk(causes, w))
        else:
            singles.append(resolve(plan, one_walk(causes, w)))
        drawn += plan.drawn

    plan, calls = counting(BASE), []
    if hostile:
        with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 30$"):
            resolve_walks(plan, lockstep(tables, calls), len(tables))
        assert plan.drawn  # the walks got as far as the block that holds point 30
        return
    got = resolve_walks(plan, lockstep(tables, calls), len(tables))
    assert len(got) == len(singles)
    for g, want in zip(got, singles):
        assert_same_resolved(g, want)
    # the same draws asked for
    assert sorted(plan.drawn) == sorted(drawn)
    # the pairs asked for are those of the walk rule; each round's lanes go in
    # calls of RESAMPLE_BUDGET x BLOCK lanes, the round's last call holding
    # the rest
    asked = [resolve_requests([PAIR_OF[float(p[0])] for p in r.draws], BASE.count) for r in got]
    assert sorted(plan.drawn) == sorted(sum(asked, []))
    assert max(calls) <= RESAMPLE_BUDGET * block
    assert sum(calls) == sum(map(len, asked))
    assert calls == round_calls(got, block)


def round_calls(found, block: int, count: int = BASE.count) -> list:
    """The lanes of each evaluate call of the walks of ``found`` in lockstep on
    a plan of ``count`` points, in call order, by the walk rule
    (``walk_rounds``): per block and round, the lanes of every walk's round
    in calls of RESAMPLE_BUDGET x ``block`` lanes, the last holding the
    rest."""
    lanes = Counter()
    for r in found:
        counts = Counter(PAIR_OF[float(p[0])][0] for p in r.draws)
        for start, retries, points in walk_rounds(counts, count, block):
            lanes[start, retries[0]] += len(retries) * len(points)
    step = RESAMPLE_BUDGET * block
    return [min(step, lanes[key] - at) for key in sorted(lanes)
            for at in range(0, lanes[key], step)]


# -- the pencil check --------------------------------------------------------------------


def per_lambda_pencil(a, b, lambdas, plan) -> CheckReport:
    """The pencil check as one local check per lambda on ``pencil_operator``."""
    conditions, notes = [], []
    for lam in lambdas:
        sub = check_local_hamiltonian(pencil_operator(a, b, lam), plan)
        if any(c.cid == "metric_nondegenerate" and c.note == "identically degenerate"
               for c in sub.conditions):
            conditions.append(ConditionResult(
                cid=f"lambda={lam}:degenerate",
                description="combined metric identically degenerate; no constraint at this lambda",
                residual=None, witness=None, passed=True, note="skipped"))
            notes.append(f"lambda={lam}: identically degenerate combination skipped")
            continue
        conditions += [ConditionResult(f"lambda={lam}:{c.cid}", c.description, c.residual,
                                       c.witness, c.passed, c.note) for c in sub.conditions]
    return CheckReport(title="pencil compatibility", conditions=conditions, plan=plan,
                       notes=notes)


@pytest.mark.parametrize("seed", cases.SEEDS)
@pytest.mark.parametrize("pair", [name for name, _, _ in cases.pencil_pairs()])
def test_pencil_documents_are_the_per_lambda_checks(pair, seed):
    _, a, b = next(p for p in cases.pencil_pairs() if p[0] == pair)
    plan = cases.plan_for(a.dim, seed)
    got = json.dumps(check_pencil_compatibility(a, b, cases.LAMBDAS, plan).to_dict())
    want = json.dumps(per_lambda_pencil(a, b, cases.LAMBDAS, plan).to_dict())
    assert got == want


@pytest.mark.parametrize("lambdas", [[0, 2, -1], [0.25], (1.5, -0.5, 1.5)])
def test_pencil_documents_for_other_lambdas(lambdas):
    a, b = df.build_nutku(2), df.build_nutku(3)
    plan = df.plane_plan(count=40, seed=9)
    got = check_pencil_compatibility(a, b, lambdas, plan).to_dict()
    assert got == per_lambda_pencil(a, b, lambdas, plan).to_dict()


@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("pair", [name for name, _, _ in cases.pencil_pairs()])
def test_pencil_values_are_the_member_grid(monkeypatch, pair, block):
    # the member formed on tape coefficients, before d2 is scaled, is the
    # grid of the trees g_a + lam g_b, also when the pair runs in batches of
    # BLOCK lanes
    monkeypatch.setattr(sampling, "BLOCK", block)
    _, a, b = next(p for p in cases.pencil_pairs() if p[0] == pair)
    plan = cases.plan_for(a.dim, 3)
    points = plan.points(range(300))
    lam = np.resize(np.array(cases.LAMBDAS), len(points))
    got = pencil_values(compile_tape((a.g.entries, b.g.entries), a.dim, 2), points, lam)
    for x in cases.LAMBDAS:
        lanes = lam == x
        member = pencil_operator(a, b, x).g.entries
        want = eval_tape(compile_tape(member, a.dim, 2), points[lanes])
        for part, g, w in zip(("vals", "d1", "d2"), got.at(), want.at()):
            assert np.array_equal(g[..., lanes], w), part
        assert np.array_equal(got.failed[lanes], want.failed)


@pytest.mark.parametrize("block", [7, 64, 256])
def test_pencil_values_flag_the_lanes_of_the_pair_in_one_run(monkeypatch, block):
    # a pair whose parts leave their domain: in batches, each lane fails at
    # the instruction, and with the error, of the pair run on every lane
    monkeypatch.setattr(sampling, "BLOCK", block)
    u = df.plane_plan(count=1).points(range(300))
    ga = [[parse_expr("sqrt(u1)", 2), parse_expr("0", 2)], [parse_expr("0", 2), parse_expr("1", 2)]]
    gb = [[parse_expr("1", 2), parse_expr("0", 2)], [parse_expr("0", 2), parse_expr("ln(u2)", 2)]]
    pair = compile_tape((ga, gb), 2, 2)
    got, want = pencil_values(pair, u, np.full(len(u), 2.0)), eval_tape(pair, u)
    assert got.failed.any() and not got.failed.all()
    assert np.array_equal(got.first_failure, want.first_failure)
    for lane in np.flatnonzero(got.failed):
        assert str(got.error(lane)) == str(want.error(lane))


@pytest.fixture
def pencil_spy(monkeypatch):
    """The grids a check compiles, and the lanes of each evaluate call of its walks."""
    grids, calls = [], []
    compile_original, walks_original = operators.compile_tape, operators.resolve_walks

    def compile_spy(entries, dim, order):
        grids.append(compile_original(entries, dim, order))
        return grids[-1]

    def walks_spy(plan, evaluate, walks):
        def counted(points, walk):
            calls.append(len(points))
            return evaluate(points, walk)
        return walks_original(plan, counted, walks)

    monkeypatch.setattr(operators, "compile_tape", compile_spy)
    monkeypatch.setattr(operators, "resolve_walks", walks_spy)
    return grids, calls


def test_a_second_check_of_a_pair_compiles_no_grid(pencil_spy):
    grids, _ = pencil_spy
    a, b = df.build_nutku(1), df.build_nutku(3)
    plan = df.plane_plan(count=30, seed=2)
    first = check_pencil_compatibility(a, b, cases.LAMBDAS, plan).to_dict()
    assert len(grids) == 2
    assert check_pencil_compatibility(a, b, cases.LAMBDAS, plan).to_dict() == first
    assert len(grids) == 2
    # another pair of objects, even of the same operators, compiles its own
    check_pencil_compatibility(b, a, cases.LAMBDAS, plan)
    check_pencil_compatibility(a, df.build_nutku(3), cases.LAMBDAS, plan)
    assert len(grids) == 6


def test_a_partner_leaves_no_pencil_grid_behind():
    # the pair grids live as long as the partner: 50 partners checked and
    # dropped leave no entry with the first operator, and next to no memory
    # (each kept entry held about 5.6 KB)
    a, plan = df.build_nutku(1), df.plane_plan(count=10, seed=1)
    check_pencil_compatibility(a, df.build_nutku(2), (0.5,), plan)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            check_pencil_compatibility(a, df.build_nutku(2), (0.5,), plan)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [key for key in a._grids if key[0] == "pencil"] == []
    assert grown < 64 * 1024


@pytest.mark.parametrize("block", [64, 256])
def test_a_pencil_compiles_two_grids_and_evaluates_a_round_in_calls_of_16_blocks(
        monkeypatch, pencil_spy, block):
    monkeypatch.setattr(sampling, "BLOCK", block)
    grids, calls = pencil_spy
    a, b = df.build_nutku(1), df.build_nutku(2)
    plan = counting(df.plane_plan(count=100, seed=1))
    rep = check_pencil_compatibility(a, b, cases.LAMBDAS, plan)
    assert rep.passed
    assert [(g.shape, g.order) for g in grids] == [((2, 2, 2), 2), ((2, 2, 2, 2), 0)]
    assert max(calls) <= RESAMPLE_BUDGET * block
    # round 0 of a block of s points asks for 5 s lanes and resolves no point
    # of lambda = -1 and 1; round 1, the last of both, asks for their retries
    # 1 to 16 at once, 32 s lanes; each round goes in calls of 16 x BLOCK
    # lanes, the last holding the rest
    sizes = [min(block, 100 - start) for start in range(0, 100, block)]
    assert sum(calls) == sum(5 * s + RESAMPLE_BUDGET * 2 * s for s in sizes)
    step, want = RESAMPLE_BUDGET * block, []
    for s in sizes:
        for lanes in (5 * s, RESAMPLE_BUDGET * 2 * s):
            want += [min(step, lanes - at) for at in range(0, lanes, step)]
    assert calls == want
    # each walk draws its round in one call: round 0 of all five, then the
    # last rounds of lambda = -1 and 1
    assert plan.calls == [(s, retries) for s in sizes for retries in
                          [range(0, 1)] * 5 + [range(1, RESAMPLE_BUDGET + 1)] * 2]


def test_a_pencil_of_operators_of_two_dimensions_is_rejected():
    with pytest.raises(ValueError, match="equal dimension"):
        check_pencil_compatibility(df.build_nutku(1), df.build_H1_Theta(df.R3), [1.0],
                                   df.plane_plan(count=10))


@pytest.fixture
def lanes_spy(monkeypatch):
    """The lanes of every pair-tape run (geometry's eval_tape, which
    pencil_values calls), every metric_frames call and every frame round,
    with the frames each round built."""
    pairs, frames, rounds = [], [], []
    tape, build, round_ = geometry.eval_tape, operators.metric_frames, operators._frame_round

    def tape_spy(t, points):
        pairs.append(len(points))
        return tape(t, points)

    def build_spy(jets, lanes):
        frames.append(len(lanes))
        rounds[-1][1] += len(lanes)
        return build(jets, lanes)

    def round_spy(table, tails, g, b, w):
        rounds.append([g.vals.shape[-1], 0])
        return round_(table, tails, g, b, w)

    monkeypatch.setattr(geometry, "eval_tape", tape_spy)
    monkeypatch.setattr(operators, "metric_frames", build_spy)
    monkeypatch.setattr(operators, "_frame_round", round_spy)
    return pairs, frames, rounds


def _theta_pencil():
    a, b = df.build_H1_Theta(const(1)), df.build_H1_Theta(df.R3)
    return json.dumps(check_pencil_compatibility(a, b, cases.LAMBDAS,
                                                 df.drift_plan(count=1000, seed=1)).to_dict())


def _sqrt_theta_preset():
    # the draws a block's last round asks for depend on BLOCK; the document not
    run = cases.run_cli_json(["preset", "h1-theta", "--theta", "sqrt(r3-0.5)"])
    return json.dumps([run["exit_code"], run["document"]])


@pytest.mark.parametrize("case, block, batch", [("pencil", 64, 64), ("pencil", 64, 7),
                                                 ("preset", 64, 64), ("preset", 4, 4)])
def test_pair_tapes_get_at_most_block_lanes_and_frames_the_frame_budget(
        monkeypatch, lanes_spy, case, block, batch):
    # a last round is one evaluator call of up to RESAMPLE_BUDGET x BLOCK
    # lanes, but the pencil's pair tapes run on at most BLOCK lanes at a time,
    # and frames are built on at most FRAME_ENTRIES // n**4 lanes at a time
    # (both 3-D here), with the reports of any other BLOCK and frame budget
    run = {"pencil": _theta_pencil, "preset": _sqrt_theta_preset}[case]
    want = run()
    pairs, frames, rounds = lanes_spy
    del pairs[:], frames[:], rounds[:]
    monkeypatch.setattr(sampling, "BLOCK", block)
    monkeypatch.setattr(operators, "FRAME_ENTRIES", batch * 3**4)
    assert run() == want
    assert frames and max(frames) <= batch
    assert max(pairs, default=0) <= block
    if case == "pencil":
        # lambda = -1 is identically degenerate: each block of 64 points ends
        # in one last round of 16 x 64 lanes
        assert '"lambda=-1.0:degenerate"' in want
        assert max(pairs) == block and len(pairs) >= 2 * len(rounds)
        assert max(n for n, _ in rounds) == RESAMPLE_BUDGET * block
        assert max(frames) == batch
    else:
        # the last rounds resolve lanes; at BLOCK = 4 some hold more than BLOCK
        # lanes and resolve more than a batch of them, built in batches; at 64
        # none is that long
        assert any(n > block for n, _ in rounds) == (block == 4)
        assert any(built > batch for _, built in rounds) == (block == 4)


@pytest.mark.parametrize("pair, plan, batches", [
    # lambda = -1 and 1 are identically degenerate: 768 of round 0's 1,280
    # lanes resolve, built in one batch at n = 2
    ((df.build_nutku(1), df.build_nutku(2)), df.plane_plan(count=256, seed=1), [768]),
    # lambda = -1 is: 1,024 lanes resolve, built 256 at a time at n = 3
    ((df.build_H1_Theta(const(1)), df.build_H1_Theta(df.R3)), df.drift_plan(count=256, seed=1),
     [256] * 4),
])
def test_frame_batches_hold_the_frame_budget_in_entries(lanes_spy, pair, plan, batches):
    # FRAME_ENTRIES // n**4 lanes a batch: 1,296 at n = 2, 256 at n = 3
    assert operators.FRAME_ENTRIES // 2**4 == 1296 and operators.FRAME_ENTRIES // 3**4 == 256
    _, frames, rounds = lanes_spy
    assert check_pencil_compatibility(*pair, cases.LAMBDAS, plan).passed
    assert rounds[0][0] == len(cases.LAMBDAS) * 256
    assert frames[:len(batches)] == batches and rounds[0][1] == sum(batches)


def test_a_round_of_many_lambdas_is_cut_into_calls_of_16_blocks(
        monkeypatch, pencil_spy, lanes_spy):
    # 20 lambdas on one block of 64 points: round 0's 1,280 lanes go in calls
    # of 1,024 and 256, and round 1 holds the last rounds of lambda = -1 and
    # 1, identically degenerate, 1,024 lanes each; the pair tapes run on at
    # most 64 lanes at a time, and frames, 2-D here, are built on at most
    # FRAME_ENTRIES // 2**4 = 100 at a time: 896 lanes of the first call
    # resolve, built in batches of 100 and a last one of 96
    monkeypatch.setattr(sampling, "BLOCK", 64)
    monkeypatch.setattr(operators, "FRAME_ENTRIES", 100 * 2**4)
    _, calls = pencil_spy
    pairs, frames, _ = lanes_spy
    a, b = df.build_nutku(1), df.build_nutku(2)
    lambdas, plan = [k / 4 - 2.5 for k in range(20)], df.plane_plan(count=64, seed=1)
    got = check_pencil_compatibility(a, b, lambdas, plan).to_dict()
    assert calls[:2] == [1024, 256]
    assert max(calls) == RESAMPLE_BUDGET * 64 and sum(calls[2:]) >= 2 * RESAMPLE_BUDGET * 64
    assert frames[:9] == [100] * 8 + [96] and max(frames) == 100
    assert max(pairs) == 64
    assert got == per_lambda_pencil(a, b, lambdas, plan).to_dict()
    assert {"lambda=-1.0:degenerate", "lambda=1.0:degenerate"} <= {
        c["id"] for c in got["conditions"]}
