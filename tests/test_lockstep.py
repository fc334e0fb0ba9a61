"""Walks in lockstep: ``sampling.resolve_walks`` against one ``resolve`` per
walk, walks that ask for the same draws drawing them once, and the pencil
check, which walks every lambda of a pair at once and runs its pair tapes
once per distinct draw, against the local check of each ``pencil_operator``
member."""

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
from hydroham.geometry import ConnectionField, MetricField, pencil_values
from hydroham.parsing import parse_expr
from hydroham.operators import LocalOperator, check_local_hamiltonian, check_pencil_compatibility
from hydroham.reports import CheckReport, ConditionResult
from hydroham.sampling import RESAMPLE_BUDGET, SamplePlan, resolve, resolve_walks

import cases
from oracle import pencil_operator
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
# walks 1 and 3 are identically degenerate and draw the same points; walks 0
# and 2 redraw other points at retry 1, so at BLOCK 7 round 1 of a block is
# 3 + 112 + 1 + 112 lanes, and its second call of 112 holds the last 3 rows
# of walk 1's draws and the first 108 of walk 3's: two pieces of one array
INTERLEAVED = ({i: lambda r: 2 if r < 1 else 0 for i in range(60) if i % 7 < 3},
               dict.fromkeys(range(60), DEGENERATE),
               {i: lambda r: 1 if r < 1 else 0 for i in range(60) if i % 7 == 3},
               dict.fromkeys(range(60), DEGENERATE))
# at round 2 of a block both walks redraw the points i % 7 < 3, but walk 0
# resolved none of them at round 1, so its round 2 is its last, retries 2 to
# 16, while walk 1 resolved point i % 7 == 3 at round 1 and draws retry 2
# only: the same points at other retries are other draws
OTHER_RETRIES = ({i: lambda r: 2 if r < 5 else 0 for i in range(60) if i % 7 < 3},
                 {i: (lambda r: 2 if r < 5 else 0) if i % 7 < 3 else lambda r: 2 if r < 1 else 0
                  for i in range(60) if i % 7 < 4})
TABLES = {"every walk resolves": EVERY_WALK_RESOLVES,
          "one walk identically degenerate": ONE_WALK_DEGENERATE,
          "a hostile point": WITH_A_HOSTILE_POINT,
          "shared draws interleaved with others": INTERLEAVED,
          "the same points at other retries": OTHER_RETRIES}


def one_walk(causes: dict, w: int):
    """The evaluator of walk ``w`` alone, with two payload arrays."""
    def evaluate(points):
        status = np.array([causes.get(i, lambda r: 0)(r)
                           for i, r in (PAIR_OF[float(p[0])] for p in points)], dtype=int)
        return status, (points[:, 0] * (w + 2.0), np.outer(points[:, 0], [1.0, -float(w)]))
    return evaluate


def lockstep(tables, calls: list, rows: list | None = None):
    """The evaluator of every walk at once; records the lanes of each call,
    and, given ``rows``, the number of draws it was handed.  Each walk's
    evaluator sees the rows of the walk's runs."""
    walks = [one_walk(causes, w) for w, causes in enumerate(tables)]

    def evaluate(points, runs):
        assert sorted({k for _, s in runs for k in range(len(points))[s]}) == list(
            range(len(points)))  # every draw handed over is a lane's
        found = [walks[w](points[s]) for w, s in runs]
        calls.append(sum(len(st) for st, _ in found))
        if rows is not None:
            rows.append(len(points))
        return (np.concatenate([st for st, _ in found]),
                tuple(map(np.concatenate, zip(*(payload for _, payload in found)))))
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

    plan, calls, rows = counting(BASE), [], []
    if hostile:
        with pytest.raises(HostileDomainError, match="^domain too hostile at sample point 30$"):
            resolve_walks(plan, lockstep(tables, calls), len(tables))
        assert plan.drawn  # the walks got as far as the block that holds point 30
        return
    got = resolve_walks(plan, lockstep(tables, calls, rows), len(tables))
    assert len(got) == len(singles)
    for g, want in zip(got, singles):
        assert_same_resolved(g, want)
    # the same draws asked for, each round's shared ones once
    assert set(plan.drawn) == set(drawn)
    # the pairs asked for are those of the walk rule; each round's lanes go in
    # calls of RESAMPLE_BUDGET x BLOCK lanes, the round's last call holding
    # the rest, each handed every draw its lanes read once per set of draws
    asked = [resolve_requests([PAIR_OF[float(p[0])] for p in r.draws], BASE.count) for r in got]
    assert max(calls) <= RESAMPLE_BUDGET * block
    assert sum(calls) == sum(map(len, asked))
    assert (plan.drawn, calls, rows) == round_layout(got, block)
    assert len(plan.drawn) < len(drawn)  # round 0 of every block is drawn once


def round_layout(found, block: int, count: int = BASE.count) -> tuple:
    """What the walks of ``found`` in lockstep on a plan of ``count`` points
    ask for, by the walk rule (``walk_rounds``): the (i, retry) pairs drawn,
    in order; the lanes of each evaluate call; and the draws each call is
    handed.  Per block and round, walks that ask for the same draws (the
    same points at the same retries) draw them once, in the order of the
    first such walk; the round's lanes, every walk's draws walk after walk,
    go in calls of RESAMPLE_BUDGET x ``block`` lanes, the last holding the
    rest; and a call is handed each draw of its lanes once per set of draws
    that holds it."""
    rounds = {}  # (block start, first retry) -> each live walk's draws, in walk order
    for r in found:
        counts = Counter(PAIR_OF[float(p[0])][0] for p in r.draws)
        for start, retries, points in walk_rounds(counts, count, block):
            rounds.setdefault((start, retries[0]), []).append(
                tuple((i, q) for q in retries for i in points))
    drawn, calls, rows = [], [], []
    step = RESAMPLE_BUDGET * block
    for key in sorted(rounds):
        walks = rounds[key]
        drawn += [pair for k, draws in enumerate(walks) if draws not in walks[:k]
                  for pair in draws]
        lanes = [(draws, pair) for draws in walks for pair in draws]
        for at in range(0, len(lanes), step):
            calls.append(len(lanes[at:at + step]))
            rows.append(len(set(lanes[at:at + step])))
    return drawn, calls, rows


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


# (lam, rows of 300 points) per member: whole, overlapping and cut runs, in
# no order of rows, and members that read the same rows
MEMBER_RUNS = [(-2.0, slice(0, 300)), (-1.0, slice(250, 300)), (0.5, slice(0, 40)),
               (1.0, slice(40, 300)), (3.0, slice(7, 263)), (0.5, slice(0, 300))]


@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("pair", [name for name, _, _ in cases.pencil_pairs()])
def test_pencil_values_are_the_member_grid(monkeypatch, pair, block):
    # the member formed on tape coefficients, before d2 is scaled, is the
    # grid of the trees g_a + lam g_b in each member's lanes, also when the
    # pair runs in batches of BLOCK rows that cut a member's rows
    monkeypatch.setattr(sampling, "BLOCK", block)
    _, a, b = next(p for p in cases.pencil_pairs() if p[0] == pair)
    plan = cases.plan_for(a.dim, 3)
    points = plan.points(range(300))
    pair = compile_tape((a.g.entries, b.g.entries), a.dim, 2)
    got = pencil_values(pair, points, MEMBER_RUNS)
    at = 0
    for x, rows in MEMBER_RUNS:
        lanes = slice(at, at + rows.stop - rows.start)
        at = lanes.stop
        member = pencil_operator(a, b, x).g.entries
        want = eval_tape(compile_tape(member, a.dim, 2), points[rows])
        for part, g, w in zip(("vals", "d1", "d2"), got.at(), want.at()):
            assert np.array_equal(g[..., lanes], w), part
        assert np.array_equal(got.failed[lanes], want.failed)
        assert np.array_equal(got.points[lanes], points[rows])
    assert at == got.coeffs.shape[-1] == len(got.points)
    # no member: no lane, as with no point
    none = pencil_values(pair, points[:0], [])
    assert none.coeffs.shape == got.coeffs.shape[:-1] + (0,) and none.points.shape == (0, a.dim)


@pytest.mark.parametrize("block", [7, 64, 256])
def test_pencil_values_flag_the_lanes_of_the_pair_in_one_run(monkeypatch, block):
    # a pair whose parts leave their domain: in batches, each lane fails at
    # the instruction, and with the error, of the pair run on every lane
    monkeypatch.setattr(sampling, "BLOCK", block)
    u = df.plane_plan(count=1).points(range(300))
    ga = [[parse_expr("sqrt(u1)", 2), parse_expr("0", 2)], [parse_expr("0", 2), parse_expr("1", 2)]]
    gb = [[parse_expr("1", 2), parse_expr("0", 2)], [parse_expr("0", 2), parse_expr("ln(u2)", 2)]]
    pair = compile_tape((ga, gb), 2, 2)
    got = pencil_values(pair, u, [(lam, rows) for _, rows in MEMBER_RUNS for lam in (2.0,)])
    want = [eval_tape(pair, u[rows]) for _, rows in MEMBER_RUNS]
    assert got.failed.any() and not got.failed.all()
    assert np.array_equal(got.first_failure, np.concatenate([w.first_failure for w in want]))
    errors = [str(w.error(lane)) for w in want for lane in range(len(w.points)) if w.failed[lane]]
    assert [str(got.error(lane)) for lane in np.flatnonzero(got.failed)] == errors


@pytest.fixture
def pencil_spy(monkeypatch):
    """The grids a check compiles, the lanes of each evaluate call of its
    walks, and the draws each call is handed."""
    grids, calls, rows = [], [], []
    compile_original, walks_original = operators.compile_tape, operators.resolve_walks

    def compile_spy(entries, dim, order):
        grids.append(compile_original(entries, dim, order))
        return grids[-1]

    def walks_spy(plan, evaluate, walks):
        def counted(points, runs):
            calls.append(sum(s.stop - s.start for _, s in runs))
            rows.append(len(points))
            return evaluate(points, runs)
        return walks_original(plan, counted, walks)

    monkeypatch.setattr(operators, "compile_tape", compile_spy)
    monkeypatch.setattr(operators, "resolve_walks", walks_spy)
    return grids, calls, rows


def test_a_second_check_of_a_pair_compiles_no_grid(pencil_spy):
    grids, _, _ = pencil_spy
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
    grids, calls, rows = pencil_spy
    a, b = df.build_nutku(1), df.build_nutku(2)
    plan = counting(df.plane_plan(count=100, seed=1))
    rep = check_pencil_compatibility(a, b, cases.LAMBDAS, plan)
    assert rep.passed
    assert [(g.shape, g.order) for g in grids] == [((2, 2, 2), 2), ((2, 2, 2, 2), 0)]
    assert max(calls) <= RESAMPLE_BUDGET * block
    # round 0 of a block of s points asks for 5 s lanes and resolves no point
    # of lambda = -1 and 1; round 1, the last of both, asks for their retries
    # 1 to 16 at once, 32 s lanes; each round goes in calls of 16 x BLOCK
    # lanes, the last holding the rest, and a call is handed its distinct
    # draws, at most the s or 16 s that the round's walks share
    sizes = [min(block, 100 - start) for start in range(0, 100, block)]
    assert sum(calls) == sum(5 * s + RESAMPLE_BUDGET * 2 * s for s in sizes)
    step, want, distinct = RESAMPLE_BUDGET * block, [], []
    for s in sizes:
        for walks, draws in ((5, s), (2, RESAMPLE_BUDGET * s)):
            lanes = walks * draws
            want += [min(step, lanes - at) for at in range(0, lanes, step)]
            distinct += [min(draws, step, lanes - at) for at in range(0, lanes, step)]
    assert calls == want and rows == distinct
    # the walks that ask for the same draws draw them in one call: round 0
    # of all five, then the last rounds of lambda = -1 and 1
    assert plan.calls == [(s, retries) for s in sizes
                          for retries in (range(0, 1), range(1, RESAMPLE_BUDGET + 1))]


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
    _, calls, _ = pencil_spy
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


def test_a_pencil_runs_its_pair_tapes_once_per_distinct_draw_of_a_call(monkeypatch, pencil_spy):
    # pencil 1-2 at 100 points: round 0's five lambdas share 100 draws, and
    # the last rounds of lambda = -1 and 1 share 1,600; so two draw calls and
    # two evaluate calls of 500 and 3,200 lanes, in which each pair tape runs
    # on 100 and on 1,600 draws, at most BLOCK at a time (each lambda drawing
    # its own made 7 draw calls and ran each tape on 500 and 3,200 lanes)
    _, calls, rows = pencil_spy
    runs, original = Counter(), geometry.eval_tape

    def tape_spy(tape, points):
        assert len(points) <= sampling.BLOCK
        runs[len(calls), id(tape)] += len(points)
        return original(tape, points)

    monkeypatch.setattr(geometry, "eval_tape", tape_spy)
    a, b = df.build_nutku(1), df.build_nutku(2)
    plan = counting(df.plane_plan(count=100, seed=1))
    got = check_pencil_compatibility(a, b, cases.LAMBDAS, plan).to_dict()
    assert plan.calls == [(100, range(0, 1)), (100, range(1, RESAMPLE_BUDGET + 1))]
    assert calls == [500, 3200] and rows == [100, 1600]
    assert sorted((call, n) for (call, _), n in runs.items()) == [
        (1, 100), (1, 100), (2, 1600), (2, 1600)]
    assert got == per_lambda_pencil(a, b, cases.LAMBDAS, plan).to_dict()


def _slab_pair():
    """A pair whose member g_a + lam g_b has det (1 - lam) (u2 - 1/2)^9 + lam
    (u2 - 1/5)^9, and b = 0: degenerate on a slab of the box around u2 = 1/2
    at lam = 0 and around u2 = 1/5 at lam = 1, and at next to no draw at
    lam = 1/2."""
    zero = ((const(0),) * 2,) * 2

    def op(g):
        return LocalOperator(2, MetricField(2, tuple(tuple(parse_expr(e, 2) for e in row)
                                                     for row in g)),
                             ConnectionField(2, (zero, zero)))
    return (op([["1", "u1"], ["u1", "u1^2 + (u2 - 1/2)^9"]]),
            op([["0", "0"], ["0", "(u2 - 1/5)^9 - (u2 - 1/2)^9"]]))


@pytest.mark.parametrize("block", [7, 256])
def test_a_pencil_whose_draws_diverge_in_a_round_is_the_per_lambda_checks(
        monkeypatch, pencil_spy, block):
    # the four lambdas share round 0; at round 1 lambda = 0 (twice) redraws
    # the points of one slab, lambda = 1 those of another and lambda = 1/2
    # fewer or none: one draw call per set of draws, the two lambda = 0
    # walks sharing theirs
    monkeypatch.setattr(sampling, "BLOCK", block)
    _, calls, rows = pencil_spy
    a, b = _slab_pair()
    lambdas = (0.0, 1.0, 0.5, 0.0)
    plan = counting(SamplePlan(2, ((0.0, 1.0), (0.0, 1.0)), count=100, seed=4))
    got = check_pencil_compatibility(a, b, lambdas, plan).to_dict()
    drawn = [retry for _, retry in plan.calls]
    assert got == per_lambda_pencil(a, b, lambdas, plan).to_dict()
    assert "degenerate at 22% of attempted points" in json.dumps(got)
    # round 0 of each block is one draw call, and some block's round 1 is
    # more than one
    assert drawn.count(range(0, 1)) == len(range(0, 100, block))
    assert drawn.count(range(1, 2)) > drawn.count(range(0, 1))
    assert sum(calls) > sum(rows)


def test_walks_that_share_draws_cut_across_two_calls_are_the_per_lambda_checks(
        monkeypatch, pencil_spy):
    # 20 lambdas on one block of 60 points at BLOCK 64: round 0's 1,200
    # lanes of 60 shared draws go in calls of 1,024 and 176, the first
    # ending 4 lanes into the 18th lambda; the last rounds of lambda = -1 and
    # 1 share 960 draws in 1,920 lanes, cut 64 lanes into the second walk.
    # Each call is handed each draw its lanes read once
    monkeypatch.setattr(sampling, "BLOCK", 64)
    _, calls, rows = pencil_spy
    a, b = df.build_nutku(1), df.build_nutku(2)
    lambdas, plan = [k / 4 - 2.5 for k in range(20)], counting(df.plane_plan(count=60, seed=1))
    got = check_pencil_compatibility(a, b, lambdas, plan).to_dict()
    assert plan.calls == [(60, range(0, 1)), (60, range(1, RESAMPLE_BUDGET + 1))]
    assert calls == [1024, 176, 1024, 896] and rows == [60, 60, 960, 896]
    assert got == per_lambda_pencil(a, b, lambdas, plan).to_dict()
