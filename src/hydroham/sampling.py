"""Deterministic sample plans for randomized identity checks.

Point i of a plan at draw ``retry`` is ``lo + (hi - lo) * u`` with
``u = np.random.default_rng((seed, i, retry)).random(dim)``, a pure function
of (seed, i, retry), so parallel or out-of-order evaluation cannot change
results, and a point hit by a domain violation can be redrawn reproducibly
by bumping the retry counter.  :meth:`SamplePlan.points` computes those
numbers for a whole round of indices in one call, following numpy's
SeedSequence and PCG64 in array arithmetic, without a generator per point.
Each plan object keeps the rows it draws, in chunks of 256 indices, for
every later walk of it: a request whose rows it holds all is a gather, and
any other is drawn whole, in one kernel call, and kept.  It also fills in one
call every retry left of the points of a walk's last round.

:func:`resolve_walks` is the one plan walk and holds the one redraw rule: a
draw at which any field of a check leaves its domain is redrawn, and so is
any draw the check's evaluator rejects for its own reason (a degenerate
metric, a singular Jacobian).  It goes through a plan in blocks of
:data:`BLOCK` points, each round one batch to evaluate of the points still
unresolved, and records exactly the draws of a per-point redraw loop.  A
round after one that resolved nothing is the block's last: it evaluates every
retry left of its points at once, drawn in one kernel call and passed to the
evaluator as one call, and keeps each point's draws up to its first that
resolves, so a block that cannot resolve costs two draw calls and two
evaluator calls, not seventeen rounds.  That speculative work is at most
``RESAMPLE_BUDGET - r`` lanes per unresolved point of a last round at retry
r, and lanes are independent, so results do not change.  Several walks of
one plan (a pencil's lambdas) go in lockstep: the one-retry rounds of a
round of them in as few evaluator calls of at most :data:`BLOCK` lanes as
their lanes need, then one call per walk whose last round it is;
:func:`resolve` is the walk of one.  The walk calls every evaluator with
numpy's warnings off, so a NaN or infinity a check computes is no warning
but a failed condition (:mod:`~hydroham.reports`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HostileDomainError

RESAMPLE_BUDGET = 16
REDRAW_DOMAIN = 1  # evaluator status: a field left its domain at the drawn point
# Plan points evaluated as one batch: a default plan is one block.  An
# evaluator call holds at most BLOCK lanes, or one walk's last round (at most
# RESAMPLE_BUDGET x BLOCK lanes), whatever the point count or the number of
# walks in lockstep; an evaluator bounds its own arrays past BLOCK lanes (the
# pencil's pair tapes and the frame builds run BLOCK lanes at a time).
BLOCK = 256

DEFAULT_COUNT = 100
DEFAULT_TOLERANCE = 1e-9
DEFAULT_FLOOR = 1e-12
_CHUNK = 256  # plan indices per memo entry of SamplePlan.points; not BLOCK, a batch size


@dataclass(frozen=True)
class SamplePlan:
    """Sampling box, point count, seed and tolerances for one check run."""

    dim: int
    box: tuple[tuple[float, float], ...]
    count: int = DEFAULT_COUNT
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.box) != self.dim:
            raise ValueError("box must supply one interval per variable")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"sampling interval [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise ValueError(f"empty sampling interval [{lo}, {hi}]")
        _natural("count", self.count, 1)
        _natural("seed", self.seed)
        for name in ("tolerance", "floor"):  # a bool passes the checks below: true as 1.0
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not (math.isfinite(self.floor) and self.floor >= 0):
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")
        # box corners as arrays, kept out of the fields (eq, hash, echo)
        object.__setattr__(self, "_lo", np.array([b[0] for b in self.box], dtype=float))
        object.__setattr__(self, "_hi", np.array([b[1] for b in self.box], dtype=float))
        object.__setattr__(self, "_seed_words", _words(int(self.seed)))
        # (chunk, retry) -> (rows, which rows are drawn), also out of the fields
        object.__setattr__(self, "_memo", {})

    def points(self, indices, retry: int = 0) -> np.ndarray:
        """Plan points ``indices`` at draw ``retry``, one row each, in a fresh
        array: row k is ``lo + (hi - lo) * np.random.default_rng((seed,
        indices[k], retry)).random(dim)``, bit for bit, for indices below
        2**64.  Each ``(i, retry)`` with ``i < count`` and ``retry <=
        RESAMPLE_BUDGET`` is kept per plan object, in 256-row chunks: a
        request's rows of a chunk the memo holds all are a gather, others are
        drawn whole, in one kernel call, and kept.  Concurrent fills of a row
        write identical values.
        ValueError unless the indices and ``retry`` are integers >= 0 and
        the indices below 2**64."""
        idx = _plan_indices(indices)
        retry = _natural("retry", retry)
        if not idx.size:
            return np.empty((0, self.dim))
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0:
            raise ValueError(f"plan index must be an integer >= 0, got {lo}")
        if hi >= self.count or retry > RESAMPLE_BUDGET:
            return self._draw(idx, retry)  # not a plan draw: not kept
        first = lo // _CHUNK
        if first == hi // _CHUNK:  # every round of resolve at the default BLOCK
            return self._chunk(first, retry, idx - first * _CHUNK)
        out = np.empty((idx.size, self.dim))
        chunk = idx // _CHUNK
        for c in np.unique(chunk).tolist():  # the chunks present, however far apart
            lanes = chunk == c
            out[lanes] = self._chunk(c, retry, idx[lanes] - c * _CHUNK)
        return out

    def _chunk(self, c: int, retry: int, local) -> np.ndarray:
        """Rows ``c * 256 + local`` at draw ``retry``: a gather from the memo
        when it holds them all, else all drawn, in request order, and kept."""
        entry = self._memo.get((c, retry))
        if entry is not None and entry[1][local].all():
            return entry[0][local]
        out = self._draw(local + c * _CHUNK, retry)
        self._keep(c, retry, local, out)
        return out

    def _prefetch(self, indices, retry: int) -> None:
        """Fill the memo for the distinct plan points ``indices`` at every
        draw from ``retry`` to RESAMPLE_BUDGET, in one kernel call for the
        rows it lacks; indices at or above ``count`` are left out."""
        idx = np.asarray(indices, dtype=np.uint64)
        idx = idx[idx < self.count]
        chunk = idx // _CHUNK
        lack = []  # (memo key, local rows it lacks)
        for c in np.unique(chunk).tolist():
            local = (idx[chunk == c] - c * _CHUNK).astype(np.intp)
            for q in range(retry, RESAMPLE_BUDGET + 1):
                entry = self._memo.get((c, q))
                rows = local if entry is None else local[~entry[1][local]]
                if rows.size:
                    lack.append(((c, q), rows))
        if not lack:
            return
        drawn = self._draw(np.concatenate([rows + c * _CHUNK for (c, _), rows in lack]),
                           np.concatenate([np.full(rows.size, q, np.uint64) for (_, q), rows in lack]))
        at = 0
        for (c, q), rows in lack:
            self._keep(c, q, rows, drawn[at:at + rows.size])
            at += rows.size

    def _keep(self, c: int, retry: int, local, rows) -> None:
        """Keep ``rows`` as rows ``c * 256 + local`` at draw ``retry``, before their flags."""
        n = min(_CHUNK, self.count - c * _CHUNK)
        entry = self._memo.setdefault((c, retry), (np.empty((n, self.dim)), np.zeros(n, bool)))
        entry[0][local] = rows
        entry[1][local] = True

    def _draw(self, indices, retry) -> np.ndarray:
        """The kernel behind :meth:`points`, with no memo: ``retry`` is an int,
        or a uint64 array of one retry below 2**32 per index."""
        idx = np.asarray(indices, dtype=np.uint64)
        u = np.empty((idx.size, self.dim))
        per_lane = isinstance(retry, np.ndarray)
        # an index gives SeedSequence one entropy word below 2**32, two above:
        # one batch per layout
        for lanes, wide in ((idx <= _M32, False), (idx > _M32, True)):
            if lanes.any():
                i = idx[lanes]
                words = [i & _M32, i >> 32] if wide else [i]
                words += [retry[lanes]] if per_lane else _words(retry)
                u[lanes] = _uniforms(self._seed_words + words, i.size, self.dim)
        return self._lo + (self._hi - self._lo) * u

    def point(self, i: int, retry: int = 0) -> np.ndarray:
        return self.points([i], retry)[0]

    def echo(self) -> dict:
        return {
            "dim": self.dim,
            "box": [list(b) for b in self.box],
            "count": self.count,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "floor": self.floor,
        }


def _natural(name: str, value, least: int = 0) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``least`` (0, as
    default_rng needs, unless given)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _plan_indices(indices) -> np.ndarray:
    """``indices`` as a flat integer array; ValueError for an entry that is not an
    integer, or for a negative one outside an integer array (points checks those),
    or for one of 2**64 or more."""
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        return indices.reshape(-1)
    idx = [_natural("plan index", i) for i in indices]
    if idx and max(idx) >= 1 << 64:
        raise ValueError(f"plan index must be an integer >= 0 and below 2**64, got {max(idx)}")
    return np.array(idx, dtype=np.uint64)


def default_plan(dim: int, box=None, count: int = DEFAULT_COUNT, seed: int = 0,
                 tolerance: float = DEFAULT_TOLERANCE, floor: float = DEFAULT_FLOOR) -> SamplePlan:
    """Plan over [-1, 1]^dim unless a box is given."""
    if box is None:
        box = tuple((-1.0, 1.0) for _ in range(dim))
    return SamplePlan(dim=dim, box=tuple(tuple(b) for b in box), count=count,
                      seed=seed, tolerance=tolerance, floor=floor)


# -- np.random.default_rng((seed, i, retry)).random(dim), for many i at once --------
#
# numpy seeds PCG64 from a SeedSequence over the 32-bit words of (seed, i,
# retry): four pool words hashed and cross-mixed, four 64-bit state words
# generated from the pool.  PCG64 then runs a 128-bit LCG, emitting the
# XSL-RR output of each new state, and random() keeps its top 53 bits.  The
# functions below follow those steps with one lane per index, in uint32
# arrays for the hash and in 64-bit halves for the LCG.

_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the state hash
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_PCG_LO0, _PCG_LO1 = _PCG_LO & np.uint64(_M32), _PCG_LO >> np.uint64(32)


def _words(n: int) -> list:
    """The 32-bit entropy words SeedSequence takes from an integer >= 0."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(n, 1) uint32: the hash multiplier, from ``init``, after each of n - 1 steps."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _M32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.setflags(write=False)  # shared by every caller of the cache
    return out


def _hashmix(values, constants):
    """SeedSequence's hashmix of each row of ``values``, row k with the hash
    multiplier at its k-th step; ``constants`` holds one step more than rows."""
    v = values ^ constants[:-1]
    v *= constants[1:]
    v ^= v >> 16
    return v


def _mix(x, y):
    v = _MIX_L * x
    v -= _MIX_R * y
    v ^= v >> 16
    return v


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """The 128-bit state (hi, lo) times PCG64's multiplier plus the increment."""
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = ((a0 * _PCG_LO0) >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * _PCG_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + hi * _PCG_LO + lo * _PCG_HI
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _uniforms(entropy: list, lanes: int, dim: int) -> np.ndarray:
    """(lanes, dim) doubles of default_rng(entropy words).random(dim), one lane
    per column of the entropy words (each an int or a uint64 array)."""
    n_words = max(len(entropy), _POOL)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * n_words + 1)
    words = np.zeros((n_words, lanes), dtype=np.uint32)
    for k, w in enumerate(entropy):
        words[k] = w
    pool = _hashmix(words[:_POOL], a[:_POOL + 1])
    step = _POOL
    for src in range(_POOL):  # each pool word mixed into the three others
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[step:step + _POOL]))
        step += _POOL - 1
    for extra in words[_POOL:]:  # entropy beyond the pool, mixed into all four
        pool = _mix(pool, _hashmix(extra, a[step:step + _POOL + 1]))
        step += _POOL
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 9))
    del words, pool  # only the state words are read from here on
    # little-endian pairs of 32-bit words, one (4, lanes) uint64 array
    s_hi, s_lo, q_hi, q_lo = state[0::2] | (state[1::2].astype(np.uint64) << 32)
    del state
    # PCG64 seeding: inc = 2 seq + 1; state = inc; state += initstate; step
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    del s_hi, s_lo, q_hi, q_lo  # the PCG steps read the 128-bit state and increment only
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((lanes, dim))
    for d in range(dim):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, d] = (x >> 11) * 2.0 ** -53
    return out


class Resolved(NamedTuple):
    """A plan walked by :func:`resolve`: every draw, in (index, retry) order,
    with its status and the evaluator's rows there, and the draws that
    resolved, in plan order."""

    points: np.ndarray  # (resolved, dim), the draw that resolved each point
    payload: tuple  # the evaluator's per-lane arrays at those draws
    draws: np.ndarray  # (draws, dim), every point drawn
    status: np.ndarray  # the status of every draw: 0 resolved, else its redraw cause
    rows: tuple  # the evaluator's per-lane arrays at every draw
    unresolved: np.ndarray  # plan indices left unresolved after the budget, ascending


def resolve(plan: SamplePlan, evaluate) -> Resolved:
    """Resolve every plan point, evaluating each round of draws as a batch.

    The plan goes in blocks of :data:`BLOCK` points.  Round r of a block
    asks ``plan.points`` for point i at retry r (``lo + (hi - lo) *
    np.random.default_rng((seed, i, r)).random(dim)``) for every i of the
    block, in order, that no earlier round resolved, and calls
    ``evaluate(points)`` with numpy's warnings off.  That returns ``(status,
    payload)``: a status per lane (0 for resolved, any other value for a draw
    to redraw, :data:`REDRAW_DOMAIN` when a field left its domain there) and
    a tuple of arrays with one row per lane.  A round after one that
    resolved nothing is the block's last: the plan fills every retry left of
    its points in one kernel call (``SamplePlan._prefetch``), and the round
    asks for all of them, retries r to RESAMPLE_BUDGET, and evaluates them
    in one call.  Each point keeps its draws up to
    its first that resolves, so the result records exactly the draws of a
    per-point redraw loop, bit for bit, since lanes are independent; a block
    stops when every point is resolved or has spent the resample budget.

    A point whose every draw was a domain violation raises
    HostileDomainError ("domain too hostile at sample point i") for the
    first such point in plan order.  Any other point that spends the budget
    is left unresolved and listed in ``Resolved.unresolved``.

    This is the one-walk case of :func:`resolve_walks`.
    """
    return resolve_walks(plan, lambda points, walk: evaluate(points), 1)[0]


def resolve_walks(plan: SamplePlan, evaluate, walks: int) -> tuple[Resolved, ...]:
    """Resolve every plan point once per walk, ``walks`` walks in lockstep:
    the :class:`Resolved` of each walk, in walk order, each what
    :func:`resolve` returns for an evaluator that sees that walk's lanes only.

    Each walk goes through the blocks and rounds of :func:`resolve` under
    the same redraw and budget rules: it records exactly the draws of a
    per-point redraw loop, and after a round in which it resolved nothing,
    its next round, its last of the block, evaluates every retry left at
    once.  Round r of a block makes one ``plan.points`` call per walk and
    retry it draws, for that walk's unresolved points: first the walks whose
    round has one retry, walk after walk, then the walks whose last round it
    is, walk after walk and retry after retry within a walk (the plan's memo
    serves a request whose rows an earlier walk drew).  It hands those lanes
    to ``evaluate(points, walk)`` in that order, with numpy's warnings off:
    the one-retry lanes in as few calls as :data:`BLOCK` lanes per call
    allow, then each walk's last round in one call, of at most
    ``RESAMPLE_BUDGET`` x :data:`BLOCK` lanes; ``walk`` is the walk number of
    each lane.  A last round evaluates at most ``RESAMPLE_BUDGET - r`` lanes
    more than the loop would per point.  At the end of the first block in which
    some walk has a point whose every draw was a domain violation,
    HostileDomainError names the first such point of the first such walk;
    when every walk has the same domain flags, that is the point
    :func:`resolve` names.
    """
    # per walk: plan indices, draws, status and rows per round, and
    # unresolved indices per block
    logs = [([], [], [], [], []) for _ in range(walks)]
    lane_walk = _lane_walks(walks, BLOCK)
    for start in range(0, plan.count, BLOCK):
        block = np.arange(start, min(start + BLOCK, plan.count))
        todo = [block] * walks
        span = [1] * walks  # the retries of the walk's next round; 0 after its last
        first = [len(log[0]) for log in logs]  # the block's first round in each log
        for r in range(RESAMPLE_BUDGET + 1):
            # the walks of one-retry rounds first, then each walk's last round
            live = sorted(((w, span[w]) for w in range(walks) if span[w] and len(todo[w])),
                          key=lambda wk: wk[1] > 1)
            if not live:
                break
            # where each evaluator call starts: BLOCK lanes of one-retry
            # rounds at a time, then one call per last round
            at = sum(len(todo[w]) for w, k in live if k == 1)
            cuts = list(range(0, at, BLOCK))
            for w, k in live:
                if k > 1:  # a last round: every retry left, drawn in one kernel call
                    plan._prefetch(todo[w], r)
                    cuts.append(at)
                    at += k * len(todo[w])
            points = _join([plan.points(todo[w], r + q) for w, k in live for q in range(k)])
            walk = _join([lane_walk[w, :len(todo[w])] for w, k in live for _ in range(k)])
            st, payload = [], []
            with np.errstate(all="ignore"):  # non-finite values fail in the verdict instead
                for lo, hi in zip(cuts, cuts[1:] + [len(points)]):
                    s, p = evaluate(points[lo:hi], walk[lo:hi])
                    st.append(np.asarray(s, dtype=int))
                    payload.append(p)
            st, payload = _join(st), tuple(map(_join, zip(*payload)))
            at = 0
            for w, k in live:
                index, draws, status, rows, _ = logs[w]
                n = len(todo[w])
                here = slice(at, at + k * n)
                at = here.stop
                keep, drawn, todo[w] = _recorded(todo[w], (st[here] != 0).reshape(k, n))
                index.append(drawn)
                draws.append(points[here][keep])
                status.append(st[here][keep])
                rows.append([a[here][keep] for a in payload])
                span[w] = 0 if k > 1 else 1 if len(todo[w]) < n else RESAMPLE_BUDGET - r
        for w in range(walks):
            if len(todo[w]):
                _check_hostile(todo[w], logs[w][0][first[w]:], logs[w][2][first[w]:])
            logs[w][4].append(todo[w])
    return tuple(_resolved(*log) for log in logs)


def _recorded(todo: np.ndarray, again: np.ndarray) -> tuple:
    """What a walk keeps of its round over the points ``todo``, from ``again``
    (retries, points), true at each draw to redraw: the round's lanes to
    record, flat and retry after retry, which are each point's draws up to
    its first that resolves, or all of them where none does; the plan index
    of each; and the points left unresolved."""
    if len(again) == 1:  # one retry: every lane
        return slice(None), todo, todo[again[0]]
    unresolved = np.logical_and.accumulate(again)  # after each retry
    keep = np.ones(again.shape, bool)
    keep[1:] = unresolved[:-1]
    keep = keep.reshape(-1)
    return keep, np.tile(todo, len(again))[keep], todo[unresolved[-1]]


def _check_hostile(unresolved: np.ndarray, index: list, status: list) -> None:
    """HostileDomainError for the first of a block's ``unresolved`` points whose
    every draw in that block's rounds (their plan indices and statuses) was
    a domain violation."""
    tame = np.concatenate(index)[np.concatenate(status) != REDRAW_DOMAIN]
    hostile = np.isin(unresolved, tame, invert=True)
    if hostile.any():
        raise HostileDomainError(int(unresolved[np.argmax(hostile)]))


@functools.lru_cache(maxsize=None)
def _lane_walks(walks: int, block: int) -> np.ndarray:
    """(walks, block): row w holds walk number w, to slice each walk's lanes from."""
    out = np.repeat(np.arange(walks), block).reshape(walks, block)
    out.setflags(write=False)  # shared by every caller of the cache
    return out


def _join(parts: list) -> np.ndarray:
    """``parts`` concatenated; the one part itself when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _resolved(index, draws, status, rows, unresolved) -> Resolved:
    """One walk's rounds, in (index, retry) order.  A round holds its draws
    retry after retry, each retry's in index order, and a point's rounds
    come in retry order, so sorting by index alone, stably, keeps each
    point's retries in order."""
    order = np.argsort(np.concatenate(index), kind="stable")
    status = np.concatenate(status)[order]
    draws = np.concatenate(draws)[order]
    rows = tuple(np.concatenate(arrays)[order] for arrays in zip(*rows))
    ok = status == 0
    return Resolved(draws[ok], tuple(a[ok] for a in rows), draws, status, rows,
                    np.concatenate(unresolved))
