"""Deterministic sample plans for randomized identity checks.

Point i of a plan at draw ``retry`` is ``lo + (hi - lo) * u``, where
``u[d]`` is the top 53 bits of ``mix(mix(mix(key + i*G) + retry*G) +
(d+1)*G)``, a fraction in [0, 1): ``mix`` is SplitMix64's finalizer, G =
0x9E3779B97F4A7C15, all arithmetic is modulo 2**64, and ``key`` folds the
seed's 64-bit words with the same mix.  So a point is a pure function of
(seed, i, retry): parallel or out-of-order evaluation cannot change results,
and a point hit by a domain violation can be redrawn reproducibly by bumping
the retry counter.  :meth:`SamplePlan.points` computes those numbers for a
whole round of indices, at one retry or a range of them, in a few uint64
array operations, and keeps nothing.

:func:`resolve_walks` is the one plan walk and holds the one redraw rule: a
draw at which any field of a check leaves its domain is redrawn, and so is
any draw the check's evaluator rejects for its own reason (a degenerate
metric, a singular Jacobian).  It goes through a plan in blocks of
:data:`BLOCK` points, each round one batch to evaluate of the points still
unresolved, and records exactly the draws of a per-point redraw loop.  A
round after one that resolved nothing is the block's last: it evaluates every
retry left of its points at once, drawn in one call and evaluated in one
call, and keeps each point's draws up to its first that resolves, so a block
that cannot resolve costs two draw calls and two evaluator calls, not
seventeen rounds.  That speculative work is at most ``RESAMPLE_BUDGET - r``
lanes per unresolved point of a last round at retry r, and lanes are
independent, so results do not change.  Several walks of one plan (a
pencil's lambdas) go in lockstep under one call rule: walks that ask for
the same draws in a round (the same unresolved points at the same retries)
draw them in one call, and an evaluator call is one array of draws and the
walks that read it, its lanes the array's rows once per walk, so an
evaluator can compute what depends on the point alone once for every walk.
A call holds as many whole walks of its array as fit in ``RESAMPLE_BUDGET``
x :data:`BLOCK` lanes, so one walk's round is one call; :func:`resolve` is
the walk of one.  The walk calls every evaluator with numpy's warnings off,
so a NaN or infinity a check computes is no warning but a failed condition
(:mod:`~hydroham.reports`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HostileDomainError

RESAMPLE_BUDGET = 16
REDRAW_DOMAIN = 1  # evaluator status: a field left its domain at the drawn point
# Plan points evaluated as one batch: a default plan is one block.  An
# evaluator call is one array of draws and whole walks that read it, at most
# RESAMPLE_BUDGET x BLOCK lanes, whatever the point count or the number of
# walks in lockstep; one walk's round never exceeds that, so each is one
# call.  An evaluator bounds its own arrays past that (the pencil's pair
# tapes run on BLOCK draws at a time, and frames are built in batches of
# operators.FRAME_ENTRIES entries).
BLOCK = 256

DEFAULT_COUNT = 100
DEFAULT_TOLERANCE = 1e-9
DEFAULT_FLOOR = 1e-12

_M64 = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2**64 over the golden ratio, odd


@dataclass(frozen=True)
class SamplePlan:
    """Sampling box, point count, seed and tolerances for one check run.  Box
    bounds are stored as floats."""

    dim: int
    box: tuple[tuple[float, float], ...]
    count: int = DEFAULT_COUNT
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        _natural("dim", self.dim, 1)
        object.__setattr__(self, "box", tuple((_number("box bound", lo), _number("box bound", hi))
                                              for lo, hi in self.box))
        if len(self.box) != self.dim:
            raise ValueError("box must supply one interval per variable")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"sampling interval [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise ValueError(f"empty sampling interval [{lo}, {hi}]")
        _natural("count", self.count, 1)
        _natural("seed", self.seed)
        for name in ("tolerance", "floor"):
            _number(name, getattr(self, name))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not (math.isfinite(self.floor) and self.floor >= 0):
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")
        # box corners and seed key, kept out of the fields (eq, hash, echo)
        object.__setattr__(self, "_lo", np.array([b[0] for b in self.box], dtype=float))
        object.__setattr__(self, "_hi", np.array([b[1] for b in self.box], dtype=float))
        object.__setattr__(self, "_key", _seed_key(int(self.seed)))

    def points(self, indices, retry: int | range = 0) -> np.ndarray:
        """Plan points ``indices`` at draw ``retry``, one row each, in request
        order, in a fresh array: row k is ``lo + (hi - lo) * u`` with ``u[d]``
        the top 53 bits of ``mix(mix(mix(key + indices[k]*G) + retry*G) +
        (d+1)*G)`` over 2**53 (see the module docstring).  A ``range`` of
        retries gives the rows of each in turn, retry after retry, each
        retry's in request order: the per-retry calls stacked, bit for bit,
        with ``mix(key + i*G)`` computed once per index.
        ValueError unless the indices and the retries are integers >= 0 and
        below 2**64, and a range holds at least one retry."""
        idx = _plan_indices(indices)
        steps = _retry_steps(retry)
        if idx.size and idx.min() < 0:
            raise ValueError(f"plan index must be an integer >= 0, got {int(idx.min())}")
        lanes = _mix(idx.astype(np.uint64, copy=False) * _G + self._key)
        lanes = _mix(steps[:, None] + lanes).reshape(-1)
        u = _mix(lanes[:, None] + np.arange(1, self.dim + 1, dtype=np.uint64) * _G) >> 11
        return self._lo + (self._hi - self._lo) * (u * 2.0 ** -53)

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


def check_dimension(plan: SamplePlan, noun: str, dim: int) -> None:
    """ValueError unless ``plan`` samples ``dim`` variables, those of the
    ``noun`` ("an operator", "a system") to check on it."""
    if plan.dim != dim:
        raise ValueError(f"sample plan of dimension {plan.dim} for {noun} of dimension {dim}")


def _natural(name: str, value, least: int = 0) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``least`` (0
    unless given)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a real number and no bool
    (which would pass as 0.0 or 1.0); int and float skip the slow ABC check."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _retry_steps(retry) -> np.ndarray:
    """``retry*G`` modulo 2**64 for the retry, or for each retry of a range,
    as a uint64 array; ValueError unless each is an integer >= 0 and below
    2**64, or for an empty range."""
    retries = retry if isinstance(retry, range) else (_natural("retry", retry),)
    if not retries:
        raise ValueError(f"a retry range must hold a retry, got {retry!r}")
    for q in (retries[0], retries[-1]):  # a range's least and greatest, in some order
        if not 0 <= q <= _M64:
            raise ValueError(f"retry must be an integer >= 0 and below 2**64, got {q}")
    return np.array([q * _G & _M64 for q in retries], dtype=np.uint64)


def _plan_indices(indices) -> np.ndarray:
    """``indices`` as a flat integer array; ValueError for an entry that is not an
    integer, or for a negative one outside an integer array (points checks those),
    or for one of 2**64 or more."""
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        return indices.reshape(-1)
    idx = [_natural("plan index", i) for i in indices]
    if idx and max(idx) > _M64:
        raise ValueError(f"plan index must be an integer >= 0 and below 2**64, got {max(idx)}")
    return np.array(idx, dtype=np.uint64)


def default_plan(dim: int, box=None, count: int = DEFAULT_COUNT, seed: int = 0,
                 tolerance: float = DEFAULT_TOLERANCE, floor: float = DEFAULT_FLOOR) -> SamplePlan:
    """Plan over [-1, 1]^dim unless a box is given."""
    if box is None:
        box = tuple((-1.0, 1.0) for _ in range(dim))
    return SamplePlan(dim=dim, box=box, count=count, seed=seed, tolerance=tolerance,
                      floor=floor)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of each entry of the uint64 array ``z``, in a new
    array; the products wrap modulo 2**64, which numpy does not warn of in arrays."""
    z = z ^ (z >> 30)
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _seed_key(seed: int) -> np.ndarray:
    """A seed's key, one uint64 lane: ``key = mix(key + G + w)`` from 0 over the
    seed's 64-bit words w, low word first, so seeds of any size are keys, and
    seeds below 2**64 distinct ones."""
    key = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix(key + (_G + (seed >> shift & _M64) & _M64))
    return key


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
    asks ``plan.points`` for point i at retry r (``lo + (hi - lo) * u``, u
    the top bits of ``mix(mix(mix(key + i*G) + r*G) + (d+1)*G)``) for every
    i of the block, in order, that no earlier round resolved, and calls
    ``evaluate(points)`` with numpy's warnings off.  That returns ``(status,
    payload)``: a status per lane (0 for resolved, any other value for a draw
    to redraw, :data:`REDRAW_DOMAIN` when a field left its domain there) and
    a tuple of arrays with one row per lane.  A round after one that
    resolved nothing is the block's last: it asks for every retry left of
    its points, r to RESAMPLE_BUDGET, in one ``plan.points`` call, its rows
    retry after retry.  Every round is one evaluator call, of at most
    ``RESAMPLE_BUDGET`` x :data:`BLOCK` lanes.  Each point keeps its draws
    up to its first that resolves, so the result records exactly the draws
    of a per-point redraw loop, bit for bit, since lanes are independent; a
    block stops when every point is resolved or has spent the resample
    budget.

    A point whose every draw was a domain violation raises
    HostileDomainError ("domain too hostile at sample point i") for the
    first such point in plan order.  Any other point that spends the budget
    is left unresolved and listed in ``Resolved.unresolved``.

    This is the one-walk case of :func:`resolve_walks`.
    """
    return resolve_walks(plan, lambda points, walks: evaluate(points), 1)[0]


def resolve_walks(plan: SamplePlan, evaluate, walks: int) -> tuple[Resolved, ...]:
    """Resolve every plan point once per walk, ``walks`` walks in lockstep:
    the :class:`Resolved` of each walk, in walk order, each what
    :func:`resolve` returns for an evaluator that sees that walk's lanes only.

    Each walk goes through the blocks and rounds of :func:`resolve` under
    the same redraw and budget rules: it records exactly the draws of a
    per-point redraw loop, and after a round in which it resolved nothing,
    its next round, its last of the block, evaluates every retry left at
    once.  At round r of a block, each walk draws its unresolved points at
    the range of retries it asks for, their rows retry after retry, and
    live walks that ask for the same draws (the same points and the same
    retries) draw them once: one ``plan.points`` call per distinct set of
    draws, in the order of the first walk that asks for it.  Each set of
    draws then goes to the evaluator, in that order, in calls
    ``evaluate(points, walks)``, with numpy's warnings off: ``points`` is
    the array of draws and ``walks`` a tuple of the walks that read it, in
    walk order; the call's lanes are the rows of ``points`` once per walk,
    walk after walk, and the evaluator returns one row per lane.  A call
    holds at most ``RESAMPLE_BUDGET * BLOCK // len(points)`` walks (read
    when the walk runs), at least one since a walk's round never holds
    more lanes, and the walks of a set past that go in further calls, each
    re-evaluating the set's rows.  One walk's call is ``(points, (0,))``.
    A last round evaluates at most ``RESAMPLE_BUDGET - r`` lanes more than
    the loop would per point.  At the end of the first block in which some
    walk has a point whose every draw was a domain violation,
    HostileDomainError names the first such point of the first such walk;
    when every walk has the same domain flags, that is the point
    :func:`resolve` names.
    """
    # per walk: plan indices, draws, status and rows per round, and
    # unresolved indices per block
    logs = [([], [], [], [], []) for _ in range(walks)]
    for start in range(0, plan.count, BLOCK):
        block = np.arange(start, min(start + BLOCK, plan.count))
        todo = [block] * walks
        span = [1] * walks  # the retries of the walk's next round; 0 after its last
        first = [len(log[0]) for log in logs]  # the block's first round in each log
        for r in range(RESAMPLE_BUDGET + 1):
            # walks asking for the same draws share one array of them:
            # (indices, retries, draws, the walks that read them) per array
            drawn = []
            for w in range(walks):
                if not (span[w] and len(todo[w])):
                    continue
                for t, k, _, readers in drawn:
                    if k == span[w] and (t is todo[w] or np.array_equal(t, todo[w])):
                        readers.append(w)
                        break
                else:
                    drawn.append((todo[w], span[w], plan.points(todo[w], range(r, r + span[w])),
                                  [w]))
            if not drawn:
                break
            for _, k, points, readers in drawn:
                lanes = len(points)
                fit = RESAMPLE_BUDGET * BLOCK // lanes  # walks per call, at least one
                for c in range(0, len(readers), fit):
                    call = tuple(readers[c:c + fit])
                    with np.errstate(all="ignore"):  # non-finite values fail in the verdict
                        st, payload = evaluate(points, call)
                    st = np.asarray(st, dtype=int)
                    for j, w in enumerate(call):
                        index, draws, status, rows, _ = logs[w]
                        n, here = len(todo[w]), slice(j * lanes, (j + 1) * lanes)
                        keep, done, todo[w] = _recorded(todo[w], (st[here] != 0).reshape(k, n))
                        index.append(done)
                        draws.append(points[keep])
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
