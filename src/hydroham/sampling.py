"""Deterministic sample plans for randomized identity checks.

Point i of a plan is a pure function of (seed, i, retry): each draw seeds its
own counter-based generator, so parallel or out-of-order evaluation cannot
change results, and a point hit by a domain violation can be redrawn
reproducibly by bumping the retry counter.

Checks go through a plan in blocks of :data:`BLOCK` points (:func:`blocks`,
:func:`draw`).  :func:`sweep` is the one redraw mechanism: it evaluates a
block in rounds, each round one batch of the points still unresolved, and
draws exactly the ``(i, retry)`` pairs a per-point redraw loop would;
:func:`resolve` runs it over the whole plan and returns each point's
resolved draw in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HostileDomainError

RESAMPLE_BUDGET = 16
REDRAW_DOMAIN = 1  # sweep status: a domain violation at the drawn point
# Plan points evaluated as one batch.  Checks go through a plan block by
# block, so the arrays they hold stay bounded whatever the point count.
BLOCK = 25

DEFAULT_COUNT = 100
DEFAULT_TOLERANCE = 1e-9
DEFAULT_FLOOR = 1e-12


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
            if not lo < hi:
                raise ValueError(f"empty sampling interval [{lo}, {hi}]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        # box corners as arrays, kept out of the fields (eq, hash, echo)
        object.__setattr__(self, "_lo", np.array([b[0] for b in self.box], dtype=float))
        object.__setattr__(self, "_hi", np.array([b[1] for b in self.box], dtype=float))

    def point(self, i: int, retry: int = 0) -> np.ndarray:
        # the generator np.random.default_rng((seed, i, retry)) builds
        u = np.random.Generator(np.random.PCG64((self.seed, i, retry))).random(self.dim)
        return self._lo + (self._hi - self._lo) * u

    def echo(self) -> dict:
        return {
            "dim": self.dim,
            "box": [list(b) for b in self.box],
            "count": self.count,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "floor": self.floor,
        }


def default_plan(dim: int, box=None, count: int = DEFAULT_COUNT, seed: int = 0,
                 tolerance: float = DEFAULT_TOLERANCE, floor: float = DEFAULT_FLOOR) -> SamplePlan:
    """Plan over [-1, 1]^dim unless a box is given."""
    if box is None:
        box = tuple((-1.0, 1.0) for _ in range(dim))
    return SamplePlan(dim=dim, box=tuple(tuple(b) for b in box), count=count,
                      seed=seed, tolerance=tolerance, floor=floor)


class SweepRound(NamedTuple):
    """One round of :func:`sweep`: the plan points it drew and their fate."""

    retry: int
    index: np.ndarray  # plan index of each lane
    points: np.ndarray  # (lanes, dim), plan.point(index[k], retry)
    status: np.ndarray  # per lane: 0 resolved, else the evaluator's redraw cause
    payload: object  # whatever the evaluator returned beside the status


def blocks(plan: SamplePlan) -> list:
    """The plan's point indices in contiguous runs of at most BLOCK, in order."""
    return [np.arange(start, min(start + BLOCK, plan.count))
            for start in range(0, plan.count, BLOCK)]


def draw(plan: SamplePlan, index, retry: int = 0) -> np.ndarray:
    """``plan.point(i, retry)`` for every i of ``index``, as rows."""
    return np.array([plan.point(int(i), retry) for i in index])


def sweep(plan: SamplePlan, evaluate, index) -> list[SweepRound]:
    """Resolve the plan points ``index`` in rounds, evaluating each round as
    a batch.

    Round r draws ``plan.point(i, r)`` for every i, in the given order, that
    no earlier round resolved, and calls ``evaluate(points)``, which returns
    ``(status, payload)`` with a status per lane: 0 for resolved, any other
    value for a point to redraw.  This draws exactly the points a per-point
    redraw loop draws; rounds stop when everything is resolved or the
    resample budget is spent.  Points still unresolved are those of the
    last round with a nonzero status after ``RESAMPLE_BUDGET`` redraws.
    """
    rounds = []
    for retry in range(RESAMPLE_BUDGET + 1):
        if index.size == 0:
            break
        points = draw(plan, index, retry)
        status, payload = evaluate(points)
        status = np.asarray(status)
        rounds.append(SweepRound(retry, index, points, status, payload))
        index = index[status != 0]
    return rounds


class Resolved(NamedTuple):
    """Every point of a plan resolved by :func:`resolve`, in plan order."""

    points: np.ndarray  # (count, dim), the draw of each point that resolved
    payload: tuple  # the evaluator's per-lane arrays at those draws
    redrawn: np.ndarray  # the status of every draw that was redrawn


def resolve(plan: SamplePlan, evaluate, hostile: str) -> Resolved:
    """Resolve every plan point, block by block, through :func:`sweep`.

    ``evaluate(points)`` returns ``(status, payload)``, the payload a tuple
    of arrays with one row per lane.  A point still unresolved after the
    resample budget raises HostileDomainError with ``hostile`` formatted
    with its index; blocks go in plan order, so that is the first such
    point.
    """
    points, payload, redrawn = [], [], []
    for index in blocks(plan):
        rounds = sweep(plan, evaluate, index)
        last = rounds[-1]
        if last.status.any():
            raise HostileDomainError(hostile.format(int(last.index[np.argmax(last.status != 0)])))
        redrawn += [rd.status[rd.status != 0] for rd in rounds]
        if len(rounds) == 1:
            points.append(last.points)
            payload.append(last.payload)
            continue
        ok = [rd.status == 0 for rd in rounds]
        order = np.argsort(np.concatenate([rd.index[k] for rd, k in zip(rounds, ok)]),
                           kind="stable")
        points.append(np.concatenate([rd.points[k] for rd, k in zip(rounds, ok)])[order])
        payload.append(tuple(
            np.concatenate([rd.payload[j][k] for rd, k in zip(rounds, ok)])[order]
            for j in range(len(last.payload))))
    return Resolved(np.concatenate(points),
                    tuple(np.concatenate(arrays) for arrays in zip(*payload)),
                    np.concatenate(redrawn))
