"""Deterministic sample plans for randomized identity checks.

Point i of a plan is a pure function of (seed, i, retry): each draw seeds its
own counter-based generator, so parallel or out-of-order evaluation cannot
change results, and a point hit by a domain violation can be redrawn
reproducibly by bumping the retry counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvalDomainError, HostileDomainError

RESAMPLE_BUDGET = 16
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

    def point(self, i: int, retry: int = 0) -> np.ndarray:
        rng = np.random.default_rng((self.seed, i, retry))
        u = rng.random(self.dim)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return lo + (hi - lo) * u

    def points(self):
        for i in range(self.count):
            yield self.point(i)

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


def resolve_point(plan: SamplePlan, i: int, evaluate, retriable=(EvalDomainError,)):
    """Evaluate at point i, redrawing the point on retriable errors.

    Returns (point, result).  Exhausting the retry budget raises
    HostileDomainError (domain too hostile).
    """
    last = None
    for r in range(RESAMPLE_BUDGET + 1):
        p = plan.point(i, r)
        try:
            return p, evaluate(p)
        except retriable as err:
            last = err
    raise HostileDomainError(
        f"domain too hostile: sample point {i} exhausted {RESAMPLE_BUDGET} redraws"
    ) from last


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
        points = np.array([plan.point(int(i), retry) for i in index])
        status, payload = evaluate(points)
        status = np.asarray(status)
        rounds.append(SweepRound(retry, index, points, status, payload))
        index = index[status != 0]
    return rounds
