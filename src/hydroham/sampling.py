"""Deterministic sample plans for randomized identity checks.

Point i of a plan is a pure function of (seed, i, retry): each draw seeds its
own counter-based generator, so parallel or out-of-order evaluation cannot
change results, and a point hit by a domain violation can be redrawn
reproducibly by bumping the retry counter.

:func:`resolve` is the one plan walk and holds the one redraw rule: a draw
at which any field of a check leaves its domain is redrawn, and so is any
draw the check's evaluator rejects for its own reason (a degenerate metric,
a singular Jacobian).  It goes through a plan in blocks of :data:`BLOCK`
points, each round one batch of the points still unresolved, drawing
exactly the ``(i, retry)`` pairs a per-point redraw loop would, and records
every draw beside the resolved ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HostileDomainError

RESAMPLE_BUDGET = 16
REDRAW_DOMAIN = 1  # evaluator status: a field left its domain at the drawn point
# Plan points evaluated as one batch, so the arrays an evaluator builds stay
# bounded whatever the point count.
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"sampling interval [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise ValueError(f"empty sampling interval [{lo}, {hi}]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not (math.isfinite(self.floor) and self.floor >= 0):
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")
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


def resolve(plan: SamplePlan, evaluate, hostile: str) -> Resolved:
    """Resolve every plan point, evaluating each round of draws as a batch.

    The plan goes in blocks of :data:`BLOCK` points.  Round r of a block
    draws ``plan.point(i, r)`` for every i of the block, in order, that no
    earlier round resolved, and calls ``evaluate(points)``, which returns
    ``(status, payload)``: a status per lane (0 for resolved, any other
    value for a draw to redraw, :data:`REDRAW_DOMAIN` when a field left its
    domain there) and a tuple of arrays with one row per lane.  These are
    exactly the draws of a per-point redraw loop; a block stops when every
    point is resolved or has spent the resample budget.

    A point whose every draw was a domain violation raises
    HostileDomainError with ``hostile`` formatted with its index, for the
    first such point in plan order.  Any other point that spends the budget
    is left unresolved and listed in ``Resolved.unresolved``.
    """
    index, retry, draws, status, rows, unresolved = [], [], [], [], [], []
    for start in range(0, plan.count, BLOCK):
        todo = np.arange(start, min(start + BLOCK, plan.count))
        domain_only = np.ones(len(todo), bool)  # every draw so far a domain violation
        for r in range(RESAMPLE_BUDGET + 1):
            if not todo.size:
                break
            points = np.array([plan.point(int(i), r) for i in todo])
            st, payload = evaluate(points)
            st = np.asarray(st, dtype=int)
            index.append(todo)
            retry.append(np.full(len(todo), r))
            draws.append(points)
            status.append(st)
            rows.append(payload)
            again = st != 0
            todo, domain_only = todo[again], (domain_only & (st == REDRAW_DOMAIN))[again]
        if domain_only.any():
            raise HostileDomainError(hostile.format(int(todo[np.argmax(domain_only)])))
        unresolved.append(todo)
    order = np.argsort(np.concatenate(index) * (RESAMPLE_BUDGET + 1) + np.concatenate(retry))
    status = np.concatenate(status)[order]
    draws = np.concatenate(draws)[order]
    rows = tuple(np.concatenate(arrays)[order] for arrays in zip(*rows))
    ok = status == 0
    return Resolved(draws[ok], tuple(a[ok] for a in rows), draws, status, rows,
                    np.concatenate(unresolved))
