"""Check reports: per-condition maximal residuals with verdicts.

A report lists one record per verified identity.  A condition passes iff its
scale-normalized residual stays below the plan tolerance at every sample
point; there is no majority voting.  The witness point of the worst residual
is kept whenever the residual is nonzero.

Every residual verdict is built here, by one rule
(:func:`condition_from_arrays`), from a check's per-point (raw, scale)
pairs: :func:`walk_report` walks a plan and reports one condition per row of
a table, :func:`table_conditions` the same for a walk already made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sampling import Resolved, SamplePlan, resolve


@dataclass
class ConditionResult:
    cid: str
    description: str
    residual: Optional[float]  # None when the condition could not be evaluated
    witness: Optional[tuple]
    passed: bool
    note: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "description": self.description,
            "max_residual": self.residual,
            "witness": None if self.witness is None else list(self.witness),
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class CheckReport:
    title: str
    conditions: list[ConditionResult]
    plan: SamplePlan
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "plan": self.plan.echo(),
            "notes": list(self.notes),
        }

    def format_table(self, color: bool = False) -> str:
        green, red, reset = ("\x1b[32m", "\x1b[31m", "\x1b[0m") if color else ("", "", "")
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.conditions:
            mark = f"{green}pass{reset}" if c.passed else f"{red}FAIL{reset}"
            res = "   n/a   " if c.residual is None else f"{c.residual:9.3e}"
            line = f"  [{mark}] {c.cid:<24} max residual {res}  {c.description}"
            if c.witness is not None:
                line += "  @ (" + ", ".join(f"{x:.4g}" for x in c.witness) + ")"
            if c.note:
                line += f"  [{c.note}]"
            lines.append(line)
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def walk_report(title: str, table, plan: SamplePlan, evaluate) -> tuple[CheckReport, Resolved]:
    """Walk ``plan`` with ``evaluate`` (:func:`~hydroham.sampling.resolve`)
    and report one condition per ``(id, description)`` row of ``table`` at
    the resolved points, reading the payload as one (raw, scale) pair per
    row, in row order.  Returns the report and the walk."""
    found = resolve(plan, evaluate)
    pairs = zip(found.payload[0::2], found.payload[1::2])
    return CheckReport(title, table_conditions(table, found.points, pairs, plan.tolerance),
                       plan), found


def table_conditions(table, points, pairs, tolerance: float) -> list[ConditionResult]:
    """One condition per row of ``table``, whose first two entries are the id
    and the description, from the per-point (raw, scale) pair of that row in
    ``pairs``, at ``points`` (:func:`condition_from_arrays`)."""
    return [condition_from_arrays(cid, description, points, raw, scale, tolerance)
            for (cid, description, *_), (raw, scale) in zip(table, pairs)]


def condition_from_arrays(cid: str, description: str, points, raw, scale,
                          tolerance: float) -> ConditionResult:
    """Aggregate per-point raw residuals and scales, given in plan order,
    into one condition.

    The normalized residual at a point is |raw| / max(1, scale); the
    condition passes iff the normalized residual is within tolerance
    everywhere.  The witness is the first point of the largest residual.  A
    raw value or scale that is NaN or infinite fails the condition: its
    residual is then None, its witness the first such point, and the note
    counts them.
    """
    raw = np.abs(np.asarray(raw, dtype=float))
    scale = np.asarray(scale, dtype=float)
    finite = np.isfinite(raw) & np.isfinite(scale)
    if not finite.all():
        first = int(np.argmin(finite))
        return ConditionResult(
            cid=cid,
            description=description,
            residual=None,
            witness=tuple(float(x) for x in points[first]),
            passed=False,
            note=f"non-finite value at {int(np.sum(~finite))} of {len(finite)} points",
        )
    norm = raw / np.maximum(1.0, scale)
    worst, witness = 0.0, None
    if len(norm):
        k = int(np.argmax(norm))
        if norm[k] > 0.0:
            worst, witness = float(norm[k]), tuple(float(x) for x in points[k])
    return ConditionResult(
        cid=cid,
        description=description,
        residual=worst,
        witness=witness,
        passed=bool(worst <= tolerance),
    )
