"""Check reports: per-condition maximal residuals with verdicts.

A report lists one record per verified identity.  A condition passes iff its
scale-normalized residual stays below the plan tolerance at every sample
point; there is no majority voting.  The witness point of the worst residual
is kept whenever the residual is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sampling import SamplePlan


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


def condition_from_arrays(cid: str, description: str, points, raw, scale,
                          tolerance: float, note: Optional[str] = None) -> ConditionResult:
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
        return non_finite_condition(cid, description, points, finite, note)
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
        note=note,
    )


def non_finite_condition(cid: str, description: str, points, finite,
                         note: Optional[str] = None) -> ConditionResult:
    """A failed condition for values that are NaN or infinite at the points
    where ``finite`` is False: residual None, the first such point as
    witness, and a note counting them."""
    first = int(np.argmin(finite))
    what = f"non-finite value at {int(np.sum(~finite))} of {len(finite)} points"
    return ConditionResult(
        cid=cid,
        description=description,
        residual=None,
        witness=tuple(float(x) for x in points[first]),
        passed=False,
        note=what if note is None else f"{note}; {what}",
    )
