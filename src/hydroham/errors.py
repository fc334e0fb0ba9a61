"""Exception types shared across the workbench."""


def plain_point(point) -> tuple:
    """A point as a tuple of Python floats, so messages print ``(0.5, -1.0)``
    whatever the element type (numpy scalars print their type under numpy 2)."""
    return tuple(float(x) for x in point)


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WorkbenchError):
    """Malformed expression text.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(WorkbenchError):
    """Evaluation left the domain of an expression (log of a non-positive
    value, division by zero, a negative base under a fractional power, ...).

    ``subtree`` is the textual form of the node that failed, ``point`` the
    coordinates at which it failed.
    """

    def __init__(self, reason: str, subtree: str, point=None):
        self.reason = reason
        self.subtree = subtree
        self.point = None if point is None else plain_point(point)
        msg = f"{reason} in {subtree!r}"
        if point is not None:
            msg += f" at {self.point}"
        super().__init__(msg)


class HostileDomainError(WorkbenchError):
    """Resampling budget exhausted: domain too hostile at plan point ``index``."""

    def __init__(self, index: int):
        super().__init__(f"domain too hostile at sample point {index}")
        self.index = index


class DegenerateMetricError(WorkbenchError):
    """Metric failed the nondegeneracy floor at a point."""

    def __init__(self, det: float, point):
        self.det = det
        self.point = plain_point(point)
        super().__init__(f"degenerate metric: scaled |det| = {abs(det):.3e} at {self.point}")


class ConstraintViolation(WorkbenchError):
    """A preset parameter block violates one of its defining equations."""


class NonConservedCurrentError(WorkbenchError):
    """A current handed to a reciprocal transformation is not conserved."""


class VanishingDenominatorError(WorkbenchError):
    """The denominator field of a reciprocal transformation vanishes on the
    sampling box."""
