"""The tolerance policy and the exception types shared across the package.

Every tolerance is named once below, by role, and no module writes one
as a literal. `holds` decides every verdict; `clamp_unit` every range."""

from __future__ import annotations

__all__ = [
    "ConventionError", "DilemmaViolation", "FinegamesError", "InvalidDensityError",
    "NoJointError", "NormalizationError", "ParamError", "RangeError", "ShapeError",
    "UnknownScenarioError",
]

# Input validation: how far a supplied value may miss an exact constraint.
NORMALIZATION_TOL = 1e-9  # a norm squared, trace or sum of probabilities against 1
EIGENVALUE_FLOOR = -1e-10  # smallest eigenvalue of a density or a POVM element
# Algebraic zero: within ZERO_TOL a value beyond [0, 1] reads as its bound,
# a matrix as hermitian or player-symmetric, a payoff row as zero-sum, two
# payoffs as tied and a slope as flat.
ZERO_TOL = 1e-12
ROOT_ZERO_TOL = 1e-13  # _smallest_root: a quadratic's constant or vertex value
FLAT_SLOPE_TOL = 1e-15  # coop_best_response_solve: the slope difference it divides by
# Verdict floors, the `tol` of holds.
SLACK_TOL = 1e-12  # Bell slacks, outcome weights and reconstruction terms
DEFAULT_NE_TOL = 1e-9  # endpoint gains; how far a solved strategy may leave [0, 1]
REFERENCE_TOL = 1e-9  # reference rows: a default report's distance from a published value


def holds(slack, tol: float = SLACK_TOL):
    """The verdict predicate: a slack (float or array) holds at -tol or above."""
    return slack >= -tol


def clamp_unit(value: float, what: str) -> float:
    """value clamped into [0, 1] if within ZERO_TOL of it, else a RangeError (NaN too)."""
    if not -ZERO_TOL <= value <= 1.0 + ZERO_TOL:
        raise RangeError(f"{what} = {value!r} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


class FinegamesError(Exception):
    """Base class for all package-specific errors."""


class NormalizationError(FinegamesError, ValueError):
    """State amplitudes or mixture weights do not sum to one."""


class InvalidDensityError(FinegamesError, ValueError):
    """Density matrix fails hermiticity, trace, or positivity checks."""


class RangeError(FinegamesError, ValueError):
    """A probability-like value left its admissible range.

    `field` names the argument holding the value when a constructor
    checks several (None otherwise), so a caller can place the error
    without reading its message.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ConventionError(FinegamesError, ValueError):
    """An operation received a marginal set under the wrong convention."""


class ShapeError(FinegamesError, ValueError):
    """An array argument has the wrong shape or structure."""


class DilemmaViolation(FinegamesError, ValueError):
    """Dilemma payoff parameters break one of the defining inequalities.

    The message names the failed condition.
    """


class ParamError(FinegamesError, ValueError):
    """Bad scenario or CLI parameter; the message carries the field path."""


class UnknownScenarioError(FinegamesError, KeyError):
    """Requested scenario id is not registered."""


class NoJointError(FinegamesError):
    """No joint distribution reproduces the supplied marginals; carries
    only the indices of the violated distribution terms."""

    def __init__(self, violated_terms):
        self.violated_terms = tuple(violated_terms)
        super().__init__(
            "no joint distribution exists: terms %s negative" % (list(self.violated_terms),)
        )
