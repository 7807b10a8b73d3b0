"""Exception types shared across the package."""

from __future__ import annotations


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
    """No joint distribution reproduces the supplied marginals.

    Carries the indices of the violated distribution terms and the
    Bell-inequality report evaluated on the same marginal set.
    """

    def __init__(self, violated_terms, bell_report, message=None):
        self.violated_terms = tuple(violated_terms)
        self.bell_report = bell_report
        if message is None:
            message = (
                "no joint distribution exists: terms %s negative"
                % (list(self.violated_terms),)
            )
        super().__init__(message)
