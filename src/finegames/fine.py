"""Existence of a joint distribution behind pair marginals.

For three dichotomic observables with given singles, pair values, and a
triple value (conjunction reading), an eight-outcome joint distribution
reproducing them exists exactly when four Bell-type inequalities hold.
This module evaluates those inequalities as slack values, bounds the
admissible triple value, and reconstructs explicit joint distributions.

All expressions here are the conjunction-form ones. They are evaluated
literally on whatever seven values are supplied; the report notes
record the convention under which those values were produced, so the
parity-reading numbers can be pushed through the same expressions on
purpose (that mismatch is itself one of the reproduced findings).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConventionError, NoJointError, RangeError, ShapeError
from .measurement import (
    MOBIUS,
    SLACK_TOL,
    MarginalConvention,
    MarginalSet,
    _apply,
    marginal_values,
)

# Outcome order of joint distributions, aligned with the basis order of
# qstates: index bits (a, b, c), bit 0 = outcome +1.
OUTCOME_LABELS = (
    "(+,+,+)",
    "(+,+,-)",
    "(+,-,+)",
    "(+,-,-)",
    "(-,+,+)",
    "(-,+,-)",
    "(-,-,+)",
    "(-,-,-)",
)


@dataclass(frozen=True)
class BellReport:
    """Slack of the four joint-existence inequalities.

    Each slack is right-hand side minus left-hand side, so the
    inequality holds when its slack is non-negative. `satisfied` is
    derived from the slacks, never supplied.
    """

    slack: tuple[float, float, float, float]
    convention_note: str
    satisfied: bool = False

    def __post_init__(self):
        slack = tuple(float(s) for s in self.slack)
        if len(slack) != 4 or not all(np.isfinite(slack)):
            raise ShapeError("slack must be four finite reals")
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "satisfied", min(slack) >= -SLACK_TOL)


@dataclass(frozen=True)
class XiInterval:
    """Admissible range for the triple value given singles and pairs."""

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper + SLACK_TOL

    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the eight sign outcomes, in OUTCOME_LABELS order."""

    prob: np.ndarray

    def __post_init__(self):
        p = np.array(self.prob, dtype=np.float64)
        if p.shape != (8,):
            raise ShapeError(f"joint distribution must have 8 entries, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise RangeError("joint distribution contains non-finite entries")
        if float(np.min(p)) < -SLACK_TOL:
            raise RangeError(
                f"joint distribution has negative entries: min {float(np.min(p))!r}"
            )
        total = float(np.sum(p))
        if abs(total - 1.0) > SLACK_TOL:
            raise RangeError(f"joint distribution sums to {total!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "prob", p)


class XiRule(enum.Enum):
    """How reconstruct_joint picks the triple value."""

    GIVEN = "given"
    MIDPOINT = "mid"
    LOWER = "lower"


def _condition_terms(m: MarginalSet, xi: float) -> np.ndarray:
    """The eight joint probabilities implied by inclusion-exclusion."""
    return _apply(MOBIUS, (1.0, *m.values()[:6], xi))


def _xi_bounds(m: MarginalSet) -> tuple[float, float]:
    lower = max(
        0.0,
        m.p_ab + m.p_ac - m.lam,
        m.p_ab + m.p_bc - m.mu,
        m.p_ac + m.p_bc - m.nu,
    )
    upper = min(
        m.p_ab,
        m.p_ac,
        m.p_bc,
        1.0 - m.lam - m.mu - m.nu + m.p_ab + m.p_ac + m.p_bc,
    )
    return lower, upper


def _note(m: MarginalSet) -> str:
    return f"evaluated on {m.convention.value}-convention values"


def bell_slack_values(values) -> np.ndarray:
    """Slack of the four existence inequalities, RHS minus LHS.

    `values` holds marginal values in MarginalSet field order, shape
    (..., 7); the result has shape (..., 4). Order: (1) the singles-sum
    bound, then the three pair-exchange bounds anchored at players A,
    B, C.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1:] != (7,):
        raise ShapeError(f"marginal values must have shape (..., 7), got {v.shape}")
    # .T reverses every axis, so the field axis leads here and the
    # closing .T puts the slack axis last again.
    lam, mu, nu, p_ab, p_bc, p_ac, _ = v.T
    return np.array(
        [
            1.0 + p_ab + p_ac + p_bc - (lam + mu + nu),
            lam + p_bc - (p_ab + p_ac),
            mu + p_ac - (p_ab + p_bc),
            nu + p_ab - (p_ac + p_bc),
        ]
    ).T


def bell_slacks(m: MarginalSet) -> BellReport:
    """Bell report of one marginal set of either convention; the note
    records which one the values came from."""
    return BellReport(tuple(bell_slack_values(m.values())), _note(m))


def xi_interval(m: MarginalSet) -> XiInterval:
    """Range of triple values consistent with the singles and pairs.

    Conjunction sets only: the bounds are event-algebra statements
    about "all three positive", which has no meaning for parity values.
    """
    if m.convention is not MarginalConvention.CONJUNCTION:
        raise ConventionError(
            "xi_interval requires conjunction-convention marginals"
        )
    lower, upper = _xi_bounds(m)
    return XiInterval(lower, upper)


def reconstruct_joint(
    m: MarginalSet, rule: XiRule = XiRule.GIVEN
) -> JointDistribution:
    """Build the joint distribution the seven values imply, if any.

    With XiRule.GIVEN the supplied triple value is used; MIDPOINT and
    LOWER replace it by the midpoint or lower end of the admissible
    interval. Raises NoJointError (carrying the violated term indices
    and the Bell report) when the implied terms go negative, or when
    the interval is empty under the interval rules. Values are read
    literally in the conjunction sense whatever the tag, mirroring
    bell_slacks.
    """
    xi, empty = m.xi, False
    if rule is not XiRule.GIVEN:
        interval = XiInterval(*_xi_bounds(m))
        empty = interval.is_empty  # reported with the terms at its midpoint
        use_lower = rule is XiRule.LOWER and not empty
        xi = interval.lower if use_lower else interval.midpoint()
    terms = _condition_terms(m, xi)
    violated = tuple(int(i) for i in np.nonzero(terms < -SLACK_TOL)[0])
    if violated or empty:
        raise NoJointError(violated, bell_slacks(m))
    clipped = np.maximum(terms, 0.0)
    if terms.min() < 0.0:
        # Zeroing terms within the floor adds their size to the total.
        clipped /= clipped.sum()
    return JointDistribution(clipped)


def marginals_from_joint(
    j: JointDistribution, convention: MarginalConvention
) -> MarginalSet:
    """Marginal probabilities of an explicit joint distribution."""
    return MarginalSet(*marginal_values(j.prob, convention).tolist(), convention)
