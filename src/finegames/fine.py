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

from .errors import SLACK_TOL, ConventionError, NoJointError, RangeError, ShapeError, holds
from .measurement import (
    MOBIUS,
    MarginalConvention,
    MarginalSet,
    _apply,
    _marginal_set,
    marginal_values,
)
from .qstates import BASIS_LABELS, _freeze, _trusted

__all__ = [
    "BellReport", "JointDistribution", "OUTCOME_LABELS", "XiInterval", "XiRule",
    "bell_slack_values", "bell_slacks", "marginals_from_joint", "reconstruct_joint",
    "xi_interval",
]

# Outcome order of joint distributions, the basis order of qstates:
# index bits (a, b, c), bit 0 = outcome +1.
OUTCOME_LABELS = tuple("(%s)" % ",".join("+-"[int(b)] for b in bits) for bits in BASIS_LABELS)


@dataclass(frozen=True)
class BellReport:
    """Slack of the four joint-existence inequalities.

    Each slack is right-hand side minus left-hand side, so the
    inequality holds when its slack is non-negative; the report is
    `satisfied` when all four hold.
    """

    slack: tuple[float, float, float, float]
    convention_note: str

    def __post_init__(self):
        slack = tuple(float(s) for s in self.slack)
        if len(slack) != 4 or not all(np.isfinite(slack)):
            raise ShapeError("slack must be four finite reals")
        object.__setattr__(self, "slack", slack)

    @property
    def satisfied(self) -> bool:
        return holds(min(self.slack))


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
        low = float(np.min(p))
        if not holds(low):
            raise RangeError(f"joint distribution has negative entries: min {low!r}")
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
    return _apply(MOBIUS, (1.0, m.lam, m.mu, m.nu, m.p_ab, m.p_bc, m.p_ac, xi))


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


_NOTES = {c: f"evaluated on {c.value}-convention values" for c in MarginalConvention}


def _slack_terms(lam, mu, nu, p_ab, p_bc, p_ac) -> tuple:
    """The four slacks, RHS minus LHS, of Python floats or of columns."""
    return (
        1.0 + p_ab + p_ac + p_bc - (lam + mu + nu),
        lam + p_bc - (p_ab + p_ac),
        mu + p_ac - (p_ab + p_bc),
        nu + p_ab - (p_ac + p_bc),
    )


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
    return np.array(_slack_terms(*v.T[:6])).T


def bell_slacks(m: MarginalSet) -> BellReport:
    """Bell report of one marginal set of either convention; the note
    records which one the values came from."""
    # Sums of seven values in [0, 1]: four finite reals by construction.
    # Python floats round each operation as float64 columns do.
    slack = _slack_terms(m.lam, m.mu, m.nu, m.p_ab, m.p_bc, m.p_ac)
    return _trusted(BellReport, slack=slack, convention_note=_NOTES[m.convention])


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
    interval. Raises NoJointError (carrying the violated term indices)
    when the implied terms go negative, or when the interval is empty
    under the interval rules. Values are read literally in the
    conjunction sense whatever the tag, mirroring bell_slacks.
    """
    joint, violated = _joint_or_terms(m, rule)
    if joint is None:
        raise NoJointError(violated)
    return joint


def _joint_or_terms(m: MarginalSet, rule: XiRule) -> tuple[JointDistribution | None, list]:
    """The joint reconstruct_joint returns and no terms, or None and the
    violated term indices it raises with: a failed reconstruction as a value."""
    xi, empty = m.xi, False
    if rule is not XiRule.GIVEN:
        interval = XiInterval(*_xi_bounds(m))
        empty = interval.is_empty  # reported with the terms at its midpoint
        use_lower = rule is XiRule.LOWER and not empty
        xi = interval.lower if use_lower else interval.midpoint()
    terms = _condition_terms(m, xi)
    # The terms are finite, as the seven values are, so their minimum
    # tells whether any lies below the floor.
    listed = terms.tolist()
    low = min(listed)
    if not holds(low) or empty:
        return None, [i for i, t in enumerate(listed) if not holds(t)]
    clipped = np.maximum(terms, 0.0)
    if low < 0.0:
        # Zeroing terms within the floor adds their size to the total.
        clipped /= clipped.sum()
    # Finite, non-negative, and summing to 1 to rounding: the terms'
    # MOBIUS column sums are (1, 0, ..., 0), and a rescale restores it.
    return _trusted(JointDistribution, prob=_freeze(clipped)), []


def marginals_from_joint(
    j: JointDistribution, convention: MarginalConvention
) -> MarginalSet:
    """Marginal probabilities of an explicit joint distribution."""
    return _marginal_set(marginal_values(j.prob, convention), convention)
