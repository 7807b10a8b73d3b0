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
from .measurement import SLACK_TOL, MarginalConvention, MarginalSet

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
    lam, mu, nu = m.lam, m.mu, m.nu
    p_ab, p_bc, p_ac = m.p_ab, m.p_bc, m.p_ac
    return np.array(
        [
            xi,
            p_ab - xi,
            p_ac - xi,
            lam - p_ab - p_ac + xi,
            p_bc - xi,
            mu - p_ab - p_bc + xi,
            nu - p_ac - p_bc + xi,
            1.0 - lam - mu - nu + p_ab + p_ac + p_bc - xi,
        ]
    )


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
    if rule is XiRule.GIVEN:
        xi = m.xi
    else:
        lower, upper = _xi_bounds(m)
        interval = XiInterval(lower, upper)
        if interval.is_empty:
            bad = _condition_terms(m, interval.midpoint())
            violated = tuple(int(i) for i in np.nonzero(bad < -SLACK_TOL)[0])
            raise NoJointError(violated, bell_slacks(m))
        xi = interval.midpoint() if rule is XiRule.MIDPOINT else lower
    terms = _condition_terms(m, xi)
    violated = tuple(int(i) for i in np.nonzero(terms < -SLACK_TOL)[0])
    if violated:
        raise NoJointError(violated, bell_slacks(m))
    return JointDistribution(np.clip(terms, 0.0, None))


def marginals_from_joint(
    j: JointDistribution, convention: MarginalConvention
) -> MarginalSet:
    """Marginal probabilities of an explicit joint distribution."""
    p = j.prob
    lam = float(p[0] + p[1] + p[2] + p[3])
    mu = float(p[0] + p[1] + p[4] + p[5])
    nu = float(p[0] + p[2] + p[4] + p[6])
    if convention is MarginalConvention.CONJUNCTION:
        p_ab = float(p[0] + p[1])
        p_bc = float(p[0] + p[4])
        p_ac = float(p[0] + p[2])
        xi = float(p[0])
    else:
        p_ab = float(p[0] + p[1] + p[6] + p[7])
        p_bc = float(p[0] + p[3] + p[4] + p[7])
        p_ac = float(p[0] + p[2] + p[5] + p[7])
        xi = float(p[0] + p[3] + p[5] + p[6])
    return MarginalSet(lam, mu, nu, p_ab, p_bc, p_ac, xi, convention)
