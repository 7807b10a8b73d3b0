"""Three-player bimatrix-cube games over dichotomic choices.

A game is an 8x3 payoff table: one row per sign outcome (same order as
fine.OUTCOME_LABELS / the qstates basis), one column per player. The
first choice (+1, bit 0) is "cooperate", the second (-1) "defect".

Payoffs come in three equivalent forms:

* outcome form: expectation against an explicit joint distribution;
* marginal form: an affine expression in the seven marginal values;
* factorizable form: the marginal form evaluated on the product
  distribution of three independent mixed strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DilemmaViolation, RangeError, ShapeError
from .fine import JointDistribution, marginals_from_joint
from .measurement import MarginalConvention, MarginalSet

# Column order of marginal_form_coefficients.
MARGINAL_COEFF_ORDER = ("xi", "p_ab", "p_bc", "p_ac", "lam", "mu", "nu", "const")


@dataclass(frozen=True)
class PayoffTable:
    """Payoff entries, shape (8, 3): outcome row, player column."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64)
        if entries.shape != (8, 3):
            raise ShapeError(f"payoff table must be 8x3, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ShapeError("payoff table contains non-finite entries")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class StrategyTriple:
    """Cooperation probabilities of players A, B, C."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        for name in ("lam", "mu", "nu"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < -1e-12 or value > 1.0 + 1e-12:
                raise RangeError(f"strategy {name} = {value!r} outside [0, 1]")
            object.__setattr__(self, name, min(max(value, 0.0), 1.0))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam, self.mu, self.nu)


@dataclass(frozen=True)
class PdParams:
    """Payoff levels of the symmetric three-player dilemma.

    Named by the situation that pays them: `all_cooperate` when all
    three cooperate, `lone_defector` to the single defector against two
    cooperators, `duo_cooperator` to each of those two cooperators,
    `lone_cooperator` to a single cooperator against two defectors,
    `duo_defector` to each of those two defectors, `all_defect` when
    all three defect. Construction enforces the dilemma inequalities
    and names the first one violated.
    """

    all_cooperate: float
    lone_defector: float
    duo_cooperator: float
    lone_cooperator: float
    all_defect: float
    duo_defector: float

    def __post_init__(self):
        values = self.as_tuple()
        if not all(np.isfinite(values)):
            raise ShapeError("dilemma parameters must be finite")
        ac, ld, dc, lc, ad, dd = (
            self.all_cooperate,
            self.lone_defector,
            self.duo_cooperator,
            self.lone_cooperator,
            self.all_defect,
            self.duo_defector,
        )
        conditions = (
            ("lone_defector > all_cooperate", ld > ac),
            ("all_defect > lone_cooperator", ad > lc),
            ("duo_defector > duo_cooperator", dd > dc),
            ("lone_defector > duo_defector > all_defect", ld > dd > ad),
            ("all_cooperate > duo_cooperator > lone_cooperator", ac > dc > lc),
            ("duo_cooperator > all_defect", dc > ad),
            ("all_cooperate > duo_defector", ac > dd),
            (
                "duo_cooperator > mean(lone_cooperator, duo_defector)",
                dc > (lc + dd) / 2.0,
            ),
            (
                "all_cooperate > mean(duo_cooperator, lone_defector)",
                ac > (dc + ld) / 2.0,
            ),
        )
        for name, holds in conditions:
            if not holds:
                raise DilemmaViolation(f"dilemma condition failed: {name}")

    def as_tuple(self) -> tuple[float, ...]:
        """The six levels in the conventional descriptor order."""
        return (
            self.all_cooperate,
            self.lone_defector,
            self.duo_cooperator,
            self.lone_cooperator,
            self.all_defect,
            self.duo_defector,
        )


DEFAULT_PD_PARAMS = PdParams(
    all_cooperate=7.0,
    lone_defector=9.0,
    duo_cooperator=3.0,
    lone_cooperator=0.0,
    all_defect=1.0,
    duo_defector=5.0,
)


def pd3(params: PdParams = DEFAULT_PD_PARAMS) -> PayoffTable:
    """Symmetric three-player dilemma table from its payoff levels."""
    ac, ld, dc, lc, ad, dd = params.as_tuple()
    return PayoffTable(
        np.array(
            [
                [ac, ac, ac],
                [dc, dc, ld],
                [dc, ld, dc],
                [lc, dd, dd],
                [ld, dc, dc],
                [dd, lc, dd],
                [dd, dd, lc],
                [ad, ad, ad],
            ]
        )
    )


def coop_game() -> PayoffTable:
    """Odd-man-out game: a lone dissenter pays the other two.

    Whoever chooses differently from both others transfers one unit to
    each of them; unanimous outcomes pay nothing. Every row sums to
    zero.
    """
    return PayoffTable(
        np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 1.0, -2.0],
                [1.0, -2.0, 1.0],
                [-2.0, 1.0, 1.0],
                [-2.0, 1.0, 1.0],
                [1.0, -2.0, 1.0],
                [1.0, 1.0, -2.0],
                [0.0, 0.0, 0.0],
            ]
        )
    )


def payoff_outcome_form(table: PayoffTable, joint: JointDistribution) -> np.ndarray:
    """Expected payoffs (A, B, C) against a joint outcome distribution."""
    return joint.prob @ table.entries


def marginal_form_coefficients(table: PayoffTable) -> np.ndarray:
    """Affine coefficients of the payoffs in the seven marginals.

    Returns shape (8, 3): rows follow MARGINAL_COEFF_ORDER
    (xi, p_ab, p_bc, p_ac, lam, mu, nu, constant), columns are players.
    Substituting the inclusion-exclusion expansion of each outcome
    probability into the outcome form and collecting terms gives these
    combinations of table rows.
    """
    t = table.entries
    return np.array(
        [
            t[0] - t[1] - t[2] + t[3] - t[4] + t[5] + t[6] - t[7],
            t[1] - t[3] - t[5] + t[7],
            t[4] - t[5] - t[6] + t[7],
            t[2] - t[3] - t[6] + t[7],
            t[3] - t[7],
            t[5] - t[7],
            t[6] - t[7],
            t[7],
        ]
    )


def payoff_marginal_values(
    table: PayoffTable,
    lam: float,
    mu: float,
    nu: float,
    p_ab: float,
    p_bc: float,
    p_ac: float,
    xi: float,
) -> np.ndarray:
    """Marginal-form payoffs from raw values (no range validation).

    Useful for evaluating the affine form off the probability simplex,
    e.g. when extracting reduced coefficients of a state family.
    """
    coeffs = marginal_form_coefficients(table)
    vec = np.array([xi, p_ab, p_bc, p_ac, lam, mu, nu, 1.0])
    return vec @ coeffs


def payoff_marginal_form(table: PayoffTable, m: MarginalSet) -> np.ndarray:
    """Expected payoffs (A, B, C) from a marginal set, evaluated literally.

    The affine expression is the conjunction-form one; feeding parity
    values evaluates the same expression on those numbers, which is
    exactly how the quantum readings are scored.
    """
    return payoff_marginal_values(
        table, m.lam, m.mu, m.nu, m.p_ab, m.p_bc, m.p_ac, m.xi
    )


def strategy_weights(s: StrategyTriple) -> np.ndarray:
    """Product distribution over the eight outcomes of independent mixes."""
    lam, mu, nu = s.as_tuple()
    return np.multiply.outer(
        np.multiply.outer([lam, 1.0 - lam], [mu, 1.0 - mu]), [nu, 1.0 - nu]
    ).ravel()


def strategy_marginals(
    s: StrategyTriple, convention: MarginalConvention
) -> MarginalSet:
    """Marginal set induced by independent mixed strategies."""
    joint = JointDistribution(strategy_weights(s))
    return marginals_from_joint(joint, convention)


def payoff_factorizable(table: PayoffTable, s: StrategyTriple) -> np.ndarray:
    """Expected payoffs (A, B, C) of independent mixed strategies."""
    return strategy_weights(s) @ table.entries
