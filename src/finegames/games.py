"""Three-player bimatrix-cube games over dichotomic choices.

A game is an 8x3 payoff table: one row per sign outcome (same order as
fine.OUTCOME_LABELS / the qstates basis), one column per player. The
first choice (+1, bit 0) is "cooperate", the second (-1) "defect".

Payoffs come in three equivalent forms:

* outcome form: expectation against an explicit joint distribution;
* marginal form: an affine expression in the seven marginal values;
* factorizable form: for three independent mixed strategies the
  conjunction marginals are the monomials (lam, mu, nu, lam mu, mu nu,
  lam nu, lam mu nu), so each payoff is one multilinear polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DilemmaViolation, RangeError, ShapeError, clamp_unit
from .fine import JointDistribution
from .measurement import MARGINAL_FIELDS, MOBIUS, MarginalConvention, MarginalSet, _SUBSETS
from .measurement import _apply, convert_marginals
from .qstates import PLAYERS, _as_matrix, _freeze, _trusted, basis_bit

__all__ = [
    "DEFAULT_PD_PARAMS", "MARGINAL_COEFF_ORDER", "PayoffTable", "PdParams", "StrategyTriple",
    "coop_game", "marginal_form_coefficients", "payoff_factorizable", "payoff_marginal_form",
    "payoff_marginal_values", "payoff_outcome_form", "pd3", "strategy_marginals",
]

# Largest payoff magnitude a table accepts: sums of a few entries and
# the squares the equilibrium solvers take of them stay finite.
MAX_PAYOFF = 1e150
_TOO_LARGE = f"a payoff table entry exceeds {MAX_PAYOFF:g} in magnitude"

# Column order of marginal_form_coefficients.
MARGINAL_COEFF_ORDER = ("xi", "p_ab", "p_bc", "p_ac", "lam", "mu", "nu", "const")

# Player p's view of the payoff polynomial, with opponents q = _Q[p] <
# r = _R[p]: p's payoff is REST + x_p * SLOPE, each bilinear in (x_q, x_r).
# Column p lists the polynomial rows (in _SUBSETS order) of REST's
# monomials (1, x_q, x_r, x_q x_r), then of SLOPE's (x_p, x_p x_q,
# x_p x_r, x_p x_q x_r). coeffs[_REST, _PLAYER] and coeffs[_SLOPE, _PLAYER]
# read every player's column at once, coeffs[_SLOPE[:, p], p] player p's alone.
_PLAYER = np.arange(3)
_Q, _R = np.array([[q for q in range(3) if q != p] for p in range(3)]).T
_VIEW = np.array([[
    _SUBSETS.index("".join(PLAYERS[i] for i in sorted(own + rest)))
    for own in ((), (p,)) for rest in ((), (q,), (r,), (q, r))
] for p, q, r in zip(range(3), _Q, _R)]).T
_REST, _SLOPE = np.ascontiguousarray(_VIEW[:4]), np.ascontiguousarray(_VIEW[4:])
# The polynomial's rows in MARGINAL_COEFF_ORDER: under independence,
# row k's monomial equals the k-th value of ("const", *MARGINAL_FIELDS).
_MARGINAL_ROWS = np.array([("const", *MARGINAL_FIELDS).index(n) for n in MARGINAL_COEFF_ORDER])

# The symmetric layout of pd3 and coop_game: a player's payoff depends on
# its own choice and on how many opponents defect. Entry (k, p) is the
# position, in PdParams.as_tuple() order, of the level paying player p at
# outcome k: _LEVEL[own bit][defecting opponents].
_LEVEL = ((0, 2, 3), (1, 5, 4))
_SYMMETRIC = np.array([
    [_LEVEL[bits[p]][sum(bits) - bits[p]] for p in range(3)]
    for bits in ([basis_bit(k, player) for player in PLAYERS] for k in range(8))
])
# Entry (k, p): outcome k with A's and p's bits swapped (B's and C's for
# p = A), where a player-symmetric table pays A what it pays p at k.
_EXCHANGE = np.array([
    [sum(bits[i] << (2 - j) for j, i in enumerate(swap))
     for swap in ((0, 2, 1), (1, 0, 2), (2, 1, 0))]
    for bits in ([basis_bit(k, player) for player in PLAYERS] for k in range(8))
])


@dataclass(frozen=True)
class PayoffTable:
    """Payoff entries, shape (8, 3): outcome row, player column."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_matrix(self.entries, 8, 3, "payoff table", np.float64)
        if np.max(np.abs(entries)) > MAX_PAYOFF:
            raise RangeError(_TOO_LARGE)
        object.__setattr__(self, "entries", _freeze(entries))

    @cached_property
    def _polynomial(self) -> np.ndarray:
        """Coefficients of the factorizable payoffs, shape (8, 3), read-only
        and computed on the first read. Row m multiplies the m-th monomial of
        (1, lam, mu, nu, lam mu, mu nu, lam nu, lam mu nu). Outcome weights
        are MOBIUS @ (1, lam, ..., xi), so weights @ t has coefficients MOBIUS.T @ t."""
        return _freeze(_apply(MOBIUS.T, self.entries.T).T)


@dataclass(frozen=True)
class StrategyTriple:
    """Cooperation probabilities of players A, B, C."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        for name in ("lam", "mu", "nu"):
            value = clamp_unit(float(getattr(self, name)), f"strategy {name}")
            object.__setattr__(self, name, value)

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
        # pd3's entries are the levels themselves: the table's own bound.
        if max(map(abs, values)) > MAX_PAYOFF:
            raise RangeError(_TOO_LARGE)
        ac, ld, dc, lc, ad, dd = values
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
    """Symmetric three-player dilemma table from its payoff levels.

    Its entries are the six levels, which PdParams has checked: finite
    and within MAX_PAYOFF, so the table skips PayoffTable's checks.
    """
    entries = np.array(params.as_tuple(), dtype=np.float64)[_SYMMETRIC]
    return _trusted(PayoffTable, entries=_freeze(entries))


# coop_game's table, built once from its levels: a table is frozen and
# its arrays are read-only, so every caller can share it.
_COOP_GAME = PayoffTable(np.array([0.0, -2.0, 1.0, -2.0, 0.0, 1.0])[_SYMMETRIC])


def coop_game() -> PayoffTable:
    """Odd-man-out game: a lone dissenter pays the other two.

    Whoever chooses differently from both others transfers one unit to
    each of them; unanimous outcomes pay nothing. Every row sums to
    zero. Every call returns the same table.
    """
    return _COOP_GAME


def payoff_outcome_form(table: PayoffTable, joint: JointDistribution) -> np.ndarray:
    """Expected payoffs (A, B, C) against a joint outcome distribution."""
    return joint.prob @ table.entries


def _bilinear(c, xq, xr):
    """c[0] + c[1] x_q + c[2] x_r + c[3] x_q x_r, summed from the x_q x_r
    term down: payoffs, slopes and slope planes all take it, so they
    carry the same bits."""
    return c[3] * xq * xr + c[1] * xq + c[2] * xr + c[0]


def _slopes(coeffs: np.ndarray, x) -> np.ndarray:
    """Own-probability slopes (A, B, C) at a (..., 3) batch.

    Each payoff is affine in its player's own probability: the slope is
    the exact partial derivative, and the payoff at an own endpoint e is
    payoff + (e - x_p) * slope. Every entry is computed elementwise, so
    its bits do not depend on the batch's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    return _bilinear(coeffs[_SLOPE, _PLAYER], x[..., _Q], x[..., _R])


def _slope_plane(coeffs: np.ndarray, p: int, xq: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """Player p's own-probability slopes over broadcast opponent values
    xq and xr of p's opponents q < r: p's column of _slopes."""
    return _bilinear(coeffs[_SLOPE[:, p], p], xq, xr)


def marginal_form_coefficients(table: PayoffTable) -> np.ndarray:
    """Affine coefficients of the payoffs in the seven marginals.

    Returns shape (8, 3): rows follow MARGINAL_COEFF_ORDER
    (xi, p_ab, p_bc, p_ac, lam, mu, nu, constant), columns are players.
    They are the payoff polynomial's coefficients, each monomial read
    as the conjunction marginal it equals under independence.
    """
    return table._polynomial.take(_MARGINAL_ROWS, axis=0)


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

    Evaluates the affine form anywhere, off the probability simplex too;
    payoff_marginal_form feeds it a checked marginal set.
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


def strategy_marginals(
    s: StrategyTriple, convention: MarginalConvention
) -> MarginalSet:
    """Marginal set induced by independent mixed strategies."""
    lam, mu, nu = s.as_tuple()
    conj = (lam, mu, nu, lam * mu, mu * nu, lam * nu, lam * mu * nu)
    return convert_marginals(MarginalSet(*conj, MarginalConvention.CONJUNCTION), convention)


def payoff_factorizable(table: PayoffTable, s: StrategyTriple) -> np.ndarray:
    """Expected payoffs (A, B, C) of independent mixed strategies: REST
    plus the own probability times the slope."""
    coeffs, x = table._polynomial, np.array(s.as_tuple())
    return _bilinear(coeffs[_REST, _PLAYER], x[_Q], x[_R]) + x * _slopes(coeffs, x)
