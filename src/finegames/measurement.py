"""Dichotomic measurements on qubit triples and the marginal algebra.

Each player measures sigma_z on their own qubit, outcomes +1/-1. Seven
probabilities summarize a state: three singles (lambda, mu, nu for
players A, B, C), three pair values, and one triple value. Pair and
triple values depend on the reading convention:

* conjunction: probability that every observable in the group is +1;
* parity: probability that the product of the group's outcomes is +1
  (for pairs, "the two agree").

Singles coincide under both readings. Every MarginalSet carries its
convention tag so the two readings can never be silently mixed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EIGENVALUE_FLOOR, ZERO_TOL, RangeError, ShapeError, clamp_unit, holds
from .qstates import PLAYERS, DensityMatrix, _as_vector, _freeze, _trusted

__all__ = [
    "Correlations", "MarginalConvention", "MarginalSet", "PovmElement", "WeightInversion",
    "convert_marginals", "extract_marginals", "marginal_values", "pair_povm", "single_povm",
    "triple_povm", "weights_from_marginals",
]

MARGINAL_FIELDS = ("lam", "mu", "nu", "p_ab", "p_bc", "p_ac", "xi")
# The lattice's monomial order (1, *MARGINAL_FIELDS), by player subset:
# MOBIUS's columns and each player's view of a payoff (games._VIEW).
_SUBSETS = ("", "A", "B", "C", "AB", "BC", "AC", "ABC")

PAIR_LABELS = ("AB", "BC", "AC")


class MarginalConvention(enum.Enum):
    """Reading of pair and triple marginal probabilities."""

    CONJUNCTION = "conjunction"
    PARITY = "parity"


# The outcome lattice. Each map is a Kronecker product over players A,
# B, C of one 2x2 block indexed by (outcome bit, subset bit), outcome bit
# 0 read as +1 (the qstates basis order); the subset columns are then put
# in _SUBSETS order, subset s at its outcome bits, 4 >> p per player p.
# Adding 0.0 turns the blocks' -0.0 products into 0.0.
def _over_players(block: list[list[float]]) -> np.ndarray:
    b = np.array(block)
    columns = [sum(4 >> PLAYERS.index(p) for p in s) for s in _SUBSETS]
    return np.take(np.kron(np.kron(b, b), b), columns, axis=1) + 0.0


# Outcome weights -> conjunction values (1, lam, ..., xi): row s marks
# the outcomes where every player of subset s is +1.
ZETA = np.ascontiguousarray(_over_players([[1.0, 1.0], [1.0, 0.0]]).T)
# Conjunction values -> weights (inclusion-exclusion), ZETA's inverse.
MOBIUS = _over_players([[0.0, 1.0], [1.0, -1.0]])
# Correlations (1, e_a, ..., e_abc) -> 8 x weights: entry (i, s) is the
# sign of subset s's outcome product at i, so WALSH.T / 8 inverts it.
WALSH = _over_players([[1.0, 1.0], [1.0, -1.0]])
# The diagonals of the seven "+1" POVM elements in field order, so a
# trace against rho is a row applied to diag(rho); C order is faster.
_INCIDENCE = {
    MarginalConvention.CONJUNCTION: ZETA[1:],
    MarginalConvention.PARITY: np.ascontiguousarray(1.0 + WALSH.T[1:]) / 2.0,
}
# Conjunction values (1, lam, ..., xi) -> correlations (1, e_a, ...,
# e_abc), WALSH.T @ MOBIUS: an integer map, so the product is exact. It
# is summed without `@`, because a first BLAS call allocates buffers
# (0.3 MB of RSS) that the lattice searches never need.
_CONJ_SIGNED = (WALSH.T[:, :, None] * MOBIUS).sum(axis=1)
for _matrix in (ZETA, MOBIUS, WALSH, _CONJ_SIGNED, *_INCIDENCE.values()):
    _matrix.flags.writeable = False


def _incidence(convention: MarginalConvention) -> np.ndarray:
    """_INCIDENCE's rows of a convention; ShapeError for any other value."""
    try:
        return _INCIDENCE[convention]
    except (KeyError, TypeError):  # TypeError: unhashable, as a list is
        raise ShapeError("convention must be a MarginalConvention") from None


def _apply(matrix: np.ndarray, x) -> np.ndarray:
    """`matrix @ v` for every (8,) vector v of a (..., 8) batch.

    Summed by numpy's add.reduce rather than `@`, so the bits do not
    depend on the BLAS build. The order follows the product's memory
    layout: pairwise when both operands are C-ordered, else left to
    right (as for MOBIUS.T applied to a payoff table's columns).
    """
    return np.add.reduce(np.asarray(x, dtype=np.float64)[..., None, :] * matrix, axis=-1)


class Correlations(NamedTuple):
    """Signed expectation values of the single/pair/triple products."""

    e_a: float
    e_b: float
    e_c: float
    e_ab: float
    e_bc: float
    e_ac: float
    e_abc: float


@dataclass(frozen=True)
class MarginalSet:
    """Seven marginal probabilities plus their reading convention.

    Field order: singles lam, mu, nu (players A, B, C), pair values
    p_ab, p_bc, p_ac, triple value xi.
    """

    lam: float
    mu: float
    nu: float
    p_ab: float
    p_bc: float
    p_ac: float
    xi: float
    convention: MarginalConvention

    def __post_init__(self):
        _incidence(self.convention)  # ShapeError unless a MarginalConvention
        for name in MARGINAL_FIELDS:
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise RangeError(f"{name} is not finite")
            object.__setattr__(self, name, clamp_unit(value, name))
        if self.convention is MarginalConvention.CONJUNCTION:
            self._check_frechet()

    def _check_frechet(self):
        # Conjunction pair probabilities are genuine event probabilities,
        # so each is boxed by its singles; the triple is boxed by pairs.
        bounds = (
            ("p_ab", self.p_ab, self.lam, self.mu),
            ("p_bc", self.p_bc, self.mu, self.nu),
            ("p_ac", self.p_ac, self.lam, self.nu),
        )
        for name, pair, s1, s2 in bounds:
            if pair > min(s1, s2) + ZERO_TOL:
                raise RangeError(
                    f"{name} = {pair!r} exceeds min of its singles {min(s1, s2)!r}"
                )
            if pair < s1 + s2 - 1.0 - ZERO_TOL:
                raise RangeError(
                    f"{name} = {pair!r} below singles overlap bound {s1 + s2 - 1.0!r}"
                )
        if self.xi > min(self.p_ab, self.p_bc, self.p_ac) + ZERO_TOL:
            raise RangeError(
                f"xi = {self.xi!r} exceeds smallest pair probability"
            )

    def values(self) -> tuple[float, ...]:
        """The seven probabilities in field order."""
        return (self.lam, self.mu, self.nu, self.p_ab, self.p_bc, self.p_ac, self.xi)

    def correlations(self) -> Correlations:
        """Signed expectations of the outcome products, convention-free."""
        return Correlations(*_signed(self)[1:].tolist())


@dataclass(frozen=True)
class PovmElement:
    """Single POVM effect on the eight-dimensional triple space."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (8, 8):
            raise ShapeError(f"POVM element must be 8x8, got {mat.shape}")
        if float(np.max(np.abs(mat - mat.conj().T))) > ZERO_TOL:
            raise ShapeError("POVM element must be hermitian")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < EIGENVALUE_FLOOR or eigs[-1] > 1.0 - EIGENVALUE_FLOOR:
            raise ShapeError("POVM element eigenvalues must lie in [0, 1]")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _projector_pair(row: int, convention: MarginalConvention) -> tuple:
    hit = _incidence(convention)[row]
    return PovmElement(np.diag(hit)), PovmElement(np.diag(1.0 - hit))


def single_povm(player: str) -> tuple[PovmElement, PovmElement]:
    """Projectors onto outcome +1 and -1 of one player's observable."""
    if player not in PLAYERS:
        raise ShapeError(f"player must be 'A', 'B' or 'C', got {player!r}")
    return _projector_pair(PLAYERS.index(player), MarginalConvention.CONJUNCTION)


def pair_povm(
    pair: str, convention: MarginalConvention
) -> tuple[PovmElement, PovmElement]:
    """Projector pair for a two-player event and its complement.

    Under parity the first element projects onto "the two outcomes
    agree"; under conjunction onto "both outcomes are +1".
    """
    if pair not in PAIR_LABELS:
        raise ShapeError(f"pair must be one of {PAIR_LABELS}, got {pair!r}")
    return _projector_pair(3 + PAIR_LABELS.index(pair), convention)


def triple_povm(convention: MarginalConvention) -> tuple[PovmElement, PovmElement]:
    """Projector pair for the three-player event and its complement.

    Under parity the first element projects onto "the outcome product
    is +1" (an even number of -1 results); under conjunction onto "all
    three outcomes are +1".
    """
    return _projector_pair(6, convention)


def marginal_values(diagonals, convention: MarginalConvention) -> np.ndarray:
    """The seven marginal probabilities of each state in a batch.

    `diagonals` holds real diagonals diag(rho), shape (..., 8); the
    result has shape (..., 7) in MarginalSet field order. Each value is
    tr(P rho) of the matching POVM element, summed in np.trace's order
    ((d0+d4)+(d1+d5)) + ((d2+d6)+(d3+d7)) so that it is bit-identical
    to the trace. Values within ZERO_TOL of [0, 1] are clamped into it;
    any other value raises RangeError naming the first such marginal.
    """
    d = np.asarray(diagonals, dtype=np.float64)
    if d.shape[-1:] != (8,):
        raise ShapeError(f"diagonals must have shape (..., 8), got {d.shape}")
    s = d[..., None, :] * _incidence(convention)
    t = s[..., :4]
    t += s[..., 4:]
    values = t[..., 0] + t[..., 1]
    values += t[..., 2] + t[..., 3]
    # One min/max test accepts a batch already in [0, 1], which clipping
    # would leave as it is (NaN fails the test); the per-element mask is
    # built only to name the first value beyond the tolerance.
    lo = np.minimum.reduce(values, axis=None, initial=0.0)
    hi = np.maximum.reduce(values, axis=None, initial=0.0)
    if not (lo >= 0.0 and hi <= 1.0):
        if not (lo >= -ZERO_TOL and hi <= 1.0 + ZERO_TOL):
            bad = ~((values >= -ZERO_TOL) & (values <= 1.0 + ZERO_TOL))
            first = np.argwhere(bad)[0]
            clamp_unit(float(values[tuple(first)]), MARGINAL_FIELDS[first[-1]])  # raises
        # np.clip, not np.maximum: it keeps a -0.0 as -0.0, as the reports do.
        np.clip(values, 0.0, 1.0, out=values)
    return values


def _marginal_set(values: np.ndarray, convention: MarginalConvention) -> MarginalSet:
    """MarginalSet of one row of marginal_values' output.

    Those values are finite and already clamped into [0, 1], which is all
    MarginalSet's per-field check does; only the Frechet check of a
    conjunction set can still fire (a density accepted down to
    EIGENVALUE_FLOOR, or a joint down to -SLACK_TOL, can break it by more
    than ZERO_TOL), so it alone runs again.
    """
    m = _trusted(
        MarginalSet, **dict(zip(MARGINAL_FIELDS, values.tolist())), convention=convention
    )
    if convention is MarginalConvention.CONJUNCTION:
        m._check_frechet()
    return m


def extract_marginals(rho: DensityMatrix, convention: MarginalConvention) -> MarginalSet:
    """All seven marginal probabilities of a state, as POVM traces."""
    return _marginal_set(marginal_values(rho.matrix.diagonal().real, convention), convention)


def convert_marginals(m: MarginalSet, target: MarginalConvention) -> MarginalSet:
    """Re-express a marginal set under the other reading convention.

    The eight outcome weights a set implies are convention-free, so
    conversion reads the target convention's incidence rows off them;
    applying the conversion twice returns the original values. Raises
    RangeError when the converted values leave [0, 1] (a parity set need
    not admit a conjunction reading).
    """
    if target is m.convention:
        return m
    values = marginal_values(weights_from_marginals(m).weights, target)
    values[:3] = m.values()[:3]
    return _marginal_set(values, target)


def _signed(m: MarginalSet) -> np.ndarray:
    """(1, e_a, e_b, e_c, e_ab, e_bc, e_ac, e_abc) of a marginal set."""
    if m.convention is MarginalConvention.PARITY:
        # The same two IEEE operations per value as on a float64 array.
        return np.array([2.0 * v - 1.0 for v in (1.0, *m.values())])
    # An integer map: every product is exact and fsum rounds each sum once.
    rows = (_CONJ_SIGNED * np.array((1.0, *m.values()))).tolist()
    return np.array([math.fsum(row) for row in rows])


@dataclass(frozen=True)
class WeightInversion:
    """Unique solution of the marginal-to-weights linear system.

    `weights` always holds the full solution, signs included;
    `negative_indices` lists components below -SLACK_TOL, and the solution
    counts as feasible only when that list is empty. The constructor
    stores `weights` as a read-only float64 (8,) array of finite values.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = _as_vector(self.weights, 8, "weights", np.float64)
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights.tolist()) if not holds(w))

    @property
    def feasible(self) -> bool:
        return not self.negative_indices


def weights_from_marginals(m: MarginalSet) -> WeightInversion:
    """Invert seven marginals plus normalization to eight basis weights.

    Conjunction values invert by MOBIUS, parity values by the Walsh
    transform of their signed correlations; both maps are full rank, so
    the solution always exists and is unique. It is a probability
    distribution exactly when all components are non-negative.
    """
    if m.convention is MarginalConvention.CONJUNCTION:
        weights = _apply(MOBIUS, (1.0, *m.values()))
    else:
        # `@` on input values here only: the helper's summation order would
        # move pd-product's reported parity inversion by an ulp.
        weights = (WALSH @ _signed(m)) / 8.0
    # A checked set gives eight finite weights, so the check is skipped.
    # The weights are set as the generated __init__ sets them, not by
    # _trusted: its __dict__ update gives each instance a dict of its
    # own, one more allocation per state for the cyclic collector (peak
    # RSS +0.5 MB on the state-sweep benchmark).
    inversion = object.__new__(WeightInversion)
    object.__setattr__(inversion, "weights", _freeze(weights))
    return inversion
