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
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RangeError, ShapeError
from .qstates import BASIS_LABELS, PLAYERS, DensityMatrix, basis_bit

CLAMP_TOL = 1e-12
# Negative-weight floor of weights_from_marginals and fine.reconstruct_joint.
SLACK_TOL = 1e-12

MARGINAL_FIELDS = ("lam", "mu", "nu", "p_ab", "p_bc", "p_ac", "xi")

PAIR_LABELS = ("AB", "BC", "AC")


class MarginalConvention(enum.Enum):
    """Reading of pair and triple marginal probabilities."""

    CONJUNCTION = "conjunction"
    PARITY = "parity"


class Correlations(NamedTuple):
    """Signed expectation values of the single/pair/triple products."""

    e_a: float
    e_b: float
    e_c: float
    e_ab: float
    e_bc: float
    e_ac: float
    e_abc: float


def _clamp_unit(value: float, what: str) -> float:
    if value < -CLAMP_TOL or value > 1.0 + CLAMP_TOL:
        raise RangeError(f"{what} = {value!r} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


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
        if not isinstance(self.convention, MarginalConvention):
            raise ShapeError("convention must be a MarginalConvention")
        for name in MARGINAL_FIELDS:
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise RangeError(f"{name} is not finite")
            object.__setattr__(self, name, _clamp_unit(value, name))
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
            if pair > min(s1, s2) + CLAMP_TOL:
                raise RangeError(
                    f"{name} = {pair!r} exceeds min of its singles {min(s1, s2)!r}"
                )
            if pair < s1 + s2 - 1.0 - CLAMP_TOL:
                raise RangeError(
                    f"{name} = {pair!r} below singles overlap bound {s1 + s2 - 1.0!r}"
                )
        if self.xi > min(self.p_ab, self.p_bc, self.p_ac) + CLAMP_TOL:
            raise RangeError(
                f"xi = {self.xi!r} exceeds smallest pair probability"
            )

    def values(self) -> tuple[float, ...]:
        """The seven probabilities in field order."""
        return (self.lam, self.mu, self.nu, self.p_ab, self.p_bc, self.p_ac, self.xi)

    def correlations(self) -> Correlations:
        """Signed expectations of the outcome products, convention-free."""
        e_a = 2.0 * self.lam - 1.0
        e_b = 2.0 * self.mu - 1.0
        e_c = 2.0 * self.nu - 1.0
        if self.convention is MarginalConvention.PARITY:
            e_ab = 2.0 * self.p_ab - 1.0
            e_bc = 2.0 * self.p_bc - 1.0
            e_ac = 2.0 * self.p_ac - 1.0
            e_abc = 2.0 * self.xi - 1.0
        else:
            e_ab = 4.0 * self.p_ab - 1.0 - e_a - e_b
            e_bc = 4.0 * self.p_bc - 1.0 - e_b - e_c
            e_ac = 4.0 * self.p_ac - 1.0 - e_a - e_c
            e_abc = (
                8.0 * self.xi
                - 1.0
                - (e_a + e_b + e_c)
                - (e_ab + e_bc + e_ac)
            )
        return Correlations(e_a, e_b, e_c, e_ab, e_bc, e_ac, e_abc)


@dataclass(frozen=True)
class PovmElement:
    """Single POVM effect on the eight-dimensional triple space."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (8, 8):
            raise ShapeError(f"POVM element must be 8x8, got {mat.shape}")
        if float(np.max(np.abs(mat - mat.conj().T))) > CLAMP_TOL:
            raise ShapeError("POVM element must be hermitian")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -1e-10 or eigs[-1] > 1.0 + 1e-10:
            raise ShapeError("POVM element eigenvalues must lie in [0, 1]")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _projector_from_indices(indices: tuple[int, ...]) -> PovmElement:
    diag = np.zeros(8, dtype=np.complex128)
    diag[list(indices)] = 1.0
    return PovmElement(np.diag(diag))


def _pair_bits(label: str) -> tuple[str, str]:
    if label not in PAIR_LABELS:
        raise ShapeError(f"pair must be one of {PAIR_LABELS}, got {label!r}")
    return label[0], label[1]


@lru_cache(maxsize=None)
def single_povm(player: str) -> tuple[PovmElement, PovmElement]:
    """Projectors onto outcome +1 and -1 of one player's observable."""
    if player not in ("A", "B", "C"):
        raise ShapeError(f"player must be 'A', 'B' or 'C', got {player!r}")
    plus = tuple(i for i in range(8) if basis_bit(i, player) == 0)
    minus = tuple(i for i in range(8) if basis_bit(i, player) == 1)
    return _projector_from_indices(plus), _projector_from_indices(minus)


@lru_cache(maxsize=None)
def pair_povm(
    pair: str, convention: MarginalConvention
) -> tuple[PovmElement, PovmElement]:
    """Projector pair for a two-player event and its complement.

    Under parity the first element projects onto "the two outcomes
    agree"; under conjunction onto "both outcomes are +1".
    """
    first, second = _pair_bits(pair)
    if convention is MarginalConvention.PARITY:
        hit = tuple(
            i for i in range(8) if basis_bit(i, first) == basis_bit(i, second)
        )
    else:
        hit = tuple(
            i
            for i in range(8)
            if basis_bit(i, first) == 0 and basis_bit(i, second) == 0
        )
    rest = tuple(i for i in range(8) if i not in hit)
    return _projector_from_indices(hit), _projector_from_indices(rest)


@lru_cache(maxsize=None)
def triple_povm(convention: MarginalConvention) -> tuple[PovmElement, PovmElement]:
    """Projector pair for the three-player event and its complement.

    Under parity the first element projects onto "the outcome product
    is +1" (an even number of -1 results); under conjunction onto "all
    three outcomes are +1".
    """
    if convention is MarginalConvention.PARITY:
        hit = tuple(i for i in range(8) if bin(i).count("1") % 2 == 0)
    else:
        hit = (0,)
    rest = tuple(i for i in range(8) if i not in hit)
    return _projector_from_indices(hit), _projector_from_indices(rest)


@lru_cache(maxsize=None)
def _incidence(convention: MarginalConvention) -> np.ndarray:
    """7x8 0/1 rows: the diagonals of the seven "+1" POVM elements.

    Every element is a diagonal projector, so its trace against rho is
    its row applied to diag(rho).
    """
    elements = (
        [single_povm(player)[0] for player in PLAYERS]
        + [pair_povm(pair, convention)[0] for pair in PAIR_LABELS]
        + [triple_povm(convention)[0]]
    )
    rows = np.array([e.matrix.diagonal().real for e in elements])
    rows.flags.writeable = False
    return rows


def marginal_values(diagonals, convention: MarginalConvention) -> np.ndarray:
    """The seven marginal probabilities of each state in a batch.

    `diagonals` holds real diagonals diag(rho), shape (..., 8); the
    result has shape (..., 7) in MarginalSet field order. Each value is
    tr(P rho) of the matching POVM element, summed in np.trace's order
    ((d0+d4)+(d1+d5)) + ((d2+d6)+(d3+d7)) so that it is bit-identical
    to the trace. Values within CLAMP_TOL of [0, 1] are clamped into it;
    any other value raises RangeError naming the first such marginal.
    """
    d = np.asarray(diagonals, dtype=np.float64)
    if d.shape[-1:] != (8,):
        raise ShapeError(f"diagonals must have shape (..., 8), got {d.shape}")
    s = d[..., None, :] * _incidence(convention)
    t = s[..., :4] + s[..., 4:]
    values = (t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])
    bad = ~((values >= -CLAMP_TOL) & (values <= 1.0 + CLAMP_TOL))
    if bad.any():
        first = np.argwhere(bad)[0]
        raise RangeError(
            f"{MARGINAL_FIELDS[first[-1]]} = {float(values[tuple(first)])!r} outside [0, 1]"
        )
    return np.clip(values, 0.0, 1.0)


def extract_marginals(rho: DensityMatrix, convention: MarginalConvention) -> MarginalSet:
    """All seven marginal probabilities of a state, as POVM traces."""
    return MarginalSet(*marginal_values(rho.diagonal(), convention).tolist(), convention)


def convert_marginals(m: MarginalSet, target: MarginalConvention) -> MarginalSet:
    """Re-express a marginal set under the other reading convention.

    The signed correlation vector is convention-free, so conversion
    goes through it and back; applying the conversion twice returns the
    original values. Raises RangeError when the converted values leave
    [0, 1] (a parity set need not admit a conjunction reading).
    """
    if target is m.convention:
        return m
    e = m.correlations()
    if target is MarginalConvention.PARITY:
        p_ab = (1.0 + e.e_ab) / 2.0
        p_bc = (1.0 + e.e_bc) / 2.0
        p_ac = (1.0 + e.e_ac) / 2.0
        xi = (1.0 + e.e_abc) / 2.0
    else:
        p_ab = (1.0 + e.e_a + e.e_b + e.e_ab) / 4.0
        p_bc = (1.0 + e.e_b + e.e_c + e.e_bc) / 4.0
        p_ac = (1.0 + e.e_a + e.e_c + e.e_ac) / 4.0
        xi = (
            1.0
            + (e.e_a + e.e_b + e.e_c)
            + (e.e_ab + e.e_bc + e.e_ac)
            + e.e_abc
        ) / 8.0
    return MarginalSet(m.lam, m.mu, m.nu, p_ab, p_bc, p_ac, xi, target)


def _walsh_design() -> np.ndarray:
    # Row per basis index: signs of (1, a, b, c, ab, bc, ac, abc) with
    # bit 0 read as +1. A Hadamard-type sign matrix, hence full rank.
    rows = []
    for i in range(8):
        s_a = 1.0 if basis_bit(i, "A") == 0 else -1.0
        s_b = 1.0 if basis_bit(i, "B") == 0 else -1.0
        s_c = 1.0 if basis_bit(i, "C") == 0 else -1.0
        rows.append(
            [1.0, s_a, s_b, s_c, s_a * s_b, s_b * s_c, s_a * s_c, s_a * s_b * s_c]
        )
    return np.array(rows)


_WALSH = _walsh_design()
# Full rank by construction: |det| of this 8x8 sign matrix is 8^4.
assert round(abs(np.linalg.det(_WALSH))) == 4096


@dataclass(frozen=True)
class WeightInversion:
    """Unique solution of the marginal-to-weights linear system.

    `weights` always holds the full solution, signs included;
    `negative_indices` lists components below -SLACK_TOL, and the solution
    counts as feasible only when that list is empty.
    """

    weights: np.ndarray
    negative_indices: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return not self.negative_indices

    def negative_labels(self) -> tuple[str, ...]:
        return tuple(BASIS_LABELS[i] for i in self.negative_indices)


def weights_from_marginals(m: MarginalSet) -> WeightInversion:
    """Invert seven marginals plus normalization to eight basis weights.

    The system is the full-rank Walsh transform over the signed
    correlations, so the solution always exists and is unique; it is a
    probability distribution exactly when all components are
    non-negative.
    """
    e = m.correlations()
    coeffs = np.array([1.0, *e], dtype=np.float64)
    weights = (_WALSH @ coeffs) / 8.0
    negative = tuple(int(i) for i in np.nonzero(weights < -SLACK_TOL)[0])
    weights.flags.writeable = False
    return WeightInversion(weights, negative)
