"""Three-qubit state families and density matrices.

Basis convention used across the package: computational basis states
|abc> are indexed big-endian, player A owning the leftmost qubit, so
index i has bit pattern (a, b, c) = ((i >> 2) & 1, (i >> 1) & 1, i & 1).
Bit value 0 is the +1 eigenvalue of the local sigma_z observable (read
as "cooperate"), bit value 1 the -1 eigenvalue ("defect").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EIGENVALUE_FLOOR, NORMALIZATION_TOL, ZERO_TOL,
    InvalidDensityError, NormalizationError, RangeError, ShapeError,
)

__all__ = [
    "BASIS_LABELS", "PLAYERS", "DensityMatrix", "DiagonalMixedState", "ProductStateAngles",
    "PureState", "basis_bit", "density_from_mixed", "density_from_pure", "ghz", "pd_state",
    "product_state", "validate_densities", "w_state",
]

BASIS_LABELS = ("000", "001", "010", "011", "100", "101", "110", "111")

PLAYERS = ("A", "B", "C")


def basis_bit(index: int, player: str) -> int:
    """Bit of basis state `index` belonging to `player` ("A", "B" or "C")."""
    shift = 2 - PLAYERS.index(player)
    return (index >> shift) & 1


def _shaped(values, length: int, what: str, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.shape != (length,):
        raise ShapeError(f"{what} must have shape ({length},), got {arr.shape}")
    return arr


def _check_finite(arr: np.ndarray, what: str):
    if not np.isfinite(arr).all():
        raise ShapeError(f"{what} contains non-finite entries")


def _as_vector(values, length: int, what: str, dtype) -> np.ndarray:
    arr = _shaped(values, length, what, dtype)
    _check_finite(arr, what)
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` as given.

    Skips `__post_init__`: only for library code whose values already
    passed every check that constructor would make, in the form it
    would store them. Public constructors keep all their checks.

    The classes built here are frozen dataclasses without `__slots__`
    whose fields are plain instance attributes: no field name is a data
    descriptor on the class. For such a name, `object.__setattr__` (the
    frozen `__setattr__` bypassed, as the generated `__init__` does)
    stores the value in the instance `__dict__` and does nothing else,
    so one `update` of that dict leaves the object in the same state.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the eight basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _shaped(self.amplitudes, 8, "amplitudes", np.complex128)
        norm = float((np.abs(amps) ** 2).sum())
        # A non-finite entry makes the norm non-finite, which fails this
        # test (NaN too), so the entries are scanned only on that branch.
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:
            _check_finite(amps, "amplitudes")
            raise NormalizationError(
                f"amplitude norm squared is {norm!r}, not 1 within {NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def probabilities(self) -> np.ndarray:
        """Basis-outcome probabilities |c_i|^2, indexed as in BASIS_LABELS."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DiagonalMixedState:
    """Classical mixture of the eight basis states."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights, 8, "weights", np.float64)
        # Eight finite weights: their extremes decide the range.
        listed = w.tolist()
        if min(listed) < -ZERO_TOL or max(listed) > 1 + ZERO_TOL:
            raise RangeError("mixture weights must lie in [0, 1]")
        total = float(w.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"mixture weights sum to {total!r}, not 1 within {NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "weights", _freeze(w))


@dataclass(frozen=True)
class ProductStateAngles:
    """Bloch angles (theta, phi) plus a global phase delta per qubit.

    theta_i lies in [0, pi]; phi_i and delta_i lie in [0, 2*pi). The
    delta phases multiply whole single-qubit states and therefore drop
    out of every probability; they are carried so callers can confirm
    that invariance.
    """

    theta: np.ndarray
    phi: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        theta = _as_vector(self.theta, 3, "theta", np.float64)
        phi = _as_vector(self.phi, 3, "phi", np.float64)
        delta = _as_vector(self.delta, 3, "delta", np.float64)
        # Three finite angles each: their extremes decide the ranges.
        listed = theta.tolist()
        if min(listed) < -ZERO_TOL or max(listed) > np.pi + ZERO_TOL:
            raise RangeError("theta angles must lie in [0, pi]", "theta")
        for name, arr in (("phi", phi), ("delta", delta)):
            listed = arr.tolist()
            if min(listed) < -ZERO_TOL or max(listed) >= 2 * np.pi + ZERO_TOL:
                raise RangeError(f"{name} angles must lie in [0, 2*pi)", name)
        object.__setattr__(self, "theta", _freeze(theta))
        object.__setattr__(self, "phi", _freeze(phi))
        object.__setattr__(self, "delta", _freeze(delta))


def validate_densities(rho) -> np.ndarray:
    """Check a stack of density matrices, shape (..., 8, 8), and return it
    as complex128: each must be finite, hermitian, of unit trace and
    positive semidefinite. Messages give the worst hermiticity defect,
    the first bad trace or the smallest eigenvalue of the stack.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (8, 8):
        raise ShapeError(f"density matrices must have shape (..., 8, 8), got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ShapeError("density matrix contains non-finite entries")
    defect = rho.conj().swapaxes(-1, -2)
    defect -= rho
    herm_defect = float(np.abs(defect).max(initial=0.0))
    if herm_defect > ZERO_TOL:
        raise InvalidDensityError(f"matrix is not hermitian: max defect {herm_defect!r}")
    traces = rho.trace(axis1=-2, axis2=-1)
    bad = abs(traces - 1.0) > NORMALIZATION_TOL
    if bad.any():
        trace = complex(traces[np.unravel_index(np.argmax(bad), bad.shape)])
        raise InvalidDensityError(f"trace is {trace!r}, not 1")
    eigmin = float(np.linalg.eigvalsh(rho)[..., 0].min(initial=np.inf))
    if eigmin < EIGENVALUE_FLOOR:
        raise InvalidDensityError(
            f"matrix is not positive semidefinite: min eigenvalue {eigmin!r}"
        )
    return rho


@dataclass(frozen=True)
class DensityMatrix:
    """8x8 density operator: hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.array(self.matrix, dtype=np.complex128)
        if rho.shape != (8, 8):
            raise ShapeError(f"density matrix must be 8x8, got {rho.shape}")
        object.__setattr__(self, "matrix", _freeze(validate_densities(rho)))

    def diagonal(self) -> np.ndarray:
        """Real diagonal (basis-outcome distribution)."""
        return self.matrix.diagonal().real.copy()


def density_from_pure(state: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a pure state."""
    amps = state.amplitudes
    # PureState's norm check stands in for validate_densities. Entry
    # (j, i) is the conjugate of entry (i, j), product by product, so it
    # is hermitian; its eigenvalues are the norm and seven zeros (to
    # rounding), far above EIGENVALUE_FLOOR. Its trace sums x^2 + y^2
    # where the norm sums |c|^2: of 10^6 norms drawn within 6 ulp of
    # 1 +- NORMALIZATION_TOL, 32,250 read differently under the two
    # checks, the sums at most 3 ulp (7e-16) apart. Only that band moves.
    # The broadcast takes np.outer's products, entry (i, j) = c_i conj(c_j).
    return _trusted(DensityMatrix, matrix=_freeze(amps[:, None] * amps.conj()))


def density_from_mixed(state: DiagonalMixedState) -> DensityMatrix:
    """Diagonal density matrix of a basis-state mixture."""
    # The weights are its eigenvalues, at least -ZERO_TOL and far above
    # EIGENVALUE_FLOOR, and a diagonal is hermitian. Its trace sums them
    # in another order than the weight check: of 10^6 sums drawn within
    # 6 ulp of the tolerance, 17,028 read differently, at most 2 ulp apart.
    rho = np.diag(state.weights.astype(np.complex128))
    return _trusted(DensityMatrix, matrix=_freeze(rho))


def product_state(angles: ProductStateAngles) -> PureState:
    """Tensor product of three single-qubit states from Bloch angles.

    Each qubit contributes e^{i delta} (cos(theta/2) |0> +
    e^{i phi} sin(theta/2) |1>); the three factors combine by Kronecker
    product in player order A, B, C.
    """
    half = angles.theta / 2.0
    phase = np.exp(1j * angles.delta)
    # Row k holds qubit k's coefficients of |0> and |1>.
    f0, f1, f2 = np.array(
        (phase * np.cos(half), phase * (np.exp(1j * angles.phi) * np.sin(half)))
    ).T
    amps = np.multiply.outer(np.multiply.outer(f0, f1), f2).ravel()
    # Finite angles give finite amplitudes, and three unit qubits have
    # norm squared 1 to a few ulp, far inside NORMALIZATION_TOL.
    return _trusted(PureState, amplitudes=_freeze(amps))


def _on_basis(indices: tuple[int, ...], values: tuple[complex, ...]) -> PureState:
    """The PureState with values at the basis indices and zeros elsewhere."""
    amps = np.zeros(8, dtype=np.complex128)
    for i, c in zip(indices, values):
        amps[i] = c
    return PureState(amps)


def ghz(a: complex, b: complex) -> PureState:
    """Superposition a|000> + b|111> (PureState checks its norm)."""
    return _on_basis((0, 7), (a, b))


_W_SUPPORT = (1, 2, 4)
_PD_SUPPORT = (3, 5, 6)


def w_state(c2: complex, c3: complex, c5: complex) -> PureState:
    """Superposition of the single-excitation states |001>, |010>, |100>."""
    return _on_basis(_W_SUPPORT, (c2, c3, c5))


def pd_state(c4: complex, c6: complex, c7: complex) -> PureState:
    """Superposition of the double-excitation states |011>, |101>, |110>."""
    return _on_basis(_PD_SUPPORT, (c4, c6, c7))
