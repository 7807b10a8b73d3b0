"""State construction and density-matrix validation."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from finegames import (
    BASIS_LABELS,
    DensityMatrix,
    DiagonalMixedState,
    InvalidDensityError,
    NormalizationError,
    ProductStateAngles,
    PureState,
    RangeError,
    ShapeError,
    basis_bit,
    density_from_mixed,
    density_from_pure,
    ghz,
    pd_state,
    product_state,
    validate_densities,
    w_state,
)
from finegames.qstates import EIGENVALUE_FLOOR, NORMALIZATION_TOL
from conftest import random_pure_state

ROOT_HALF = 2.0 ** -0.5
ROOT_THIRD = 3.0 ** -0.5


def test_basis_labels_and_bits():
    assert len(BASIS_LABELS) == 8
    for i in range(8):
        bits = (basis_bit(i, "A"), basis_bit(i, "B"), basis_bit(i, "C"))
        assert bits == ((i >> 2) & 1, (i >> 1) & 1, i & 1)


def test_pure_state_requires_unit_norm():
    with pytest.raises(NormalizationError):
        PureState(np.ones(8))
    state = PureState(np.ones(8) / np.sqrt(8.0))
    assert state.probabilities() == pytest.approx([0.125] * 8)


def test_pure_state_amplitudes_read_only():
    state = PureState(np.eye(8)[0])
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_mixed_state_validation():
    with pytest.raises(RangeError):
        DiagonalMixedState(np.array([1.2, -0.2, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(NormalizationError):
        DiagonalMixedState(np.full(8, 0.2))
    mixed = DiagonalMixedState(np.full(8, 0.125))
    rho = density_from_mixed(mixed)
    assert np.allclose(rho.diagonal(), 0.125)


def test_product_angle_ranges():
    with pytest.raises(RangeError):
        ProductStateAngles(np.array([4.0, 0, 0]), np.zeros(3), np.zeros(3))
    with pytest.raises(RangeError):
        ProductStateAngles(np.zeros(3), np.array([-1.0, 0, 0]), np.zeros(3))


def test_density_matrix_validation():
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(InvalidDensityError):
        DensityMatrix(bad)
    with pytest.raises(InvalidDensityError):
        DensityMatrix(np.eye(8, dtype=complex))  # trace 8


def _message(matrix) -> str:
    with pytest.raises(InvalidDensityError) as err:
        DensityMatrix(matrix)
    return str(err.value)


def test_validate_densities_checks_every_matrix_of_a_stack(rng):
    good = [density_from_pure(random_pure_state(rng)).matrix for _ in range(3)]
    stack = np.stack(good)
    checked = validate_densities(stack)
    assert checked.dtype == np.complex128 and np.array_equal(checked, stack)
    assert np.array_equal(validate_densities(good[0]), good[0])

    not_hermitian = good[1].copy()
    not_hermitian[0, 1] += 1e-6
    bad_trace = 2.0 * good[1]
    negative = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    for bad in (not_hermitian, bad_trace, negative):
        with pytest.raises(InvalidDensityError) as err:
            validate_densities(np.stack([good[0], bad, good[2]]))
        assert str(err.value) == _message(bad)
    with pytest.raises(ShapeError):
        validate_densities(np.zeros((3, 8, 7)))
    nonfinite = stack.copy()
    nonfinite[2, 3, 3] = np.nan
    with pytest.raises(ShapeError):
        validate_densities(nonfinite)


def test_density_matrix_messages():
    assert _message(np.eye(8, dtype=complex)) == "trace is (8+0j), not 1"
    negative = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    assert _message(negative) == (
        "matrix is not positive semidefinite: min eigenvalue -0.5"
    )
    skew = np.eye(8, dtype=complex) / 8
    skew[0, 1] = 0.25
    assert _message(skew) == "matrix is not hermitian: max defect 0.25"


def test_density_from_pure_is_projector(rng):
    state = random_pure_state(rng)
    rho = density_from_pure(state).matrix
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho @ rho, rho, atol=1e-12)
    assert np.allclose(np.diag(rho).real, state.probabilities(), atol=1e-12)


def test_product_state_probabilities_factorize():
    theta = np.array([0.3, 1.1, 2.0])
    state = product_state(ProductStateAngles(theta, np.zeros(3), np.zeros(3)))
    q = state.probabilities()
    c = np.cos(theta / 2.0) ** 2
    for i in range(8):
        expected = 1.0
        for pos, player in enumerate("ABC"):
            bit = basis_bit(i, player)
            expected *= (1.0 - c[pos]) if bit else c[pos]
        assert q[i] == pytest.approx(expected, abs=1e-12)


def test_global_qubit_phases_do_not_change_density():
    theta = np.array([0.7, 1.3, 0.2])
    phi = np.array([0.4, 5.0, 2.2])
    plain = product_state(ProductStateAngles(theta, phi, np.zeros(3)))
    shifted = product_state(
        ProductStateAngles(theta, phi, np.array([1.0, 2.0, 3.0]))
    )
    assert np.allclose(
        density_from_pure(plain).matrix,
        density_from_pure(shifted).matrix,
        atol=1e-12,
    )


def test_ghz_occupies_extreme_indices():
    state = ghz(complex(ROOT_HALF), complex(ROOT_HALF))
    q = state.probabilities()
    assert q[0] == pytest.approx(0.5)
    assert q[7] == pytest.approx(0.5)
    assert np.all(q[1:7] == 0.0)
    with pytest.raises(NormalizationError):
        ghz(complex(1.0), complex(1.0))


def test_w_state_occupies_single_defector_indices():
    state = w_state(complex(ROOT_THIRD), complex(ROOT_THIRD), complex(ROOT_THIRD))
    q = state.probabilities()
    assert q[[1, 2, 4]] == pytest.approx([1 / 3] * 3)
    assert q[[0, 3, 5, 6, 7]] == pytest.approx([0.0] * 5)


def test_pd_state_occupies_single_cooperator_indices():
    state = pd_state(complex(ROOT_THIRD), complex(ROOT_THIRD), complex(ROOT_THIRD))
    q = state.probabilities()
    assert q[[3, 5, 6]] == pytest.approx([1 / 3] * 3)
    assert q[[0, 1, 2, 4, 7]] == pytest.approx([0.0] * 5)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.lists(st.floats(0.0, np.pi), min_size=3, max_size=3),
    phi=st.lists(st.floats(0.0, 6.28), min_size=3, max_size=3),
)
def test_product_state_always_valid(theta, phi):
    state = product_state(
        ProductStateAngles(np.array(theta), np.array(phi), np.zeros(3))
    )
    rho = density_from_pure(state)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
    assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)


def test_product_state_equals_kronecker_product():
    rng = np.random.default_rng(8)
    draws = [rng.uniform(0.0, (np.pi, 2 * np.pi, 2 * np.pi), (3, 3)).T for _ in range(200)]
    draws.append(np.array([[0.0, np.pi, np.pi / 2], [0.0, np.pi, 0.0], [0.0, 0.0, np.pi]]))
    for theta, phi, delta in draws:
        factors = [
            np.exp(1j * d)
            * np.array([np.cos(t / 2.0), np.exp(1j * f) * np.sin(t / 2.0)], dtype=np.complex128)
            for t, f, d in zip(theta, phi, delta)
        ]
        expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
        got = product_state(ProductStateAngles(theta, phi, delta)).amplitudes
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(expected, part)
            assert (a == b).all()
            assert (np.signbit(a) == np.signbit(b)).all()


# The trace of a density sums its diagonal in another order than the
# state's norm check sums |c|^2 or the weights: on 10^6 draws within 6
# ulp of 1 +- NORMALIZATION_TOL the two differed by at most 3 ulp, and
# only there can the trace check read differently from the norm check.
EDGE_BAND = 4 * np.spacing(1.0)
edge_targets = st.builds(
    lambda sign, ulps: 1.0 + sign * NORMALIZATION_TOL + ulps * np.spacing(1.0),
    st.sampled_from((-1.0, 1.0)),
    st.integers(-8, 8),
)


def assert_density_checks_hold(rho, total, eig_floor):
    """validate_densities accepts rho, unless `total` (the norm or the
    weight sum) sits within EDGE_BAND of the tolerance and the trace
    lands just beyond it; its smallest eigenvalue is at least eig_floor."""
    if abs(rho.trace().real - 1.0) > NORMALIZATION_TOL:
        assert abs(abs(total - 1.0) - NORMALIZATION_TOL) <= EDGE_BAND
        event("trace beyond the tolerance at its edge")
        with pytest.raises(InvalidDensityError, match="^trace is "):
            validate_densities(rho)
    else:
        validate_densities(rho)
    assert np.linalg.eigvalsh(rho)[0] >= eig_floor


@settings(max_examples=300, deadline=None)
@given(
    amps=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=8,
    ),
    target=edge_targets,
)
def test_norm_check_implies_pure_density_checks(amps, target):
    z = np.array(amps, dtype=np.complex128)
    size = float(np.sum(np.abs(z) ** 2))
    assume(size > 1e-6)
    try:
        state = PureState(z * np.sqrt(target / size))
    except NormalizationError:
        assume(False)
    norm = float(np.sum(np.abs(state.amplitudes) ** 2))
    assert_density_checks_hold(density_from_pure(state).matrix, norm, EIGENVALUE_FLOOR / 1e4)


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    tiny=st.lists(st.sampled_from((None, -1e-12, 1e-12)), min_size=8, max_size=8),
    target=edge_targets,
)
def test_weight_checks_imply_mixed_density_checks(base, tiny, target):
    w = np.array(base)
    assume(w.sum() > 0.1)
    w /= w.sum()
    for i, t in enumerate(tiny):
        if t is not None:
            w[i] = t
    w[np.argmax(w)] += target - np.sum(w)
    try:
        state = DiagonalMixedState(w)
    except (NormalizationError, RangeError):
        assume(False)
    total = float(np.sum(state.weights))
    assert_density_checks_hold(density_from_mixed(state).matrix, total, EIGENVALUE_FLOOR / 50)
