"""POVM construction, marginal extraction, and convention conversion."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finegames import (
    DensityMatrix,
    MarginalConvention,
    MarginalSet,
    RangeError,
    ShapeError,
    basis_bit,
    convert_marginals,
    density_from_pure,
    extract_marginals,
    ghz,
    marginal_values,
    marginals_from_joint,
    pair_povm,
    single_povm,
    strategy_marginals,
    strategy_weights,
    triple_povm,
    validate_densities,
    weights_from_marginals,
    JointDistribution,
    StrategyTriple,
)
from finegames.measurement import _INCIDENCE, MOBIUS, WALSH, ZETA, _apply
from oracles import pure_state_marginals
from conftest import random_joint, random_pure_state

CONVENTIONS = (MarginalConvention.CONJUNCTION, MarginalConvention.PARITY)


def test_povm_completeness():
    for player in "ABC":
        plus, minus = single_povm(player)
        assert np.max(np.abs(plus.matrix + minus.matrix - np.eye(8))) < 1e-14
    for convention in CONVENTIONS:
        for pair in ("AB", "BC", "AC"):
            hit, miss = pair_povm(pair, convention)
            assert np.max(np.abs(hit.matrix + miss.matrix - np.eye(8))) < 1e-14
        hit, miss = triple_povm(convention)
        assert np.max(np.abs(hit.matrix + miss.matrix - np.eye(8))) < 1e-14


def test_povm_elements_are_diagonal_projectors():
    for player in "ABC":
        m = single_povm(player)[0].matrix
        assert np.allclose(m, np.diag(np.diag(m)))
        assert set(np.diag(m).real) <= {0.0, 1.0}
    diag = np.diag(single_povm("A")[0].matrix).real
    assert [int(v) for v in diag] == [1 - basis_bit(i, "A") for i in range(8)]


def test_parity_pair_povm_selects_equal_bits():
    diag = np.diag(pair_povm("AB", MarginalConvention.PARITY)[0].matrix).real
    expected = [
        1.0 if basis_bit(i, "A") == basis_bit(i, "B") else 0.0 for i in range(8)
    ]
    assert list(diag) == expected


def test_conjunction_pair_povm_selects_double_cooperation():
    diag = np.diag(pair_povm("AB", MarginalConvention.CONJUNCTION)[0].matrix).real
    expected = [
        1.0 if basis_bit(i, "A") == 0 and basis_bit(i, "B") == 0 else 0.0
        for i in range(8)
    ]
    assert list(diag) == expected


def test_lattice_matrices_are_exact_inverses():
    assert np.array_equal(MOBIUS @ ZETA, np.eye(8))
    assert np.array_equal(ZETA @ MOBIUS, np.eye(8))
    assert np.array_equal(WALSH @ WALSH.T, 8.0 * np.eye(8))
    for matrix in (ZETA, MOBIUS, WALSH):
        assert not matrix.flags.writeable
    assert WALSH.flags.c_contiguous


def test_incidence_rows_are_lattice_rows():
    assert np.array_equal(_INCIDENCE[MarginalConvention.CONJUNCTION], ZETA[1:])
    assert np.array_equal(_INCIDENCE[MarginalConvention.PARITY], (1.0 + WALSH.T[1:]) / 2.0)
    for rows in _INCIDENCE.values():
        assert not rows.flags.writeable


@pytest.mark.parametrize(
    "matrix", [ZETA, MOBIUS, WALSH, WALSH.T, MOBIUS.T],
    ids=["ZETA", "MOBIUS", "WALSH", "WALSH.T", "MOBIUS.T"],
)
def test_apply_batches_match_row_calls(rng, matrix):
    rows = rng.normal(size=(12, 8))
    singles = np.stack([_apply(matrix, row) for row in rows])
    assert np.allclose(singles, rows @ matrix.T, rtol=0.0, atol=1e-14)
    assert np.array_equal(_apply(matrix, rows), singles)
    assert np.array_equal(_apply(matrix, rows.reshape(3, 4, 8)), singles.reshape(3, 4, 8))


def test_extracted_marginals_match_closed_form(rng):
    for _ in range(50):
        state = random_pure_state(rng)
        rho = density_from_pure(state)
        traced = extract_marginals(rho, MarginalConvention.PARITY)
        closed = pure_state_marginals(state)
        assert traced.values() == pytest.approx(closed.values(), abs=1e-12)


def test_conjunction_extraction_matches_diagonal_sums(rng):
    state = random_pure_state(rng)
    q = state.probabilities()
    m = extract_marginals(density_from_pure(state), MarginalConvention.CONJUNCTION)
    assert m.lam == pytest.approx(q[:4].sum(), abs=1e-12)
    assert m.p_ab == pytest.approx(q[0] + q[1], abs=1e-12)
    assert m.p_bc == pytest.approx(q[0] + q[4], abs=1e-12)
    assert m.p_ac == pytest.approx(q[0] + q[2], abs=1e-12)
    assert m.xi == pytest.approx(q[0], abs=1e-12)


def test_ghz_parity_marginals():
    rho = density_from_pure(ghz(complex(2 ** -0.5), complex(2 ** -0.5)))
    m = extract_marginals(rho, MarginalConvention.PARITY)
    assert m.values() == pytest.approx((0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5), abs=1e-12)


def test_marginal_set_rejects_out_of_range():
    with pytest.raises(RangeError):
        MarginalSet(1.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.1, MarginalConvention.PARITY)


def test_marginal_set_rejects_inconsistent_conjunction_pairs():
    with pytest.raises(RangeError):
        MarginalSet(0.2, 0.2, 0.2, 0.5, 0.1, 0.1, 0.05, MarginalConvention.CONJUNCTION)
    with pytest.raises(RangeError):
        MarginalSet(0.9, 0.9, 0.9, 0.7, 0.7, 0.7, 0.75, MarginalConvention.CONJUNCTION)


def test_fair_coin_correlations():
    m = strategy_marginals(StrategyTriple(0.5, 0.5, 0.5), MarginalConvention.CONJUNCTION)
    corr = m.correlations()
    assert corr == pytest.approx((0.0,) * 7, abs=1e-12)


def test_convention_conversion_round_trip(rng):
    for _ in range(200):
        joint = random_joint(rng)
        conj = marginals_from_joint(joint, MarginalConvention.CONJUNCTION)
        parity = marginals_from_joint(joint, MarginalConvention.PARITY)
        to_parity = convert_marginals(conj, MarginalConvention.PARITY)
        back = convert_marginals(to_parity, MarginalConvention.CONJUNCTION)
        assert to_parity.values() == pytest.approx(parity.values(), abs=1e-12)
        assert back.values() == pytest.approx(conj.values(), abs=1e-12)


def test_convert_to_same_convention_is_identity(rng):
    conj = marginals_from_joint(random_joint(rng), MarginalConvention.CONJUNCTION)
    again = convert_marginals(conj, MarginalConvention.CONJUNCTION)
    assert again.values() == pytest.approx(conj.values(), abs=0.0)


def test_weight_inversion_recovers_joint(rng):
    for _ in range(100):
        joint = random_joint(rng)
        for convention in CONVENTIONS:
            m = marginals_from_joint(joint, convention)
            inv = weights_from_marginals(m)
            assert inv.feasible
            assert inv.weights == pytest.approx(joint.prob, abs=1e-12)


def test_weight_inversion_detects_impossible_anticorrelation():
    m = MarginalSet(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, MarginalConvention.PARITY)
    inv = weights_from_marginals(m)
    assert not inv.feasible
    assert inv.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert min(inv.weights) < -0.1
    assert 0 in inv.negative_indices


def test_strategy_weights_factorize():
    s = StrategyTriple(0.2, 0.6, 0.9)
    w = strategy_weights(s)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] == pytest.approx(0.2 * 0.6 * 0.9, abs=1e-15)
    assert w[7] == pytest.approx(0.8 * 0.4 * 0.1, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1.0), mu=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0))
def test_strategy_weights_match_kronecker_products(lam, mu, nu):
    expected = np.kron(np.kron([lam, 1.0 - lam], [mu, 1.0 - mu]), [nu, 1.0 - nu])
    assert np.array_equal(strategy_weights(StrategyTriple(lam, mu, nu)), expected)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    mu=st.floats(0.0, 1.0),
    nu=st.floats(0.0, 1.0),
)
def test_product_marginals_always_consistent(lam, mu, nu):
    s = StrategyTriple(lam, mu, nu)
    joint = JointDistribution(strategy_weights(s))
    for convention in CONVENTIONS:
        m = marginals_from_joint(joint, convention)
        values = np.array(m.values())
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)
        inv = weights_from_marginals(m)
        assert inv.feasible


def trace_values(rho: np.ndarray, convention: MarginalConvention) -> list[float]:
    """The seven marginals as np.trace(P @ rho).real of the "+1" POVM
    elements, clamped into [0, 1] as every marginal is."""
    elements = (
        single_povm("A")[0],
        single_povm("B")[0],
        single_povm("C")[0],
        pair_povm("AB", convention)[0],
        pair_povm("BC", convention)[0],
        pair_povm("AC", convention)[0],
        triple_povm(convention)[0],
    )
    return [min(max(np.trace(e.matrix @ rho).real, 0.0), 1.0) for e in elements]


component = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def densities(draw) -> np.ndarray:
    """Validated density matrices: pure, mixed (a weighted sum of two to
    four pure projectors), sparse (a pure state on a random support, so
    the diagonal holds exact zeros) or diagonal (a basis mixture with
    zero weights allowed)."""
    kind = draw(st.sampled_from(("pure", "mixed", "sparse", "diagonal")))
    if kind == "diagonal":
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)))
        assume(weights.sum() > 1e-3)
        return DensityMatrix(np.diag(weights / weights.sum()).astype(complex)).matrix
    rho = np.zeros((8, 8), dtype=complex)
    for _ in range(draw(st.integers(2, 4)) if kind == "mixed" else 1):
        amps = np.array(draw(st.lists(component, min_size=16, max_size=16))).view(complex)
        if kind == "sparse":
            support = draw(st.lists(st.booleans(), min_size=8, max_size=8))
            amps[~np.array(support)] = 0.0
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        amps = amps / norm
        rho += draw(st.floats(0.05, 1.0)) * np.outer(amps, amps.conj())
    return DensityMatrix(rho / np.trace(rho).real).matrix


@settings(max_examples=400, deadline=None)
@given(rho=densities(), convention=st.sampled_from(CONVENTIONS))
def test_marginal_values_equal_povm_traces_exactly(rho, convention):
    values = marginal_values(rho.diagonal().real, convention)
    assert values.tolist() == trace_values(rho, convention)
    m = extract_marginals(DensityMatrix(rho), convention)
    assert list(m.values()) == trace_values(rho, convention)


@settings(max_examples=100, deadline=None)
@given(
    stack=st.lists(densities(), min_size=1, max_size=6),
    convention=st.sampled_from(CONVENTIONS),
)
def test_marginal_values_batch_matches_single_calls(stack, convention):
    rho = validate_densities(np.stack(stack))
    batch = marginal_values(rho.diagonal(0, -2, -1).real, convention)
    assert batch.shape == (len(stack), 7)
    singles = [marginal_values(r.diagonal().real, convention) for r in stack]
    assert np.array_equal(batch, np.stack(singles))
    grid = marginal_values(rho.diagonal(0, -2, -1).real.reshape(len(stack), 1, 8), convention)
    assert np.array_equal(grid[:, 0], batch)


def test_marginal_values_clamp_and_range_check():
    diag = np.zeros(8)
    diag[0] = 1.0 + 5e-13
    assert marginal_values(diag, MarginalConvention.CONJUNCTION).tolist() == [1.0] * 7
    diag[0] = -5e-13
    assert marginal_values(diag, MarginalConvention.PARITY).tolist() == [0.0] * 7
    diag[0] = 1.5
    with pytest.raises(RangeError, match=r"^lam = 1\.5 outside \[0, 1\]$"):
        marginal_values(diag, MarginalConvention.PARITY)
    batch = np.full((3, 8), 0.125)
    batch[2, 6] = -0.5
    with pytest.raises(RangeError, match=r"^nu = "):
        marginal_values(batch, MarginalConvention.PARITY)
    with pytest.raises(ShapeError):
        marginal_values(np.zeros(7), MarginalConvention.PARITY)
