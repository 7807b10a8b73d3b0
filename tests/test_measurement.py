"""POVM construction, marginal extraction, and convention conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finegames import (
    MarginalConvention,
    MarginalSet,
    RangeError,
    basis_bit,
    convert_marginals,
    density_from_pure,
    extract_marginals,
    ghz,
    marginals_from_joint,
    pair_povm,
    pure_state_marginals,
    single_povm,
    strategy_marginals,
    strategy_weights,
    triple_povm,
    weights_from_marginals,
    JointDistribution,
    StrategyTriple,
)
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
