"""Payoff tables and the three payoff forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finegames import (
    DEFAULT_PD_PARAMS,
    DilemmaViolation,
    JointDistribution,
    MARGINAL_COEFF_ORDER,
    MarginalConvention,
    PayoffTable,
    PdParams,
    RangeError,
    ShapeError,
    StrategyTriple,
    coop_game,
    density_from_pure,
    extract_marginals,
    ghz,
    marginal_form_coefficients,
    marginals_from_joint,
    payoff_factorizable,
    payoff_marginal_form,
    payoff_outcome_form,
    pd3,
    strategy_marginals,
    strategy_weights,
)
from finegames.games import MAX_PAYOFF
from oracles import pd_payoffs_from_pure_state
from conftest import random_joint, random_pure_state

probability = st.floats(0.0, 1.0)


def test_default_pd_levels():
    assert DEFAULT_PD_PARAMS.as_tuple() == (7.0, 9.0, 3.0, 0.0, 1.0, 5.0)
    table = pd3()
    assert table.entries[0].tolist() == [7.0, 7.0, 7.0]
    assert table.entries[7].tolist() == [1.0, 1.0, 1.0]
    # lone defector takes the top payoff, the pair left behind gets the duo rate
    assert table.entries[4].tolist() == [9.0, 3.0, 3.0]
    assert table.entries[3].tolist() == [0.0, 5.0, 5.0]


def test_dilemma_conditions_are_enforced():
    with pytest.raises(DilemmaViolation, match="lone_defector > all_cooperate"):
        PdParams(9.0, 7.0, 3.0, 0.0, 1.0, 5.0)
    with pytest.raises(DilemmaViolation, match="duo_cooperator > mean"):
        PdParams(7.0, 9.0, 3.0, 1.0, 2.0, 6.0)


def test_coop_game_rows_are_zero_sum():
    table = coop_game()
    assert np.all(table.entries.sum(axis=1) == 0.0)
    assert table.entries[0].tolist() == [0.0, 0.0, 0.0]
    assert table.entries[1].tolist() == [1.0, 1.0, -2.0]
    assert table.entries[4].tolist() == [-2.0, 1.0, 1.0]


def test_payoff_table_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        PayoffTable(np.zeros((7, 3)))
    with pytest.raises(ShapeError):
        PayoffTable(np.full((8, 3), np.nan))


def test_payoff_table_bounds_magnitudes():
    PayoffTable(np.full((8, 3), -MAX_PAYOFF))
    above = np.zeros((8, 3))
    above[5, 1] = -np.nextafter(MAX_PAYOFF, np.inf)
    message = r"^a payoff table entry exceeds 1e\+150 in magnitude$"
    with pytest.raises(RangeError, match=message):
        PayoffTable(above)
    with pytest.raises(RangeError, match="exceeds 1e"):
        pd3(PdParams(7e200, 9e200, 3e200, 0.0, 1e200, 5e200))


def test_outcome_form_is_expectation(rng):
    table = pd3()
    joint = random_joint(rng)
    payoffs = payoff_outcome_form(table, joint)
    assert payoffs == pytest.approx(joint.prob @ table.entries, abs=1e-12)


def test_default_pd_marginal_coefficients():
    coeffs = marginal_form_coefficients(pd3())
    assert MARGINAL_COEFF_ORDER == (
        "xi", "p_ab", "p_bc", "p_ac", "lam", "mu", "nu", "const",
    )
    assert coeffs[:, 0] == pytest.approx([1, -1, 0, -1, -1, 4, 4, 1], abs=1e-12)
    assert coeffs[:, 1] == pytest.approx([1, -1, -1, 0, 4, -1, 4, 1], abs=1e-12)
    assert coeffs[:, 2] == pytest.approx([1, 0, -1, -1, 4, 4, -1, 1], abs=1e-12)


def test_coop_marginal_coefficients():
    coeffs = marginal_form_coefficients(coop_game())
    assert coeffs[:, 0] == pytest.approx([0, 2, -4, 2, -2, 1, 1, 0], abs=1e-12)


def test_marginal_coefficients_keep_left_to_right_sums(rng):
    # The expansion the lattice map replaced, as the reference: MOBIUS.T
    # on the table's columns is reduced left to right, so the bits agree.
    for _ in range(300):
        t = rng.normal(size=(8, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
        expected = [
            t[0] - t[1] - t[2] + t[3] - t[4] + t[5] + t[6] - t[7],
            t[1] - t[3] - t[5] + t[7],
            t[4] - t[5] - t[6] + t[7],
            t[2] - t[3] - t[6] + t[7],
            t[3] - t[7],
            t[5] - t[7],
            t[6] - t[7],
            t[7],
        ]
        assert np.array_equal(marginal_form_coefficients(PayoffTable(t)), expected)


@settings(max_examples=60, deadline=None)
@given(lam=probability, mu=probability, nu=probability)
def test_three_payoff_forms_agree_on_product_strategies(lam, mu, nu):
    s = StrategyTriple(lam, mu, nu)
    joint = JointDistribution(strategy_weights(s))
    for table in (pd3(), coop_game()):
        direct = payoff_factorizable(table, s)
        outcome = payoff_outcome_form(table, joint)
        marginal = payoff_marginal_form(
            table, strategy_marginals(s, MarginalConvention.CONJUNCTION)
        )
        assert direct == pytest.approx(outcome, abs=1e-12)
        assert direct == pytest.approx(marginal, abs=1e-12)


def test_marginal_form_agrees_on_any_joint(rng):
    table = pd3()
    for _ in range(100):
        joint = random_joint(rng)
        m = marginals_from_joint(joint, MarginalConvention.CONJUNCTION)
        assert payoff_marginal_form(table, m) == pytest.approx(
            payoff_outcome_form(table, joint), abs=1e-12
        )


def test_ghz_literal_marginal_payoff():
    rho = density_from_pure(ghz(complex(2.0 ** -0.5), complex(2.0 ** -0.5)))
    m = extract_marginals(rho, MarginalConvention.PARITY)
    assert payoff_marginal_form(pd3(), m) == pytest.approx([3.0] * 3, abs=1e-9)


def test_closed_form_state_payoffs_match_marginal_form(rng):
    table = pd3()
    for _ in range(100):
        state = random_pure_state(rng)
        closed = pd_payoffs_from_pure_state(state)
        m = extract_marginals(density_from_pure(state), MarginalConvention.PARITY)
        assert closed == pytest.approx(payoff_marginal_form(table, m), abs=1e-12)


def test_strategy_triple_clamps_and_rejects():
    s = StrategyTriple(1.0 + 5e-13, 0.0, 0.5)
    assert s.lam == 1.0
    with pytest.raises(RangeError):
        StrategyTriple(1.1, 0.0, 0.0)
