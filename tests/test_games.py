"""Payoff tables and the three payoff forms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finegames import (
    DEFAULT_PD_PARAMS,
    PLAYERS,
    DilemmaViolation,
    JointDistribution,
    MARGINAL_COEFF_ORDER,
    MarginalConvention,
    MarginalSet,
    PayoffTable,
    PdParams,
    RangeError,
    ShapeError,
    StrategyTriple,
    basis_bit,
    coop_game,
    density_from_pure,
    extract_marginals,
    ghz,
    load_game,
    marginal_form_coefficients,
    marginal_values,
    marginals_from_joint,
    payoff_factorizable,
    payoff_marginal_form,
    payoff_outcome_form,
    pd3,
    strategy_marginals,
)
import finegames.games as games
from finegames.games import MAX_PAYOFF
from finegames.measurement import MARGINAL_FIELDS, MOBIUS, _apply
from oracles import LITERAL, _polynomial_values, pd_payoffs_from_pure_state, strategy_weights
from conftest import random_conjunction_set, random_joint, random_pure_state

probability = st.floats(0.0, 1.0)


def test_default_pd_levels():
    assert DEFAULT_PD_PARAMS.as_tuple() == (7.0, 9.0, 3.0, 0.0, 1.0, 5.0)
    table = pd3()
    assert table.entries[0].tolist() == [7.0, 7.0, 7.0]
    assert table.entries[7].tolist() == [1.0, 1.0, 1.0]
    # lone defector takes the top payoff, the pair left behind gets the duo rate
    assert table.entries[4].tolist() == [9.0, 3.0, 3.0]
    assert table.entries[3].tolist() == [0.0, 5.0, 5.0]


# The level PdParams' docstring names for a player's situation, by its
# own basis bit and the number of defectors at the outcome.
SITUATION_LEVEL = {
    (0, 0): "all_cooperate", (1, 1): "lone_defector", (0, 1): "duo_cooperator",
    (0, 2): "lone_cooperator", (1, 2): "duo_defector", (1, 3): "all_defect",
}


def test_pd3_pays_each_player_the_level_of_its_situation(rng):
    # Affine images of jittered defaults keep every dilemma inequality.
    draws = [DEFAULT_PD_PARAMS]
    for _ in range(20):
        levels = np.array(DEFAULT_PD_PARAMS.as_tuple()) + rng.uniform(-0.2, 0.2, size=6)
        draws.append(PdParams(*(rng.uniform(0.1, 10.0) * levels + rng.uniform(-10.0, 10.0))))
    for params in draws:
        assert len(set(params.as_tuple())) == 6
        entries = pd3(params).entries.tolist()
        for k in range(8):
            defectors = sum(basis_bit(k, p) for p in PLAYERS)
            for i, player in enumerate(PLAYERS):
                name = SITUATION_LEVEL[basis_bit(k, player), defectors]
                assert entries[k][i] == getattr(params, name), (k, player, params)


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
    for k in range(8):
        bits = [basis_bit(k, p) for p in PLAYERS]
        for i, bit in enumerate(bits):
            want = 0.0 if len(set(bits)) == 1 else -2.0 if bits.count(bit) == 1 else 1.0
            assert table.entries[k][i] == want, (k, i)


def test_coop_game_is_built_once_and_tables_are_read_only():
    assert coop_game() is coop_game()
    for table in (coop_game(), pd3(), PayoffTable(np.ones((8, 3)))):
        for array in (table.entries, table._polynomial):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


def test_player_views_follow_the_monomial_exponents():
    # Each monomial as its 0/1 exponents of (x_A, x_B, x_C), enumerated
    # from the names of ("const", *MARGINAL_FIELDS): lam, mu, nu are the
    # singles, p_xy the pair x, y and xi the triple.
    letters = {"const": "", "lam": "a", "mu": "b", "nu": "c", "xi": "abc"}
    exponents = [
        tuple(int(c in letters.get(name, name[2:])) for c in "abc")
        for name in ("const", *MARGINAL_FIELDS)
    ]
    for p in range(3):
        q, r = (i for i in range(3) if i != p)
        assert (games._Q[p], games._R[p]) == (q, r)
        monomials = [own + rest for own in ((), (p,)) for rest in ((), (q,), (r,), (q, r))]
        want = [exponents.index(tuple(int(i in m) for i in range(3))) for m in monomials]
        assert games._VIEW[:, p].tolist() == want


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


def test_literal_parity_payoff_is_the_literal_weights_against_the_table():
    # The conjunction form applied to parity values of a diagonal d
    # scores the table against LITERAL @ d.
    diagonals = np.random.default_rng(20261022).dirichlet(np.ones(8), size=2000)
    values = marginal_values(diagonals, MarginalConvention.PARITY)
    worst = 0.0
    for table in (pd3(), coop_game()):
        literal = (diagonals @ LITERAL.T) @ table.entries
        for row, expected in zip(values, literal):
            got = payoff_marginal_form(table, MarginalSet(*row, MarginalConvention.PARITY))
            worst = max(worst, float(np.abs(got - expected).max()))
    assert worst <= 1e-13, worst


def test_strategy_triple_clamps_and_rejects():
    s = StrategyTriple(1.0 + 5e-13, 0.0, 0.5)
    assert s.lam == 1.0
    with pytest.raises(RangeError):
        StrategyTriple(1.1, 0.0, 0.0)


@pytest.mark.parametrize(
    "entries", [pd3().entries, coop_game().entries, np.arange(24.0).reshape(8, 3) / 7]
)
def test_polynomial_is_stored_once_read_only(entries, rng, monkeypatch):
    table = PayoffTable(entries)
    fresh = _apply(MOBIUS.T, table.entries.T).T
    assert (table._polynomial == fresh).all()
    assert not table._polynomial.flags.writeable
    with pytest.raises(ValueError):
        table._polynomial[0, 0] = 1.0
    sets = [random_conjunction_set(rng) for _ in range(64)]
    expected = [
        np.array([m.xi, m.p_ab, m.p_bc, m.p_ac, m.lam, m.mu, m.nu, 1.0])
        @ fresh[[7, 4, 5, 6, 1, 2, 3, 0]]
        for m in sets
    ]
    calls = []
    monkeypatch.setattr(games, "_apply", lambda *args: calls.append(args))
    values = [payoff_marginal_form(table, m) for m in sets]
    assert calls == []
    for got, want in zip(values, expected):
        assert got.tobytes() == want.tobytes()


def test_a_table_stores_its_entries_alone():
    assert [f.name for f in dataclasses.fields(PayoffTable)] == ["entries"]


def test_polynomial_is_derived_from_the_entries_on_the_first_read_only():
    rows = (np.arange(24.0).reshape(8, 3) - 11.0) / 7.0
    tables = [
        PayoffTable(rows),
        pd3(),
        pd3(PdParams(8.0, 10.0, 3.5, -1.0, 1.5, 6.0)),
        coop_game(),
        load_game({"kind": "pd3"}),
        load_game({"kind": "pd3", "params": [8, 10, 3.5, -1, 1.5, 6]}),
        load_game({"kind": "coop"}),
        load_game({"kind": "custom", "rows": rows.tolist()}),
    ]
    for table in tables:
        first = table._polynomial
        assert table._polynomial is first
        fresh = _apply(MOBIUS.T, table.entries.T).T
        assert first.shape == fresh.shape and first.tobytes() == fresh.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            table._polynomial = fresh
        assert table._polynomial is first


def test_slopes_and_factorizable_payoffs_match_the_joint_evaluator_bit_for_bit():
    # games._slopes and payoff_factorizable split the joint evaluator kept
    # in tests/oracles.py into its slope and payoff halves: each must
    # equal it by repr, row by row and in batches of two shapes, on
    # tables and triples that carry signed zeros.
    rng = np.random.default_rng(20261019)
    small = rng.integers(-2, 3, size=(40, 8, 3)).astype(float)
    small[rng.random(small.shape) < 0.5] *= -1.0
    tables = [pd3(), coop_game(), PayoffTable(np.zeros((8, 3))), PayoffTable(-np.zeros((8, 3)))]
    tables += [PayoffTable(rng.normal(size=(8, 3))) for _ in range(100)]
    tables += [PayoffTable(t) for t in small]
    x = rng.uniform(size=(48, 3))
    at_end = rng.random(x.shape) < 0.4
    x[at_end] = rng.choice([0.0, -0.0, 1.0, 0.5], size=at_end.sum())
    for table in tables:
        coeffs = table._polynomial
        payoffs, slopes = _polynomial_values(coeffs, x)
        assert repr(games._slopes(coeffs, x).tolist()) == repr(slopes.tolist())
        batch = games._slopes(coeffs, x.reshape(4, 12, 3)).reshape(-1, 3)
        assert repr(batch.tolist()) == repr(slopes.tolist())
        for row, payoff, slope in zip(x, payoffs, slopes):
            assert repr(games._slopes(coeffs, row).tolist()) == repr(slope.tolist())
            got = payoff_factorizable(table, StrategyTriple(*row))
            assert repr(got.tolist()) == repr(payoff.tolist())
