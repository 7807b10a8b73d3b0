"""Equilibrium certification, lattice search, and coalition analysis."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finegames import (
    MarginalConvention,
    PayoffTable,
    ShapeError,
    StrategyTriple,
    coalition_analysis,
    coalition_reduction,
    coop_best_response_solve,
    coop_game,
    factorizable_gradient,
    grid_ne_search,
    marginal_form_coefficients,
    parity_product_gradient,
    payoff_factorizable,
    payoff_marginal_values,
    pd3,
    product_state_interior_solve,
    verify_ne_factorizable,
    zero_sum_2x2_value,
)
from finegames.games import MAX_PAYOFF

probability = st.floats(0.0, 1.0)
level = st.floats(-10.0, 10.0, allow_subnormal=False)
GRADIENT_STEP = 1e-5


def symmetric_table(ac, ld, dc, lc, ad, dd) -> PayoffTable:
    """Player-symmetric table with pd3's layout and arbitrary levels."""
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


def table_with_own_slope(c_xi, b, c_lam) -> PayoffTable:
    """Symmetric table whose own slope is c_xi*u**2 + b*u + c_lam, u = 2t - 1."""
    dc = b / 2.0 + c_lam
    return symmetric_table(c_xi + 2.0 * dc - c_lam, 0.0, dc, c_lam, 0.0, 0.0)


def parity_product_values(lam: float, mu: float, nu: float) -> tuple:
    """Raw marginal values of independent single-qubit strategies."""

    def agree(x, y):
        return x * y + (1.0 - x) * (1.0 - y)

    xi = (
        lam * mu * nu
        + lam * (1.0 - mu) * (1.0 - nu)
        + (1.0 - lam) * mu * (1.0 - nu)
        + (1.0 - lam) * (1.0 - mu) * nu
    )
    return lam, mu, nu, agree(lam, mu), agree(mu, nu), agree(lam, nu), xi


def parity_product_payoffs(table: PayoffTable, lam, mu, nu) -> np.ndarray:
    l, m, n, p_ab, p_bc, p_ac, xi = parity_product_values(lam, mu, nu)
    return payoff_marginal_values(table, l, m, n, p_ab, p_bc, p_ac, xi)


def test_all_defect_is_strict_equilibrium():
    cert = verify_ne_factorizable(pd3(), StrategyTriple(0.0, 0.0, 0.0))
    assert cert.is_ne
    assert cert.player_slack == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    assert cert.note.startswith("strict equilibrium")


def test_all_cooperate_is_rejected_with_gain():
    cert = verify_ne_factorizable(pd3(), StrategyTriple(1.0, 1.0, 1.0))
    assert not cert.is_ne
    assert min(cert.player_slack) == pytest.approx(-2.0, abs=1e-12)
    assert "gains 2" in cert.note


def test_flat_game_is_weak_everywhere():
    table = PayoffTable(np.zeros((8, 3)))
    cert = verify_ne_factorizable(table, StrategyTriple(0.4, 0.4, 0.4))
    assert cert.is_ne
    assert "weak equilibrium" in cert.note


def test_pd_lattice_has_single_equilibrium():
    found = grid_ne_search(pd3(), 11)
    assert len(found) == 1
    assert found[0].triple.as_tuple() == (0.0, 0.0, 0.0)


def test_coop_lattice_equilibria():
    found = grid_ne_search(coop_game(), 11)
    triples = [c.triple.as_tuple() for c in found]
    assert triples == [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]


def test_grid_requires_two_points():
    with pytest.raises(ShapeError):
        grid_ne_search(pd3(), 1)


def test_pd_interior_stationary_point():
    sol = product_state_interior_solve(pd3())
    assert sol is not None
    expected = (2.0 - math.sqrt(2.0)) / 2.0
    assert abs(sol.lam - expected) <= 4e-16
    assert sol.mu == sol.lam and sol.nu == sol.lam


def test_coop_interior_stationary_point():
    # own slope is 4(2t - 1) - 2, vanishing at t = 3/4
    sol = product_state_interior_solve(coop_game())
    assert sol is not None
    assert sol.lam == pytest.approx(0.75, abs=1e-12)


def test_flat_table_has_no_isolated_root():
    assert product_state_interior_solve(PayoffTable(np.zeros((8, 3)))) is None


@pytest.mark.parametrize(
    "c_xi, b, c_lam, expected",
    [
        (1.0, -0.5, 0.0625, 0.625),  # double root (u - 1/4)^2 at a dyadic vertex
        (1.0, -0.5, 0.0625 + 5e-14, 0.625),  # vertex value inside the zero tolerance
        (1.0, -0.5, 0.0625 + 1e-12, None),  # vertex value outside it
        (0.0, 2.0, 1.0, 0.25),  # linear slope
        (1e-12, 2.0, 1.0, 0.25),  # nearly linear slope
        (0.0, 1.0, 3.0, None),  # linear slope, root outside [0, 1]
        (-1.0, 0.0, 4.0, None),  # both roots outside [0, 1]
    ],
)
def test_interior_solve_explicit_cases(c_xi, b, c_lam, expected):
    sol = product_state_interior_solve(table_with_own_slope(c_xi, b, c_lam))
    if expected is None:
        assert sol is None
    else:
        assert sol.as_tuple() == pytest.approx((expected,) * 3, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(levels=st.tuples(level, level, level, level, level, level))
def test_interior_solve_matches_numpy_roots(levels):
    table = symmetric_table(*levels)
    c_xi, c_pab, _, c_pac, c_lam = marginal_form_coefficients(table)[:5, 0]
    b = c_pab + c_pac
    scale = max(abs(c_xi), abs(b), abs(c_lam))
    assume(scale > 1e-6)
    # Skip nearly linear slopes, near-double roots and roots near the
    # interval ends, where the eigenvalue-based reference is not
    # accurate to 1e-12.
    assume(c_xi == 0.0 or abs(c_xi) > 1e-6 * scale)
    assume(c_xi == 0.0 or abs(b * b - 4.0 * c_xi * c_lam) > 1e-6 * scale * scale)
    roots = np.roots([c_xi, b, c_lam])
    real = [(r.real + 1.0) / 2.0 for r in roots if r.imag == 0.0]
    assume(all(abs(t) > 1e-9 and abs(t - 1.0) > 1e-9 for t in real))
    inside = [t for t in real if 0.0 <= t <= 1.0]
    sol = product_state_interior_solve(table)
    if not inside:
        assert sol is None
    else:
        assert sol is not None
        assert sol.lam == pytest.approx(min(inside), abs=1e-12)


def test_asymmetric_table_is_rejected():
    entries = np.zeros((8, 3))
    entries[0] = (1.0, 2.0, 3.0)
    with pytest.raises(ShapeError):
        product_state_interior_solve(PayoffTable(entries))


@settings(max_examples=60, deadline=None)
@given(lam=probability, mu=probability, nu=probability)
def test_parity_gradient_matches_central_differences(lam, mu, nu):
    table = pd3()
    grad = parity_product_gradient(table, StrategyTriple(lam, mu, nu))
    h = GRADIENT_STEP
    for axis in range(3):
        point = [lam, mu, nu]
        if point[axis] < h:
            point[axis] = h
        elif point[axis] > 1.0 - h:
            point[axis] = 1.0 - h
        grad_here = parity_product_gradient(table, StrategyTriple(*point))[axis]
        up = list(point)
        down = list(point)
        up[axis] += h
        down[axis] -= h
        numeric = (
            parity_product_payoffs(table, *up)[axis]
            - parity_product_payoffs(table, *down)[axis]
        ) / (2.0 * h)
        assert grad_here == pytest.approx(numeric, abs=1e-6)


def test_gradient_vanishes_at_interior_solution():
    table = pd3()
    sol = product_state_interior_solve(table)
    grad = parity_product_gradient(table, sol)
    assert np.max(np.abs(grad)) < 1e-9


def test_zero_sum_matching_pennies():
    value, row, col = zero_sum_2x2_value([[1.0, -1.0], [-1.0, 1.0]])
    assert value == pytest.approx(0.0, abs=1e-15)
    assert row == pytest.approx((0.5, 0.5))
    assert col == pytest.approx((0.5, 0.5))


def test_zero_sum_saddle_point():
    value, row, col = zero_sum_2x2_value([[2.0, 1.0], [4.0, 3.0]])
    assert value == pytest.approx(3.0)
    assert row == (0.0, 1.0)
    assert col == (0.0, 1.0)


def test_zero_sum_flat():
    value, row, col = zero_sum_2x2_value([[1.0, 1.0], [1.0, 1.0]])
    assert value == 1.0
    assert row == (0.5, 0.5)


def test_coop_pair_reduction():
    red = coalition_reduction(coop_game(), "A")
    assert red.odd_player == "A"
    assert red.members == ("B", "C")
    assert red.full_matrix.tolist() == [
        [0.0, 2.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
        [2.0, 0.0],
    ]
    assert red.kept_rows == (0, 3)
    assert red.reduced.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert red.value == pytest.approx(1.0, abs=1e-15)
    assert red.member_mix == pytest.approx((0.5, 0.5))
    assert red.odd_mix == pytest.approx((0.5, 0.5))


def test_coop_coalition_values():
    values = coalition_analysis(coop_game())
    assert [v.members for v in values] == [
        ("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "C"),
    ]
    assert [v.value for v in values] == pytest.approx([-1, -1, -1, 1, 1, 1], abs=1e-15)


def test_coalition_analysis_requires_zero_sum():
    with pytest.raises(ShapeError):
        coalition_analysis(pd3())


def test_coop_best_response_point():
    l_star, c_star = coop_best_response_solve()
    assert (l_star, c_star) == (0.5, 0.5)


def test_coop_best_response_flat_table():
    assert coop_best_response_solve(PayoffTable(np.zeros((8, 3)))) == (0.5, 0.0)


def test_coop_best_response_zeroes_payoff_derivatives(rng):
    solved = 0
    for _ in range(300):
        table = PayoffTable(rng.normal(size=(8, 3)))
        try:
            l_star, c_star = coop_best_response_solve(table)
        except ValueError:
            continue
        solved += 1
        s = StrategyTriple(l_star, c_star, c_star)
        assert factorizable_gradient(table, s)[0] == pytest.approx(0.0, abs=1e-12)
        # Second player's payoff along mu = nu; it is affine in nu.
        at_nu = [
            float(payoff_factorizable(table, StrategyTriple(l_star, c_star, nu))[1])
            for nu in (0.0, 1.0)
        ]
        diagonal = factorizable_gradient(table, s)[1] + at_nu[1] - at_nu[0]
        assert diagonal == pytest.approx(0.0, abs=1e-12)
    assert solved >= 30


def test_coop_midpoint_is_weak_equilibrium():
    cert = verify_ne_factorizable(coop_game(), StrategyTriple(0.5, 0.5, 0.5))
    assert cert.is_ne
    assert "weak equilibrium" in cert.note


def test_tables_at_the_payoff_bound_raise_no_warning():
    signs = [np.array(levels) for levels in itertools.product((-1.0, 1.0), repeat=6)]
    tables = [symmetric_table(*(MAX_PAYOFF * s)) for s in signs]
    tables += [
        PayoffTable(MAX_PAYOFF * np.where(np.arange(24) % k == 0, -1.0, 1.0).reshape(8, 3))
        for k in (2, 3, 5, 7)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in tables:
            grid_ne_search(table, 5, 1e-9)
            for triple in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.3, 0.9, 0.1)):
                verify_ne_factorizable(table, StrategyTriple(*triple), 1e-9)
        for table in tables[: len(signs)]:
            solution = product_state_interior_solve(table)
            if solution is not None:
                parity_product_gradient(table, solution)
