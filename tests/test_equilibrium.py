"""Equilibrium certification, lattice search, and coalition analysis."""

import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finegames import (
    CoalitionReduction,
    DEFAULT_PD_PARAMS,
    MarginalConvention,
    PLAYERS,
    PayoffTable,
    PdParams,
    RangeError,
    ShapeError,
    StrategyTriple,
    basis_bit,
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
import finegames.equilibrium as equilibrium
from finegames.cli import main as cli_main
from finegames.equilibrium import DEFAULT_NE_TOL, MAX_RESOLUTION, _lattice_screen
from finegames.games import MAX_PAYOFF, _SLOPE, _slope_plane, _slopes
from oracles import (
    LITERAL,
    endpoint_certificates,
    exact_ne_points,
    lattice_screen,
    reference_coalition_matrix,
    reference_coalition_reduction,
    reference_coop_best_response_solve,
    reference_eliminate_weakly_dominated_rows,
    reference_endpoint_audit,
    reference_lattice_screen,
    reference_zero_sum_2x2_value,
    zero_sum_4x2_value,
)

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


def own_choice_blind_table(rng) -> PayoffTable:
    """Each player's payoff depends on the two opponents' choices only."""
    others = rng.normal(size=(3, 2, 2))
    bits = np.array(list(itertools.product((0, 1), repeat=3)))
    return PayoffTable(
        np.array([[others[p][tuple(np.delete(b, p))] for p in range(3)] for b in bits])
    )


def oracle_family(rng, resolution):
    """Seeded tables: perturbed dilemmas, normal tables, small-integer
    tables full of ties and own-choice-blind tables (every point a
    weak equilibrium). The oracle's cubes and the all-hit lattices grow
    as resolution^3, so finer lattices get fewer tables."""
    count, blind = {5: (60, 40), 11: (50, 15), 61: (6, 1)}[resolution]
    levels = np.array(DEFAULT_PD_PARAMS.as_tuple())
    for _ in range(count):
        yield pd3(PdParams(*(levels + rng.uniform(-0.2, 0.2, 6))))
        yield PayoffTable(rng.normal(size=(8, 3)))
        yield PayoffTable(rng.integers(-2, 3, size=(8, 3)).astype(float))
    for _ in range(blind):
        yield own_choice_blind_table(rng)


def test_lattice_hit_bound():
    # All 64^3 = 262,144 points of an own-choice-blind lattice pass the
    # screen; the search refuses before it builds a certificate.
    table = own_choice_blind_table(np.random.default_rng(5))
    with pytest.raises(ShapeError, match="passes 262144 points, more than the 250000"):
        grid_ne_search(table, 64)


def test_lattice_search_matches_outcome_form_oracle():
    rng = np.random.default_rng(20261018)
    searches = 0
    for resolution in (5, 11, 61):
        for table in oracle_family(rng, resolution):
            found = grid_ne_search(table, resolution)
            triples = [c.triple.as_tuple() for c in found]
            assert triples == lattice_screen(table.entries, resolution, 1e-9)
            slacks, is_ne, notes = endpoint_certificates(table.entries, triples, 1e-9)
            assert [c.is_ne for c in found] == is_ne
            assert [c.note for c in found] == notes
            got = np.array([c.player_slack for c in found]).reshape(-1, 3)
            assert np.max(np.abs(got - slacks), initial=0.0) <= 1e-14
            searches += 1
    assert searches >= 400


SCREEN_TOLS = (0.0, 1e-300, 1e-9, 0.5, 3.0, 5e-324)
SCREEN_RESOLUTIONS = (2, 3, 5, 11, 61, 101)


def own_slope_table(slopes) -> PayoffTable:
    """Player p earns slopes[p] by cooperating, whatever the others do,
    so each slope plane is the constant slopes[p]."""
    cooperates = 1 - np.array(list(itertools.product((0, 1), repeat=3)))
    return PayoffTable(cooperates * np.asarray(slopes, dtype=float))


def corner_table(corners) -> PayoffTable:
    """Player p earns corners[p][i][j] by cooperating while its opponents
    q < r play i and j (1 cooperates), and 0 by defecting, so p's slope
    plane takes those values at its corners."""
    opponents = ((1, 2), (0, 2), (0, 1))
    return PayoffTable(np.array([
        [b[p] * corners[p][b[q]][b[r]] for p, (q, r) in enumerate(opponents)]
        for b in itertools.product((1, 0), repeat=3)
    ], dtype=float))


def corner_margin(table, p, resolution, tol) -> float:
    """The band's bound plus 16 eps sum|c| + 8 tiny over player p's slope
    coefficients c: slope corners past it, all on one side, leave p's
    band without a lattice point."""
    tiny = float(np.finfo(float).tiny)
    c = table._polynomial[_SLOPE[:, p], p].tolist()
    bound = 2.0 * (resolution - 1) * max(tol, tiny)
    return bound + 16.0 * float(np.finfo(float).eps) * sum(map(abs, c)) + 8.0 * tiny


def ulps(x, k):
    """x moved k floats up (down if k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def least_clearing(scale, p, resolution, tol) -> float:
    """The least m past player p's corner margin when p's slope plane
    has the corners m, m, m and m + scale."""
    def margin(m):
        table = corner_table([[[m, m], [m, m + scale]]] * 3)
        return corner_margin(table, p, resolution, tol)

    m = margin(0.0)
    while m <= margin(m):
        m = ulps(m, 1)
    while ulps(m, -1) > margin(ulps(m, -1)):
        m = ulps(m, -1)
    return m


def margin_tables(resolution, tol):
    """Tables whose players' least slope corners sit two floats below to
    one float above the least that clears the corner margin, and tables
    with one player's at the band's bound or the subnormal floor and
    the others' at that least value. Constant and bilinear slopes of
    magnitudes 1e-300 to 1e149; B's slopes are negated."""
    bound = 2.0 * (resolution - 1) * max(tol, np.finfo(float).tiny)
    for i, scales in enumerate(((0.0, 1e-300, 1e149), (1e-12, 1.0, 1e100))):
        at = [least_clearing(s, p, resolution, tol) for p, s in enumerate(scales)]
        places = [[ulps(m, k) for m in at] for k in (-2, -1, 0, 1)]
        places.append(at[:i] + [bound] + at[i + 1:])
        places.append(at[: i + 1] + [5e-324] + at[i + 2:])
        for place in places:
            yield corner_table([
                [[sign * m, sign * m], [sign * m, sign * (m + s)]]
                for m, s, sign in zip(place, scales, (1.0, -1.0, 1.0))
            ])


# Each player's slope corners per unit of scale, as corner_table takes
# them: constant for A, mixed signs for B, and for C the slope
# a (1 - 2 x_q)(1 - 2 x_r), whose coefficients sum to 9 a.
FLAT_SHAPES = (
    ((1.0, 1.0), (1.0, 1.0)), ((-1.0, -0.5), (0.25, -1.0)), ((1.0, -1.0), (-1.0, 1.0)),
)


def flat_table(scales) -> PayoffTable:
    """The corner table of FLAT_SHAPES, player p's scaled by scales[p]."""
    return corner_table([
        [[m * w for w in row] for row in shape] for m, shape in zip(scales, FLAT_SHAPES)
    ])


def is_flat(table, p, tol) -> bool:
    """Whether player p's |slope coefficients| sum S has S (1 + 16 eps)
    + 8 tiny <= tol, which puts every lattice slope of p within tol."""
    finfo = np.finfo(float)
    c = table._polynomial[_SLOPE[:, p], p].tolist()
    return sum(map(abs, c)) * (1.0 + 16.0 * float(finfo.eps)) + 8.0 * float(finfo.tiny) <= tol


def flat_limit(p, tol) -> float:
    """The greatest scale of player p's flat shape that is flat at tol,
    or 0 when none is."""
    def flat(m):
        return is_flat(flat_table([m if q == p else 0.0 for q in range(3)]), p, tol)

    if not flat(0.0):
        return 0.0
    unit = flat_table([1.0] * 3)._polynomial[_SLOPE[:, p], p]
    m = (tol - 8.0 * float(np.finfo(float).tiny)) / float(np.abs(unit).sum())
    while not flat(m):
        m = ulps(m, -1)
    while flat(ulps(m, 1)):
        m = ulps(m, 1)
    return m


def flat_tables(tol):
    """Tables whose players' scales sit one float under, at and one
    float over the flat limit, and mixed one way and the other; signed
    zeros and subnormals; and C's cancelling slope at an eighth of tol,
    whose coefficient sum of 9/8 tol keeps it off the flat test."""
    at = [flat_limit(p, tol) for p in range(3)]
    for k in (-1, 0, 1):
        yield flat_table([ulps(m, k) for m in at])
    yield flat_table([ulps(at[0], -1), at[1], ulps(at[2], 1)])
    yield flat_table([ulps(at[0], 1), at[1], ulps(at[2], -1)])
    tiny = float(np.finfo(float).tiny)
    yield corner_table([
        [[-0.0, 5e-324], [0.0, -5e-324]],
        [[tiny / 2.0, -0.0], [-tiny, 0.0]],
        [[-0.0, -0.0], [0.0, 0.0]],
    ])
    yield flat_table([0.0, 0.0, tol / 8.0])


def screen_tables(rng, tol, resolution):
    """Seeded tables for the screen property: a perturbed dilemma, a
    normal table, a small-integer table full of ties, an own-choice-
    blind table, a scaled odd-man-out game (each slope vanishes along a
    line of the plane, so the band is a thin strip), a tiny-payoff
    table (band over the whole plane at most tolerances), constant
    slopes at the band's edge: one float past (n - 1) tol, where
    rounding still lets interior points pass at resolutions 11 and 61,
    exactly at 2 (n - 1) tol, and subnormal; the margin tables, whose
    slope corners sit either side of the corner margin; and a slope
    whose four corners are positive while rounding takes some of its
    lattice values to exactly 0, at every resolution here but 2 (a
    corner rule without its margin would drop those points); and the
    flat tables, whose slope coefficient sums sit either side of the
    flat limit."""
    levels = np.array(DEFAULT_PD_PARAMS.as_tuple())
    yield pd3(PdParams(*(levels + rng.uniform(-0.2, 0.2, 6))))
    yield PayoffTable(rng.normal(size=(8, 3)))
    yield PayoffTable(rng.integers(-2, 3, size=(8, 3)).astype(float))
    yield own_choice_blind_table(rng)
    yield PayoffTable(rng.uniform(0.5, 2.0) * coop_game().entries)
    yield PayoffTable(1e-12 * rng.normal(size=(8, 3)))
    edge = (resolution - 1) * max(tol, np.finfo(float).tiny)
    past = np.nextafter(edge, np.inf)
    yield own_slope_table((past, -past, np.nextafter(past, np.inf)))
    yield own_slope_table((2.0 * edge, -2.0 * edge, -edge))
    yield own_slope_table((5e-324, -1e-310, np.finfo(float).tiny))
    yield from margin_tables(resolution, tol)
    flat = [[0.0, 0.0], [0.0, 0.0]]
    yield corner_table([[[1.516, 1.348], [2.0**-52, 2.0**-52]], flat, flat])
    yield from flat_tables(tol)


def expand_screen(screen, grid) -> np.ndarray:
    """The n^3 cube of a _lattice_screen result: its sub-cube placed at
    its axis values, each the whole grid or its two endpoints, and False
    everywhere else."""
    cube, axes = screen
    index = [np.searchsorted(grid, axis) for axis in axes]
    for axis, i in zip(axes, index):
        assert axis.size in (2, grid.size) and np.array_equal(grid[i], axis)
        assert i[0] == 0 and i[-1] == grid.size - 1
    full = np.zeros((grid.size,) * 3, dtype=bool)
    full[np.ix_(*index)] = cube
    return full


def test_lattice_screen_matches_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    cases = 0
    for resolution in SCREEN_RESOLUTIONS:
        grid = np.linspace(0.0, 1.0, resolution)
        for tol in SCREEN_TOLS:
            for table in screen_tables(rng, tol, resolution):
                coeffs = table._polynomial
                got = expand_screen(_lattice_screen(coeffs, grid, tol), grid)
                want = reference_lattice_screen(coeffs, grid, tol)
                assert np.array_equal(got, want), (resolution, tol, table.entries)
                cases += 1
    assert cases == 29 * len(SCREEN_TOLS) * len(SCREEN_RESOLUTIONS)


def test_a_slope_rounding_past_its_coefficient_sum_is_not_flat():
    # Summed from the x_q x_r term down, A's float slope at the corner
    # (1, 1) is one float above S, the float sum of its |coefficients|.
    # At tol = S a flat test without its margin would pass every slice
    # of A; the reference fails A's 0-slice at that corner.
    flat = [[0.0, 0.0], [0.0, 0.0]]
    corners = [[0.2436537132174069, 0.5869212597356344], [0.34350766827168594, 0.7562781833684613]]
    coeffs = corner_table([corners, flat, flat])._polynomial
    tol = sum(map(abs, coeffs[_SLOPE[:, 0], 0].tolist()))
    assert _slope_plane(coeffs, 0, 1.0, 1.0) > tol
    for resolution in (2, 3, 11):
        grid = np.linspace(0.0, 1.0, resolution)
        want = reference_lattice_screen(coeffs, grid, tol)
        assert not want.all()
        assert np.array_equal(expand_screen(_lattice_screen(coeffs, grid, tol), grid), want)


def test_lattice_screen_memory_peak_within_reference():
    # Every slope of an own-choice-blind table is 0, so the band covers
    # every interior slice: the screen's worst case.
    coeffs = own_choice_blind_table(np.random.default_rng(5))._polynomial
    grid = np.linspace(0.0, 1.0, MAX_RESOLUTION)
    peaks = []
    for screen in (_lattice_screen, reference_lattice_screen):
        tracemalloc.start()
        try:
            cube = screen(coeffs, grid, DEFAULT_NE_TOL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if screen is _lattice_screen:
            assert cube[0].shape == (MAX_RESOLUTION,) * 3
            cube = expand_screen(cube, grid)
        assert cube.all()
        del cube
    assert peaks[0] <= peaks[1]


def test_screen_axes_keep_only_the_endpoints_of_an_empty_band():
    # No slope of the dilemma comes near 0, so each axis keeps 0 and 1.
    # Each odd-man-out slope vanishes along a line through the lattice,
    # so each axis is whole. Constant slopes (0, -1, 1) leave a band for
    # A alone.
    cases = (
        (pd3(), (False, False, False)),
        (coop_game(), (True, True, True)),
        (own_slope_table((0.0, -1.0, 1.0)), (True, False, False)),
    )
    for resolution in (2, 3, 11, 61):
        grid = np.linspace(0.0, 1.0, resolution)
        for table, whole in cases:
            coeffs = table._polynomial
            cube, axes = _lattice_screen(coeffs, grid, DEFAULT_NE_TOL)
            for axis, w in zip(axes, whole):
                assert np.array_equal(axis, grid if w else grid[[0, -1]])
            assert cube.shape == tuple(axis.size for axis in axes)
            want = reference_lattice_screen(coeffs, grid, DEFAULT_NE_TOL)
            assert np.array_equal(expand_screen((cube, axes), grid), want)


def test_screen_of_empty_bands_builds_no_full_cube():
    # The dilemma's slope corners all clear the band, so at MAX_RESOLUTION
    # the screen builds no slope plane and a 2x2x2 cube: it peaks below
    # one float64 n^2 plane.
    coeffs = pd3()._polynomial
    grid = np.linspace(0.0, 1.0, MAX_RESOLUTION)
    tracemalloc.start()
    try:
        cube, _ = _lattice_screen(coeffs, grid, DEFAULT_NE_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.shape == (2, 2, 2)
    assert peak < MAX_RESOLUTION**2 * 8


def test_a_cleared_player_evaluates_no_slope(monkeypatch):
    # A player whose four slope corners clear the band gets no slope
    # plane, and its endpoint slices are constants; a flat player, whose
    # slopes all lie within tol, gets none either, and every slice of it
    # passes: neither's slopes are evaluated. All of pd3's players
    # clear. With constant slopes (0, -1, 1), A is flat and B and C
    # clear; with (0, 0, -1), A and B are flat and C clears; on an
    # own-choice-blind table every slope is 0. C's slope cancelling to
    # an eighth of tol has a coefficient sum past it, so it builds its
    # plane. Each odd-man-out slope changes sign, so every player there
    # builds its plane.
    calls = []
    plane = equilibrium._slope_plane

    def recorded(coeffs, p, xq, xr):
        g = plane(coeffs, p, xq, xr)
        calls.append((p, g.shape))
        return g

    monkeypatch.setattr(equilibrium, "_slope_plane", recorded)
    n = 61
    grid = np.linspace(0.0, 1.0, n)
    cases = (
        (pd3(), []),
        (own_slope_table((0.0, -1.0, 1.0)), []),
        (own_slope_table((0.0, 0.0, -1.0)), []),
        (own_choice_blind_table(np.random.default_rng(5)), []),
        (flat_table([0.0, 0.0, DEFAULT_NE_TOL / 8.0]), [(2, (n, n))]),
        (coop_game(), [(0, (n, n)), (1, (n, n)), (2, (n, n))]),
    )
    for table, want in cases:
        calls.clear()
        coeffs = table._polynomial
        got = expand_screen(_lattice_screen(coeffs, grid, DEFAULT_NE_TOL), grid)
        assert calls == want
        assert np.array_equal(got, reference_lattice_screen(coeffs, grid, DEFAULT_NE_TOL))
    calls.clear()
    found = grid_ne_search(pd3(), MAX_RESOLUTION)
    assert [c.triple.as_tuple() for c in found] == [(0.0, 0.0, 0.0)]
    assert calls == []


def test_lattice_grid_is_built_once_per_resolution_and_read_only():
    grid = equilibrium._lattice_grid(11)
    assert grid is equilibrium._lattice_grid(11)
    assert not grid.flags.writeable
    assert np.array_equal(grid, np.linspace(0.0, 1.0, 11))
    assert equilibrium._lattice_grid.cache_info().maxsize == MAX_RESOLUTION


def test_grid_search_reads_hits_from_the_flat_cube(monkeypatch):
    ndims = []
    nonzero = np.nonzero

    def flat_nonzero(a):
        ndims.append(np.ndim(a))
        return nonzero(a)

    def no_argwhere(a):
        raise AssertionError("grid_ne_search called np.argwhere")

    monkeypatch.setattr(np, "nonzero", flat_nonzero)
    monkeypatch.setattr(np, "argwhere", no_argwhere)
    found = grid_ne_search(coop_game(), 11)
    monkeypatch.undo()
    assert [c.triple.as_tuple() for c in found] == [
        (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)
    ]
    assert ndims and set(ndims) == {1}


def test_every_equilibrium_note():
    # With constant slopes 0 or -1, (0, 0, 0) is an equilibrium whose
    # payoff-neutral deviations are exactly the zero-slope players'.
    notes = {
        (-1.0, -1.0, -1.0): "strict equilibrium: every unilateral deviation loses",
        (-1.0, -1.0, 0.0): "weak equilibrium: payoff-neutral deviations for C",
        (-1.0, 0.0, -1.0): "weak equilibrium: payoff-neutral deviations for B",
        (-1.0, 0.0, 0.0): "weak equilibrium: payoff-neutral deviations for B, C",
        (0.0, -1.0, -1.0): "weak equilibrium: payoff-neutral deviations for A",
        (0.0, -1.0, 0.0): "weak equilibrium: payoff-neutral deviations for A, C",
        (0.0, 0.0, -1.0): "weak equilibrium: payoff-neutral deviations for A, B",
        (0.0, 0.0, 0.0): "weak equilibrium: payoff-neutral deviations for A, B, C",
    }
    origin = StrategyTriple(0.0, 0.0, 0.0)
    for slopes, note in notes.items():
        cert = verify_ne_factorizable(own_slope_table(slopes), origin)
        assert cert.is_ne and cert.note == note, slopes
    cert = verify_ne_factorizable(own_slope_table((1.0, -1.0, -1.0)), origin)
    assert not cert.is_ne
    assert cert.note == "not an equilibrium: player A gains 1 by moving to 1"


def audit_tables(rng):
    """The lattice workloads' table shapes (8 perturbed dilemmas, 8
    normal tables, 16 own-choice-blind tables), both default games and
    small-integer tables full of ties."""
    levels = np.array(DEFAULT_PD_PARAMS.as_tuple())
    for _ in range(8):
        yield pd3(PdParams(*(levels + rng.uniform(-0.2, 0.2, 6))))
        yield PayoffTable(rng.normal(size=(8, 3)))
    for _ in range(16):
        yield own_choice_blind_table(rng)
    yield pd3()
    yield coop_game()
    for _ in range(8):
        yield PayoffTable(rng.integers(-2, 3, size=(8, 3)).astype(float))


def test_endpoint_audit_matches_reference_bit_for_bit():
    rng = np.random.default_rng(20261019)
    grid = np.linspace(0.0, 1.0, 5)
    lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    notes, failing = set(), set()
    for table in audit_tables(rng):
        coeffs = table._polynomial
        # Off-lattice points, a third of their values moved to an endpoint.
        off = rng.uniform(size=(40, 3))
        ends = rng.integers(0, 2, size=off.shape).astype(float)
        off = np.where(rng.uniform(size=off.shape) < 1 / 3, ends, off)
        for points in (lattice, off):
            for tol in (0.0, 1e-9, 0.5):
                got = equilibrium._endpoint_audit(coeffs, points, tol)
                want = reference_endpoint_audit(coeffs, points, tol)
                assert len(got) == len(want) == len(points)
                for a, b in zip(got, want):
                    assert repr(a.triple) == repr(b.triple)
                    assert repr(a.player_slack) == repr(b.player_slack)
                    assert a.is_ne is b.is_ne and a.note == b.note
                notes.update(c.note for c in got if c.is_ne)
                failing.update(tuple(c.note.split()[4::6]) for c in got if not c.is_ne)
    assert notes == set(equilibrium._EQUILIBRIUM_NOTES)
    # Every player is the worst deviator somewhere, to each endpoint.
    assert len(failing) == 6


def test_pd3_screen_tests_no_slice(monkeypatch):
    # No slope of the dilemma comes near 0, so every player clears: its
    # band is empty and its two endpoint slices are constants.
    tested = []
    passes = equilibrium._slice_passes

    def counted(x, g, tol):
        tested.append(float(x))
        return passes(x, g, tol)

    monkeypatch.setattr(equilibrium, "_slice_passes", counted)
    found = grid_ne_search(pd3(), MAX_RESOLUTION)
    assert [c.triple.as_tuple() for c in found] == [(0.0, 0.0, 0.0)]
    assert tested == []


def test_interior_slices_are_tested_on_the_band_only(monkeypatch):
    # Each slope of the odd-man-out game vanishes along a line, so each
    # band is a thin strip of the plane. At MAX_RESOLUTION a block is one
    # row of the plane, whose band is one run of columns: the calls test
    # every interior slice on exactly the band's points, in C order,
    # while the endpoint slices take the whole plane. The cube is the
    # reference's, bit for bit.
    calls = []
    passes = equilibrium._slice_passes

    def recorded(x, g, tol):
        calls.append((np.array(x), g.copy()))
        return passes(x, g, tol)

    monkeypatch.setattr(equilibrium, "_slice_passes", recorded)
    n = MAX_RESOLUTION
    grid = np.linspace(0.0, 1.0, n)
    coeffs = coop_game()._polynomial
    cube = expand_screen(_lattice_screen(coeffs, grid, DEFAULT_NE_TOL), grid)
    monkeypatch.undo()
    assert np.array_equal(cube, reference_lattice_screen(coeffs, grid, DEFAULT_NE_TOL))
    # Each player's calls open with its two endpoint slices (a scalar x).
    starts = [k for k, (x, _) in enumerate(calls) if x.ndim == 0][::2]
    assert starts[0] == 0 and len(starts) == 3
    for p, (start, stop) in enumerate(zip(starts, starts[1:] + [len(calls)])):
        plane = _slope_plane(coeffs, p, grid[:, None], grid[None, :])
        band = np.abs(plane) <= 2.0 * (n - 1) * DEFAULT_NE_TOL
        assert 0 < np.count_nonzero(band) <= n
        (x0, g0), (x1, g1), *interior = calls[start:stop]
        assert (float(x0), float(x1)) == (0.0, 1.0)
        assert np.array_equal(g0, plane) and np.array_equal(g1, plane)
        assert all(np.array_equal(x, grid[1:-1, None, None]) for x, _ in interior)
        assert np.array_equal(np.concatenate([g.ravel() for _, g in interior]), plane[band])


OPPONENTS = ((1, 2), (0, 2), (0, 1))


def own_choice_blocks(entries, p):
    """Player p's payoffs indexed [own choice, q's choice, r's choice],
    q < r p's opponents; choice 0 cooperates."""
    return np.moveaxis(np.asarray(entries).reshape(2, 2, 2, 3)[..., p], p, 0)


def exact_own_slope(entries, p, xq, xr):
    """E[payoff_p | p cooperates] - E[payoff_p | p defects] against
    independent opponents cooperating with probabilities xq and xr, in
    Fraction from the table rows."""
    own = own_choice_blocks([[Fraction(v) for v in row] for row in entries], p)
    wq, wr = (Fraction(xq), 1 - Fraction(xq)), (Fraction(xr), 1 - Fraction(xr))
    return sum(
        wq[a] * wr[b] * (own[0, a, b] - own[1, a, b]) for a in (0, 1) for b in (0, 1)
    )


def test_slopes_and_gains_replay_exactly_on_dyadic_lattices():
    # At resolution n = m + 1 with m a power of two every grid value is
    # i / m, and on small-integer tables no float step rounds. So m^2
    # times each own slope is the integer plane W D_p W^T, where W holds
    # the opponents' (cooperate, defect) weights (i, m - i) and D_p is
    # p's payoff when cooperating minus when defecting, and m^3 times
    # each endpoint gain is an integer too: every float must equal it.
    rng = np.random.default_rng(20261019)
    tables = [pd3(), coop_game()] + [
        PayoffTable(rng.integers(-3, 4, size=(8, 3)).astype(float)) for _ in range(12)
    ]
    for n in (3, 5, 9):
        m, i = n - 1, np.arange(n)
        grid = np.linspace(0.0, 1.0, n)
        assert np.array_equal(m * grid, i)
        weights = np.stack([i, m - i], axis=-1)
        index = np.stack(np.meshgrid(i, i, i, indexing="ij"), axis=-1).reshape(-1, 3)
        points = grid[index]
        for table in tables:
            coeffs = table._polynomial
            slope = _slopes(coeffs, points)
            certs = equilibrium._endpoint_audit(coeffs, points, DEFAULT_NE_TOL)
            slack = np.array([c.player_slack for c in certs])
            best = np.zeros(len(points), dtype=np.int64)
            for p, (q, r) in enumerate(OPPONENTS):
                own = own_choice_blocks(table.entries.astype(np.int64), p)
                plane = weights @ (own[0] - own[1]) @ weights.T
                got = _slope_plane(coeffs, p, grid[:, None], grid[None, :])
                assert np.array_equal(m**2 * got, plane)
                g = plane[index[:, q], index[:, r]]
                assert np.array_equal(m**2 * slope[:, p], g)
                x, k = points[:, p], index[:, p]
                to0, to1 = -k * g, (m - k) * g
                assert np.array_equal(m**3 * (-x * slope[:, p]), to0)
                assert np.array_equal(m**3 * ((1.0 - x) * slope[:, p]), to1)
                assert np.array_equal(m**3 * slack[:, p], -np.maximum(to0, to1))
                best = np.maximum(best, np.maximum(to0, to1))
                if p == 0:
                    a, b, c = map(Fraction, equilibrium._diagonal_slope(table))
                    for t in range(n):
                        assert a * t * t + b * t * m + c * m * m == int(plane[t, t])
            # Gains are multiples of 1/m^3, far above the tolerance.
            assert [cert.is_ne for cert in certs] == (best <= 0).tolist()


def test_slopes_and_gains_stay_within_rounding_of_exact():
    # On normal tables at uniform triples every float slope, plane value,
    # diagonal quadratic, endpoint gain and slack lies within
    # 2^-51 sum|entries| of its exact value on the same floats.
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        entries = rng.normal(size=(8, 3))
        x = rng.uniform(size=3)
        table = PayoffTable(entries)
        coeffs = table._polynomial
        slope = _slopes(coeffs, x)
        cert = verify_ne_factorizable(table, StrategyTriple(*x))
        bound = Fraction(2.0**-51 * np.abs(entries).sum())
        for p, (q, r) in enumerate(OPPONENTS):
            g = exact_own_slope(entries, p, x[q], x[r])
            xp = Fraction(x[p])
            pairs = [
                (slope[p], g),
                (_slope_plane(coeffs, p, x[q], x[r]), g),
                (-x[p] * slope[p], -xp * g),
                ((1.0 - x[p]) * slope[p], (1 - xp) * g),
                (cert.player_slack[p], -max(-xp * g, (1 - xp) * g)),
            ]
            for got, exact in pairs:
                assert abs(Fraction(float(got)) - exact) <= bound
        a, b, c = map(Fraction, equilibrium._diagonal_slope(table))
        t = Fraction(x[0])
        assert abs(a * t * t + b * t + c - exact_own_slope(entries, 0, x[0], x[0])) <= bound


# The six cases of test_cli.NE_OUTPUT_SHA256 that audit lattice
# triples, and how many of their verdicts lie within the rounding band
# of their threshold: (lattice points, certificate verdicts).
PINNED_NE_AUDITS = [
    ("pd3", ("--mode", "grid", "--resolution", "11"), (0, 0)),
    ("pd3", ("--mode", "grid", "--resolution", "61"), (0, 0)),
    ("coop", ("--mode", "grid", "--resolution", "11"), (0, 0)),
    ("coop", ("--mode", "grid", "--resolution", "61"), (0, 0)),
    ("pd3", ("--mode", "verify", "--triple", "0,0,0"), (0, 0)),
    ("pd3", ("--mode", "verify", "--triple", "1,1,1"), (0, 0)),
]


def exact_lattice_gains(entries, axis):
    """d^3 times each player's larger endpoint gain at every point of
    the lattice axis^3, an (n, n, n, 3) array of Python integers, and
    d^3, where d is the largest denominator of the axis floats: on an
    integer table every value is exact."""
    fractions = [Fraction(v) for v in axis]
    d = max(f.denominator for f in fractions)
    a = np.array([int(f * d) for f in fractions], dtype=object)
    w = np.stack([a, d - a], axis=-1)
    best = []
    for p, (q, r) in enumerate(OPPONENTS):
        own = own_choice_blocks(entries.astype(np.int64).astype(object), p)
        plane = w @ (own[0] - own[1]) @ w.T
        cube = np.maximum(np.multiply.outer(-a, plane), np.multiply.outer(d - a, plane))
        best.append(cube.transpose(np.argsort((p, q, r))))
    return np.stack(best, axis=-1), d**3


@pytest.mark.parametrize("kind, argv, in_band", PINNED_NE_AUDITS)
def test_pinned_ne_verdicts_replay_exactly(tmp_path, capsys, kind, argv, in_band):
    # Each verdict of the pinned output, recomputed in Fraction from the
    # table entries and the printed float triples: the slacks lie within
    # the rounding bound of their exact values, and each verdict whose
    # exact value lies farther than that bound from its threshold has
    # the exact sign: is_ne, each neutral bit, the worst move of a
    # failing triple and, on a grid, the set of lattice points listed.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"kind": kind}))
    code = cli_main(["ne", "--game", str(game), *argv])
    out = json.loads(capsys.readouterr().out)
    certs = out.get("equilibria", [out])
    assert code == (0 if all(c["is_ne"] for c in certs) else 1)
    table = {"pd3": pd3, "coop": coop_game}[kind]()
    assert np.array_equal(table.entries, np.round(table.entries))
    tol = Fraction(DEFAULT_NE_TOL)
    band = Fraction(2.0**-51 * np.abs(table.entries).sum())
    lattice_near = near = 0
    if "resolution" in out:
        axis = np.linspace(0.0, 1.0, out["resolution"])
        best, den = exact_lattice_gains(table.entries, axis)
        scale = max(tol.denominator, band.denominator)
        excess = best.max(axis=-1) * scale - int(tol * scale) * den
        close = np.abs(excess) <= int(band * scale) * den
        lattice_near = int(close.sum())
        listed = {tuple(c["triple"]) for c in certs}
        hits = {tuple(axis[i].tolist()) for i in np.argwhere((excess <= 0) & ~close)}
        assert hits <= listed <= hits | {tuple(axis[i].tolist()) for i in np.argwhere(close)}
    for cert in certs:
        x = [Fraction(v) for v in cert["triple"]]
        slopes = [exact_own_slope(table.entries, p, x[q], x[r])
                  for p, (q, r) in enumerate(OPPONENTS)]
        gains = [(-xp * g, (1 - xp) * g) for xp, g in zip(x, slopes)]
        slack = [-max(pair) for pair in gains]
        for got, exact in zip(cert["player_slack"], slack):
            assert abs(Fraction(got) - exact) <= band
        if abs(min(slack) + tol) <= band:
            near += 1
            continue
        assert cert["is_ne"] == (min(slack) >= -tol)
        flat = [g for pair in gains for g in pair]
        if not cert["is_ne"]:
            worst = flat.index(max(flat))
            if any(0 < flat[worst] - g <= 2 * band for g in flat):
                near += 1
                continue
            assert cert["note"] == (
                f"not an equilibrium: player {PLAYERS[worst // 2]} gains "
                f"{float(flat[worst]):g} by moving to {worst % 2:g}"
            )
            continue
        bits = 0
        for k, gain in enumerate(flat):
            if x[k // 2] == k % 2:
                continue
            if abs(gain + tol) <= band:
                near += 1
            elif gain >= -tol:
                bits |= 4 >> (k // 2)
        assert cert["note"] == equilibrium._EQUILIBRIUM_NOTES[bits]
    assert (lattice_near, near) == in_band


def test_verify_matches_outcome_form_oracle(rng):
    for _ in range(200):
        table = PayoffTable(rng.integers(-2, 3, size=(8, 3)).astype(float))
        triple = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()], size=3)
        tol = float(rng.choice([1e-9, 0.5, 3.0]))
        cert = verify_ne_factorizable(table, StrategyTriple(*triple), tol)
        slacks, is_ne, notes = endpoint_certificates(table.entries, [triple], tol)
        assert (cert.is_ne, cert.note) == (is_ne[0], notes[0])
        assert cert.player_slack == pytest.approx(slacks[0], abs=1e-14)


@pytest.mark.parametrize("entry", ["grid_ne_search", "verify_ne_factorizable"])
def test_tol_outside_the_finite_non_negative_range_is_refused_before_any_work(monkeypatch, entry):
    # The own move gains 0 (a signed zero), so below 0 or at NaN even the
    # strict all-defect equilibrium of pd3 would fail, "gaining 0 by
    # moving to 0", and at +inf every point would pass.
    def all_defect_passes(tol):
        if entry == "grid_ne_search":
            found = grid_ne_search(pd3(), 11, tol)
            return [c.triple.as_tuple() for c in found] == [(0.0, 0.0, 0.0)]
        return verify_ne_factorizable(pd3(), StrategyTriple(0.0, 0.0, 0.0), tol).is_ne

    monkeypatch.setattr(equilibrium, "_lattice_screen", None)
    monkeypatch.setattr(equilibrium, "_endpoint_audit", None)
    for tol in (math.nan, -5e-324, -1e-9, -math.inf, math.inf):
        with pytest.raises(RangeError, match="^tol must be a finite non-negative number$") as info:
            all_defect_passes(tol)
        assert info.value.field == "tol"
    monkeypatch.undo()
    # A cleared player's kept endpoint slice holds at every accepted tol.
    for tol in (0.0, -0.0, 5e-324, 1e-9):
        assert all_defect_passes(tol), tol


def test_exact_oracle_finds_an_equilibrium_where_the_lattice_misses():
    # A pin of a known defect: on 101 of these 500 tables the lattice at
    # resolution 61 finds nothing, though every finite game has an
    # equilibrium. The closed-form oracle certifies at least one point
    # on each, and at most 2 totally mixed ones, the bound for generic
    # 2x2x2 games (McKelvey and McLennan, J. Econ. Theory 72, 1997).
    assert exact_ne_points(pd3()) == [(0.0, 0.0, 0.0)]
    assert exact_ne_points(coop_game()) == [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]
    rng = np.random.default_rng(7)
    lattice_empty = 0
    for _ in range(500):
        table = PayoffTable(rng.normal(size=(8, 3)))
        points = exact_ne_points(table)
        assert points
        assert sum(0.0 < min(x) and max(x) < 1.0 for x in points) <= 2
        lattice_empty += not grid_ne_search(table, 61)
    assert lattice_empty == 101


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


def test_asymmetric_table_message_names_no_path():
    # The CLI puts the `game` path in front of this text.
    table = PayoffTable(np.random.default_rng(3).normal(size=(8, 3)))
    message = "^interior solve needs a player-exchange symmetric payoff table$"
    with pytest.raises(ShapeError, match=message):
        product_state_interior_solve(table)


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


def test_zero_sum_and_coalition_inputs_are_checked():
    with pytest.raises(ShapeError, match=r"^matrix must be 2x2, got \(2, 3\)$"):
        zero_sum_2x2_value([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ShapeError, match="^matrix contains non-finite entries$"):
        zero_sum_2x2_value([[1.0, math.inf], [0.0, 1.0]])
    with pytest.raises(ShapeError, match=r"^odd_player must be one of \('A', 'B', 'C'\), got 'D'"):
        coalition_reduction(coop_game(), "D")


@pytest.mark.parametrize(
    "matrix, value, row, col",
    [
        ([[1.0, 3.0], [1.0, 2.0]], 1.0, (1.0, 0.0), (1.0, 0.0)),  # equal row minima
        ([[2.0, 2.0], [0.0, 1.0]], 2.0, (1.0, 0.0), (1.0, 0.0)),  # equal column maxima
        ([[0.0, 1.0], [2.0, 2.0]], 2.0, (0.0, 1.0), (1.0, 0.0)),  # both at the later row
        ([[0.0, -0.0], [-1.0, -1.0]], -0.0, (1.0, 0.0), (1.0, 0.0)),  # zeros of both signs
        ([[-0.0, 0.0], [-1.0, -1.0]], 0.0, (1.0, 0.0), (1.0, 0.0)),
    ],
)
def test_zero_sum_saddle_ties_take_the_first_index(matrix, value, row, col):
    got = zero_sum_2x2_value(matrix)
    assert got == reference_zero_sum_2x2_value(matrix) == (value, row, col)
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, value)


def zero_sum_tables(rng):
    """Seeded zero-sum tables: small integers, full of ties, dominated
    rows and matrices that do not reduce to 2 rows, and normal draws.
    The derived column, minus the others' sum, moves among players.
    The negated odd-man-out game pools zeros of one sign."""
    yield coop_game()
    yield PayoffTable(-coop_game().entries)
    for _ in range(150):
        for free in (rng.integers(-2, 3, size=(8, 2)).astype(float), rng.normal(size=(8, 2))):
            entries = np.column_stack([free, -free.sum(axis=1)])
            yield PayoffTable(entries[:, rng.permutation(3)])


def test_coalition_reduction_matches_reference(rng):
    solved = raised = 0
    for table in zero_sum_tables(rng):
        for odd in PLAYERS:
            full = reference_coalition_matrix(table.entries, odd)
            value = zero_sum_4x2_value(full)
            try:
                want = reference_coalition_reduction(table.entries, odd)
            except ShapeError as err:
                with pytest.raises(ShapeError) as info:
                    coalition_reduction(table, odd)
                assert str(info.value) == str(err)
                # Every 4x2 game has a value, the reduction's refusal aside.
                assert math.isfinite(value), full
                raised += 1
                continue
            got = coalition_reduction(table, odd)
            assert (got.odd_player, got.members) == (odd, want["members"])
            for name in ("full_matrix", "reduced"):
                signs = np.signbit(getattr(got, name)), np.signbit(want[name])
                assert np.array_equal(getattr(got, name), want[name]), (name, table.entries)
                assert np.array_equal(*signs), (name, table.entries)
            for name in ("kept_rows", "value", "member_mix", "odd_mix"):
                assert getattr(got, name) == want[name], (name, table.entries)
            assert math.copysign(1.0, got.value) == math.copysign(1.0, want["value"])
            scale = max(1.0, float(np.abs(full).max()))
            assert abs(got.value - value) <= 1e-12 * scale, (value, table.entries)
            # The odd player's mix holds every row of the whole game to the
            # value, and the members' mix of the core guarantees it.
            q = got.odd_mix[0]
            held = max(q * a + (1.0 - q) * b for a, b in full.tolist())
            assert held <= value + 1e-12 * scale, (value, table.entries)
            guaranteed = np.asarray(got.member_mix) @ got.reduced
            assert guaranteed.min() >= value - 1e-12 * scale, (value, table.entries)
            solved += 1
    # The 490 pins a known defect: each of those pairs has the finite
    # value the oracle finds, yet coalition_reduction raises on it. A
    # reduction that solves every 4x2 game drives the count to 0.
    assert (solved, raised) == (416, 490)


def test_coalition_matrix_reads_the_outcomes_by_their_basis_bits(rng):
    # Row 2 s + t holds the members' choices (s, t) in player order,
    # column o the odd player's; each entry pools the members' payoffs
    # at the outcome whose basis bits are those choices.
    checked = 0
    for table in zero_sum_tables(rng):
        entries = table.entries.tolist()
        for odd in PLAYERS:
            try:
                got = coalition_reduction(table, odd).full_matrix
            except ShapeError:
                continue
            first, second = (p for p in PLAYERS if p != odd)
            i, j = PLAYERS.index(first), PLAYERS.index(second)
            outcome = {
                (basis_bit(k, first), basis_bit(k, second), basis_bit(k, odd)): k
                for k in range(8)
            }
            want = [
                [entries[outcome[s, t, o]][i] + entries[outcome[s, t, o]][j] for o in (0, 1)]
                for s in (0, 1)
                for t in (0, 1)
            ]
            assert repr(got.tolist()) == repr(want), (odd, entries)
            checked += 1
    assert checked >= 400


def test_elimination_removes_the_first_dominated_row_first(rng):
    # Within the 1e-12 tolerance dominance is not transitive: B beats A
    # and C beats B, but C does not beat A. Removing A first, then B,
    # leaves C and D; removing B first would keep A too.
    rows = [[0.0, 0.0], [-0.8e-12, 1.0], [-1.6e-12, 2.0], [5.0, -5.0]]
    assert equilibrium._eliminate_weakly_dominated_rows(rows) == [2, 3]
    for _ in range(2000):
        mat = rng.integers(-1, 2, size=(4, 2)) + 0.6e-12 * rng.integers(-3, 4, size=(4, 2))
        want = reference_eliminate_weakly_dominated_rows(mat)
        assert equilibrium._eliminate_weakly_dominated_rows(mat.tolist()) == want, mat


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


def test_coalition_matrices_are_read_only():
    for odd in PLAYERS:
        red = coalition_reduction(coop_game(), odd)
        with pytest.raises(ValueError, match="read-only"):
            red.full_matrix[0, 0] = 5.0
        assert np.array_equal(red.reduced, red.full_matrix[list(red.kept_rows)])
    rows = [[0, 2], [-1, -1], [-1, -1], [2, 0]]
    public = CoalitionReduction("A", rows, (0, 3), 1.0, (0.5, 0.5), (0.5, 0.5))
    assert public.full_matrix.dtype == np.float64 and not public.full_matrix.flags.writeable
    assert public.reduced.tolist() == [[0.0, 2.0], [2.0, 0.0]]


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


def test_coop_best_response_failures_are_package_errors(rng):
    # The 300 normal tables of the derivative test (same seed): every
    # table the solver cannot solve raises a RangeError, which callers
    # catching FinegamesError or ValueError both see.
    messages = {
        "first player's stationarity has no root in [0, 1]",
        "second player's stationarity has no solution",
        "second player's stationary point lies outside [0, 1]",
    }
    failed = 0
    for _ in range(300):
        table = PayoffTable(rng.normal(size=(8, 3)))
        try:
            coop_best_response_solve(table)
        except Exception as exc:
            assert isinstance(exc, RangeError) and str(exc) in messages, repr(exc)
            failed += 1
    assert failed >= 150


def _outcome(solve, table):
    try:
        return solve(table)
    except ValueError as exc:
        return str(exc)


def test_coop_best_response_matches_by_name_reference(rng):
    # The 300 normal tables of the derivative test (same seed), then
    # small-integer tables, whose ties reach the flat and no-solution
    # branches, and tables with signed zeros.
    tables = [PayoffTable(rng.normal(size=(8, 3))) for _ in range(300)]
    tables += [PayoffTable(rng.integers(-2, 3, size=(8, 3))) for _ in range(300)]
    tables += [coop_game(), PayoffTable(np.zeros((8, 3))), PayoffTable(-np.zeros((8, 3)))]
    kinds = set()
    for table in tables:
        got = _outcome(coop_best_response_solve, table)
        want = _outcome(reference_coop_best_response_solve, table)
        assert got == want
        if isinstance(got, tuple):
            assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        kinds.add(got if isinstance(got, str) else "solved")
    assert len(kinds) == 4


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


def test_parity_product_gradient_is_the_literal_tables_gradient():
    # The parity product-state game is the factorizable game of the
    # table LITERAL.T @ entries.
    rng = np.random.default_rng(20261023)
    worst = 0.0
    for _ in range(500):
        table = PayoffTable(rng.normal(size=(8, 3)))
        s = StrategyTriple(*rng.uniform(0.0, 1.0, 3))
        literal = PayoffTable(LITERAL.T @ table.entries)
        gap = parity_product_gradient(table, s) - factorizable_gradient(literal, s)
        worst = max(worst, float(np.abs(gap).max()))
    assert worst <= 1e-13, worst
