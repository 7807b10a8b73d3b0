"""Nash-equilibrium verification and search for factorizable strategies.

Payoffs of independent mixed strategies are multilinear, so each
player's payoff is affine in their own cooperation probability. Best
unilateral deviations therefore sit at the endpoints 0 or 1, and
equilibrium checks reduce to exact endpoint comparisons: no numeric
optimizer is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .games import (
    PayoffTable,
    StrategyTriple,
    coop_game,
    marginal_form_coefficients,
    payoff_factorizable,
)
from .qstates import PLAYERS

DEFAULT_NE_TOL = 1e-9
SYMMETRY_TOL = 1e-12
ROOT_ZERO_TOL = 1e-13
# Largest lattice resolution: one payoff cube of 290^3 float64 is 195 MB.
MAX_RESOLUTION = 290


@dataclass(frozen=True)
class NeCertificate:
    """Endpoint-deviation audit of one strategy triple.

    player_slack holds, per player, own payoff minus the best payoff
    reachable by unilaterally moving to an endpoint; slacks are never
    positive and the triple is an equilibrium when none falls below
    the tolerance used by the verifier.
    """

    triple: StrategyTriple
    player_slack: tuple[float, float, float]
    is_ne: bool
    note: str

    def __post_init__(self):
        slack = tuple(float(s) for s in self.player_slack)
        if len(slack) != 3 or not all(np.isfinite(slack)):
            raise ShapeError("player_slack must be three finite reals")
        object.__setattr__(self, "player_slack", slack)


def factorizable_gradient(table: PayoffTable, s: StrategyTriple) -> np.ndarray:
    """Exact own-probability payoff derivatives (A, B, C).

    Multilinearity makes the derivative the difference of the two
    own-endpoint payoffs with opponents held fixed.
    """
    own = s.as_tuple()
    grads = []
    for p in range(3):
        hi = list(own)
        lo = list(own)
        hi[p] = 1.0
        lo[p] = 0.0
        grads.append(
            payoff_factorizable(table, StrategyTriple(*hi))[p]
            - payoff_factorizable(table, StrategyTriple(*lo))[p]
        )
    return np.array(grads)


def verify_ne_factorizable(
    table: PayoffTable, s: StrategyTriple, tol: float = DEFAULT_NE_TOL
) -> NeCertificate:
    """Check a strategy triple for Nash equilibrium by endpoint audit."""
    base = payoff_factorizable(table, s)
    own = s.as_tuple()
    slacks = []
    flat_players = []
    worst = (0.0, None, None)  # (gain, player, endpoint)
    for p, player in enumerate(PLAYERS):
        endpoint_pay = {}
        for e in (0.0, 1.0):
            moved = list(own)
            moved[p] = e
            endpoint_pay[e] = float(
                payoff_factorizable(table, StrategyTriple(*moved))[p]
            )
        best = max(endpoint_pay.values())
        slacks.append(float(base[p]) - best)
        for e, pay in endpoint_pay.items():
            gain = pay - float(base[p])
            if gain > worst[0]:
                worst = (gain, player, e)
            if abs(e - own[p]) > tol and gain >= -tol:
                if player not in flat_players:
                    flat_players.append(player)
    is_ne = min(slacks) >= -tol
    if not is_ne:
        gain, player, endpoint = worst
        note = f"not an equilibrium: player {player} gains {gain:g} by moving to {endpoint:g}"
    elif flat_players:
        note = "weak equilibrium: payoff-neutral deviations for " + ", ".join(
            flat_players
        )
    else:
        note = "strict equilibrium: every unilateral deviation loses"
    return NeCertificate(s, tuple(slacks), is_ne, note)


def grid_ne_search(
    table: PayoffTable, resolution: int = 11, tol: float = DEFAULT_NE_TOL
) -> list[NeCertificate]:
    """All equilibria on the uniform strategy lattice.

    Evaluates the three payoff cubes over a resolution^3 lattice by
    tensor contraction, screens with the endpoint-slack condition, and
    re-certifies every hit with verify_ne_factorizable. Results are
    sorted lexicographically by (lam, mu, nu).
    """
    if resolution < 2:
        raise ShapeError("resolution must be at least 2 to include both endpoints")
    if resolution > MAX_RESOLUTION:
        raise ShapeError(f"resolution must be at most {MAX_RESOLUTION}")
    grid = np.linspace(0.0, 1.0, resolution)
    w = np.stack([grid, 1.0 - grid], axis=1)
    mask = _endpoint_screen(table, w, 0, tol)
    for p in (1, 2):
        mask &= _endpoint_screen(table, w, p, tol)
    hits = zip(*np.unravel_index(np.flatnonzero(mask), mask.shape))
    return [
        verify_ne_factorizable(
            table, StrategyTriple(grid[i], grid[j], grid[k]), tol
        )
        for i, j, k in hits
    ]


def _endpoint_screen(
    table: PayoffTable, w: np.ndarray, p: int, tol: float
) -> np.ndarray:
    """Lattice points where player p gains at most tol at either endpoint.

    Builds player p's payoff cube and subtracts the best endpoint payoff
    in place, so that grid_ne_search holds one cube at a time. At
    resolution 61 a cube is 1.8 MB; three live cubes and their
    differences were about 11 MB of fresh memory per search, all of it
    page-faulted in again each time.
    """
    cube = np.einsum(
        "ia,jb,kc,abc->ijk", w, w, w, table.entries[:, p].reshape(2, 2, 2)
    )
    own = np.moveaxis(cube, p, 0)
    own -= np.maximum(own[0], own[-1])
    return cube >= -tol


def _smallest_root(a: float, b: float, c: float, lo: float, hi: float) -> float | None:
    """Smallest root of a*x**2 + b*x + c in [lo, hi], or None.

    Uses the cancellation-free form of the quadratic formula. A
    constant within ROOT_ZERO_TOL of zero counts as a root everywhere,
    and a vertex within ROOT_ZERO_TOL of zero counts as a double root.
    """
    if a == 0.0:
        if b == 0.0:
            return lo if abs(c) <= ROOT_ZERO_TOL else None
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            roots = [-b / (2.0 * a)] if -disc <= 4.0 * abs(a) * ROOT_ZERO_TOL else []
        else:
            q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
            roots = [q / a, c / q] if q != 0.0 else [0.0]
    inside = [r for r in roots if lo <= r <= hi]
    return min(inside) if inside else None


def _require_player_symmetric(table: PayoffTable):
    t = table.entries.reshape(2, 2, 2, 3)
    defects = (
        np.max(np.abs(t[..., 0] - np.transpose(t[..., 0], (0, 2, 1)))),
        np.max(np.abs(t[..., 1] - np.transpose(t[..., 0], (1, 0, 2)))),
        np.max(np.abs(t[..., 2] - np.transpose(t[..., 0], (2, 1, 0)))),
    )
    if float(max(defects)) > SYMMETRY_TOL:
        raise ShapeError(
            "interior solve needs a player-exchange symmetric payoff table"
        )


def product_state_interior_solve(table: PayoffTable) -> StrategyTriple | None:
    """Symmetric stationary point of the parity product-state game.

    Restricting a player-symmetric table to product states with equal
    single-cooperation probabilities t, the own-probability payoff
    derivative is a quadratic in (2t - 1). Returns the smallest root in
    [0, 1] as a symmetric triple, or None when the derivative vanishes
    identically (stationary everywhere, no isolated point).
    """
    _require_player_symmetric(table)
    coeffs = marginal_form_coefficients(table)[:, 0]
    c_xi, c_pab, c_pbc, c_pac, c_lam = coeffs[:5]
    del c_pbc  # the BC pair does not involve player A's own probability
    if max(abs(c_xi), abs(c_pab + c_pac), abs(c_lam)) <= 1e-12:
        return None
    u = _smallest_root(c_xi, c_pab + c_pac, c_lam, -1.0, 1.0)
    if u is None:
        return None
    r = (u + 1.0) / 2.0
    return StrategyTriple(r, r, r)


def parity_product_gradient(table: PayoffTable, s: StrategyTriple) -> np.ndarray:
    """Own-probability payoff derivatives in the parity product-state game.

    For independent states with single probabilities (lam, mu, nu), the
    parity pair and triple values are bilinear/trilinear in the signed
    singles, so each player's payoff is again affine in their own
    probability; the slope follows from the marginal-form coefficients.
    """
    c = marginal_form_coefficients(table)
    u = 2.0 * s.lam - 1.0
    v = 2.0 * s.mu - 1.0
    w = 2.0 * s.nu - 1.0
    c_xi, c_pab, c_pbc, c_pac = c[0], c[1], c[2], c[3]
    c_lam, c_mu, c_nu = c[4], c[5], c[6]
    grad_a = c_xi[0] * v * w + c_pab[0] * v + c_pac[0] * w + c_lam[0]
    grad_b = c_xi[1] * u * w + c_pab[1] * u + c_pbc[1] * w + c_mu[1]
    grad_c = c_xi[2] * u * v + c_pbc[2] * v + c_pac[2] * u + c_nu[2]
    return np.array([grad_a, grad_b, grad_c])


def zero_sum_2x2_value(
    matrix,
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """Value and optimal mixes of a 2x2 zero-sum game (row maximizes).

    Flat games return the uniform mix, saddle points return pure
    strategies (first index on ties), and everything else uses the
    interior closed form.
    """
    m = np.array(matrix, dtype=np.float64)
    if m.shape != (2, 2):
        raise ShapeError(f"matrix must be 2x2, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    a, b = float(m[0, 0]), float(m[0, 1])
    c, d = float(m[1, 0]), float(m[1, 1])
    if a == b == c == d:
        return a, (0.5, 0.5), (0.5, 0.5)
    row_mins = m.min(axis=1)
    col_maxs = m.max(axis=0)
    maximin = float(row_mins.max())
    minimax = float(col_maxs.min())
    if abs(maximin - minimax) <= 1e-12:
        r = int(np.argmax(row_mins))
        k = int(np.argmin(col_maxs))
        row_mix = (1.0, 0.0) if r == 0 else (0.0, 1.0)
        col_mix = (1.0, 0.0) if k == 0 else (0.0, 1.0)
        return maximin, row_mix, col_mix
    denom = a - b - c + d
    value = (a * d - b * c) / denom
    p = (d - c) / denom
    q = (d - b) / denom
    return float(value), (float(p), float(1.0 - p)), (float(q), float(1.0 - q))


@dataclass(frozen=True)
class CoalitionValue:
    """Guaranteed value of one coalition in a zero-sum-row game."""

    members: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class CoalitionReduction:
    """Work product of reducing a pair-vs-one game to its 2x2 core."""

    odd_player: str
    members: tuple[str, str]
    full_matrix: np.ndarray
    kept_rows: tuple[int, int]
    reduced: np.ndarray
    value: float
    member_mix: tuple[float, float]
    odd_mix: tuple[float, float]


def _eliminate_weakly_dominated_rows(mat: np.ndarray) -> list[int]:
    keep = list(range(mat.shape[0]))
    changed = True
    while changed:
        changed = False
        for r in list(keep):
            for r2 in keep:
                if r2 == r:
                    continue
                if np.all(mat[r2] >= mat[r] - 1e-12) and np.any(
                    mat[r2] > mat[r] + 1e-12
                ):
                    keep.remove(r)
                    changed = True
                    break
            if changed:
                break
    return keep


def coalition_reduction(table: PayoffTable, odd_player: str) -> CoalitionReduction:
    """Solve two players pooled against the third as a zero-sum game.

    Builds the 4x2 matrix of pooled payoffs over the coalition's joint
    pure strategies (rows) against the odd player's (columns),
    eliminates weakly dominated coalition rows, and solves the 2x2
    core in closed form.
    """
    if odd_player not in PLAYERS:
        raise ShapeError(f"odd_player must be one of {PLAYERS}, got {odd_player!r}")
    members = tuple(p for p in PLAYERS if p != odd_player)
    rows = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            row = []
            for o in (0, 1):
                bits = {members[0]: s1, members[1]: s2, odd_player: o}
                idx = bits["A"] * 4 + bits["B"] * 2 + bits["C"]
                pay = table.entries[idx]
                row.append(
                    float(pay[PLAYERS.index(members[0])])
                    + float(pay[PLAYERS.index(members[1])])
                )
            rows.append(row)
    full = np.array(rows)
    kept = _eliminate_weakly_dominated_rows(full)
    if len(kept) != 2:
        raise ShapeError(
            f"coalition matrix reduced to {len(kept)} rows, expected 2"
        )
    reduced = full[kept]
    value, member_mix, odd_mix = zero_sum_2x2_value(reduced)
    return CoalitionReduction(
        odd_player=odd_player,
        members=members,  # type: ignore[arg-type]
        full_matrix=full,
        kept_rows=(kept[0], kept[1]),
        reduced=reduced,
        value=value,
        member_mix=member_mix,
        odd_mix=odd_mix,
    )


def coalition_analysis(table: PayoffTable) -> list[CoalitionValue]:
    """Characteristic values of all singleton and pair coalitions.

    Requires zero-sum rows so that a coalition's worth is well defined
    as the value of the pooled game against the remaining player;
    complementary coalitions then carry opposite values by
    construction. Order: singletons A, B, C, then pairs AB, BC, AC.
    """
    sums = np.abs(table.entries.sum(axis=1))
    if float(sums.max()) > 1e-12:
        raise ShapeError("coalition analysis needs zero-sum payoff rows")
    reductions = {odd: coalition_reduction(table, odd) for odd in PLAYERS}
    values = [
        CoalitionValue((player,), -reductions[player].value) for player in PLAYERS
    ]
    for odd, pair in (("C", ("A", "B")), ("A", ("B", "C")), ("B", ("A", "C"))):
        values.append(CoalitionValue(pair, reductions[odd].value))
    return values


def coop_best_response_solve(
    table: PayoffTable | None = None,
) -> tuple[float, float]:
    """Mutual best-response point of the odd-man-out game.

    First finds the common opponent probability c* that makes the first
    player's own-probability derivative vanish, then the first-player
    probability l* at which the second player is stationary against
    (l*, c*, c*). Both derivatives are polynomials in the marginal-form
    coefficients: a quadratic in c for the first player, and, along
    the diagonal mu = nu, an affine function of l for the second.
    """
    if table is None:
        table = coop_game()
    coeffs = marginal_form_coefficients(table)
    c_xi, c_pab, _, c_pac, c_lam = (float(v) for v in coeffs[:5, 0])
    c_star = _smallest_root(c_xi, c_pab + c_pac, c_lam, 0.0, 1.0)
    if c_star is None:
        raise ValueError("first player's stationarity has no root in [0, 1]")

    b_xi, b_pab, b_pbc, b_pac, _, b_mu, b_nu = (float(v) for v in coeffs[:7, 1])
    g0 = 2.0 * b_pbc * c_star + b_mu + b_nu
    g1 = g0 + 2.0 * b_xi * c_star + b_pab + b_pac
    if abs(g0 - g1) < 1e-15:
        if abs(g0) < 1e-12:
            return 0.5, float(c_star)
        raise ValueError("second player's stationarity has no solution")
    l_star = g0 / (g0 - g1)
    if l_star < -1e-9 or l_star > 1.0 + 1e-9:
        raise ValueError("second player's stationary point lies outside [0, 1]")
    return float(min(max(l_star, 0.0), 1.0)), float(c_star)
