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
from functools import lru_cache

import numpy as np

from .errors import (
    DEFAULT_NE_TOL, FLAT_SLOPE_TOL, ROOT_ZERO_TOL, ZERO_TOL, RangeError, ShapeError, holds,
)
from .games import (
    PayoffTable,
    StrategyTriple,
    _PLAYER,
    _Q,
    _R,
    _REST,
    _SLOPE,
    _bilinear,
    _slope_plane,
    _slopes,
    coop_game,
)
from .qstates import PLAYERS, _freeze, _trusted

__all__ = [
    "CoalitionReduction", "CoalitionValue", "NeCertificate", "coalition_analysis",
    "coalition_reduction", "coop_best_response_solve", "factorizable_gradient",
    "grid_ne_search", "parity_product_gradient", "product_state_interior_solve",
    "verify_ne_factorizable", "zero_sum_2x2_value",
]

DEFAULT_RESOLUTION = 11
# Largest lattice resolution. It bounds the screen's boolean cube, which
# is resolution^3 bytes when every player's slope band has a point: a
# search at 290 then peaks at 62 MB ru_maxrss (30 MB of it the import)
# and takes about 23 ms on coop_game, and the screen about 0.2 s where
# a band of slopes beyond tol covers the plane (pd3 at tol 0.5). A flat
# player, whose slopes all lie within tol, evaluates no slope: an
# own-choice-blind table is flat at every player at DEFAULT_NE_TOL, and
# its screen at 290 takes about 2 ms. On pd3, whose slope corners all
# clear the bands, the screen evaluates no slope and writes a 2x2x2 cube
# of constants: a search takes 0.054 ms at any resolution, with no peak
# above the 30 MB of the import (2-vCPU VM, numpy 2.4).
MAX_RESOLUTION = 290
# Most screen hits a search certifies. Each hit becomes a certificate: an
# own-choice-blind table makes 226,981 at resolution 61, in 1.2-1.4 s
# and at 288 MB ru_maxrss, 35 MB of it the import; `ne` writes them as
# 75 MB of JSON in 3.6-4.0 s, 1.4 s of it rendering, at 469 MB
# ru_maxrss (2-vCPU VM under other load, numpy 2.4).
_MAX_LATTICE_HITS = 250_000
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


# An equilibrium's note, indexed by its payoff-neutral players as the
# bits A = 4, B = 2, C = 1.
_EQUILIBRIUM_NOTES = tuple(
    "weak equilibrium: payoff-neutral deviations for "
    + ", ".join(player for player, bit in zip(PLAYERS, (4, 2, 1)) if k & bit)
    if k else "strict equilibrium: every unilateral deviation loses"
    for k in range(8)
)


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
    """Exact own-probability payoff derivatives (A, B, C)."""
    return _slopes(table._polynomial, s.as_tuple())


def _endpoint_audit(coeffs: np.ndarray, x: np.ndarray, tol: float) -> list[NeCertificate]:
    """Certificates of an (n, 3) batch of strategy triples.

    With own slope g, moving player p to 0 gains -x_p g and moving to 1
    gains (1 - x_p) g; the slack is minus the larger gain. The triple is
    an equilibrium when no move gains more than tol, and a move to an
    endpoint other than x_p is payoff-neutral when it loses at most tol.
    The triples lie in [0, 1] and every payoff coefficient is bounded by
    MAX_PAYOFF, so the slacks are finite: nothing is left to check.
    """
    slope = _slopes(coeffs, x)
    to_0, to_1 = -x * slope, (1.0 - x) * slope
    slack = 0.0 - np.maximum(to_0, to_1)
    is_ne = holds(slack.min(axis=-1), tol)
    neutral = ((x != 0.0) & holds(to_0, tol)) | ((x != 1.0) & holds(to_1, tol))
    notes = [_EQUILIBRIUM_NOTES[bits] for bits in (neutral @ (4, 2, 1)).tolist()]
    # A failing row's note names the first of its largest gains A0, A1, B0, ...
    for i in np.flatnonzero(~is_ne).tolist():
        gains = [g for pair in zip(to_0[i].tolist(), to_1[i].tolist()) for g in pair]
        worst = gains.index(max(gains))
        notes[i] = (
            f"not an equilibrium: player {PLAYERS[worst // 2]} gains "
            f"{gains[worst]:g} by moving to {worst % 2:g}"
        )
    rows = zip(x.tolist(), map(tuple, slack.tolist()), is_ne.tolist(), notes)
    return [
        _trusted(NeCertificate, triple=_trusted(StrategyTriple, lam=lam, mu=mu, nu=nu),
                 player_slack=row_slack, is_ne=ok, note=note)
        for (lam, mu, nu), row_slack, ok, note in rows
    ]


def _require_tol(tol: float):
    """Refuse a tol that is not finite and non-negative: below 0 (or at
    NaN) even the own move's zero gain fails, and at +inf every gain passes."""
    if not 0.0 <= tol < math.inf:
        raise RangeError("tol must be a finite non-negative number", "tol")


def verify_ne_factorizable(
    table: PayoffTable, s: StrategyTriple, tol: float = DEFAULT_NE_TOL
) -> NeCertificate:
    """Check a strategy triple for Nash equilibrium by endpoint audit."""
    _require_tol(tol)
    return _endpoint_audit(table._polynomial, np.array([s.as_tuple()]), tol)[0]


def grid_ne_search(
    table: PayoffTable, resolution: int = DEFAULT_RESOLUTION, tol: float = DEFAULT_NE_TOL
) -> list[NeCertificate]:
    """All equilibria on the uniform strategy lattice.

    Screens the lattice with the endpoint-gain condition, on the axis
    values that can pass, and certifies every hit in one batched audit.
    Results are sorted lexicographically by (lam, mu, nu).
    """
    _require_tol(tol)
    if resolution < 2:
        raise ShapeError("resolution must be at least 2 to include both endpoints")
    if resolution > MAX_RESOLUTION:
        raise ShapeError(f"resolution must be at most {MAX_RESOLUTION}")
    grid = _lattice_grid(resolution)
    coeffs = table._polynomial
    screen, axes = _lattice_screen(coeffs, grid, tol)
    count = int(np.count_nonzero(screen))
    if count > _MAX_LATTICE_HITS:
        raise ShapeError(
            f"lattice screen passes {count} points, more than the "
            f"{_MAX_LATTICE_HITS} a search certifies; lower the resolution"
        )
    # The hits in argwhere's C order, read at a fraction of its cost on
    # a sparse cube. Each axis ascends, so this order is lexicographic.
    index = np.unravel_index(np.flatnonzero(screen), screen.shape)
    points = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
    return _endpoint_audit(coeffs, points, tol)


@lru_cache(maxsize=MAX_RESOLUTION)
def _lattice_grid(resolution: int) -> np.ndarray:
    """The read-only uniform lattice of [0, 1] at resolution points."""
    return _freeze(np.linspace(0.0, 1.0, resolution))


def _slice_passes(x: float, g: np.ndarray, tol: float) -> np.ndarray:
    """Where a player at own value x with slopes g gains at most tol
    from either endpoint: the gains _endpoint_audit takes."""
    return (-x * g <= tol) & ((1.0 - x) * g <= tol)


def _lattice_screen(coeffs: np.ndarray, grid: np.ndarray, tol: float) -> tuple[np.ndarray, list]:
    """Boolean cube where no player gains more than tol, and its axes.

    Player p's slope g does not depend on x_p, so one plane of slopes
    over the opponents' values serves every slice of p's axis. An
    interior x lies at least 1/(n - 1) from both endpoints, so it can
    pass only inside the band |g| <= bound = 2 (n - 1) max(tol, tiny):
    the factor 2 covers rounding, and the floor keeps subnormal slopes,
    whose products can round to 0. A player with an empty band keeps
    only the axis values 0 and 1, so the cube is n^3 only when every
    band has a point.

    A band is first decided from its plane's four corners. The slope
    g = c0 + c1 x_q + c2 x_r + c3 x_q x_r is bilinear, so on [0, 1]^2
    it lies between its least and greatest corner. Let S = sum |c| and
    u = eps / 2; to first order in u, _bilinear rounds a lattice value
    at most 5 times, so it is within 5u S of the exact value at that
    point, plus 2^-1074 per underflowing product, and a float corner,
    whose products by 0 and 1 are exact, is within 3u S of the exact
    corner. Take limit = bound + 16 eps S + 8 tiny. If all four float
    corners exceed it, every lattice value exceeds
    limit - 8u S - 4 * 2^-1074, and that exceeds bound by at least
    21u S + 7 tiny after limit's own rounding, which is at most 3u limit
    with limit < (1 + 3u) S. The same holds below -limit.
    Such a player clears: its band is empty, and its endpoint slices
    are constants, so it evaluates no slope at all. Say every lattice
    g > bound. At x = 0 the move to 1 gains 1.0 * g = g > bound >= tol,
    so the 0-slice is all False. At x = 1 the move to 0 gains -g < 0
    and the own move gains 0.0 * g = +-0.0, so with tol non-negative
    the 1-slice holds everywhere. Below -bound the two slices swap.

    A player that does not clear is flat when S (1 + 16 eps) + 8 tiny
    <= tol. On [0, 1]^2 the exact slope has |g| <= S, and the float one
    is within 5u S + 4 * 2^-1074 of it, so every lattice |g| <= tol:
    the margin's 32u S and 8 tiny cover that and the rounding of S and
    of the test itself. With |x| <= 1 and |1 - x| <= 1, every endpoint
    and interior gain has |fl(x g)| <= |g| <= tol, so every slice of a
    flat player passes, and its band, as tol <= bound, covers the whole
    plane. Its axis stays whole and it writes nothing to the mask: it
    evaluates no slope either. Any other player's plane is built and
    its band read from it.

    The endpoint slices of a player with a plane take the whole of its
    slopes. Interior slices are cleared outside the band, then tested in
    one call per block of 2^16 // n^2 rows (at least one, to bound the
    temporaries) between the block's first and last band columns. From
    n = 257 on a block is one row, whose band is one run (g is affine
    along it), so the test covers exactly the band. Each point takes the
    gains as _endpoint_audit does, so the cube is the full lattice's
    screen read at the axes, and the full screen fails off them.
    """
    n = grid.size
    bound = 2.0 * (n - 1) * max(tol, _TINY)
    # A cleared player's side: 1 when its slopes all exceed bound, -1
    # when they all lie below -bound, and 0 when it is flat or has a plane.
    planes, bands, sides = [None] * 3, [None] * 3, [0] * 3
    for p, c in enumerate(coeffs[_SLOPE, _PLAYER].T.tolist()):
        corners = [_bilinear(c, xq, xr) for xq in (0.0, 1.0) for xr in (0.0, 1.0)]
        total = sum(map(abs, c))
        limit = bound + 16.0 * _EPS * total + 8.0 * _TINY
        if min(corners) > limit:
            sides[p] = 1
        elif max(corners) < -limit:
            sides[p] = -1
        elif total * (1.0 + 16.0 * _EPS) + 8.0 * _TINY > tol:
            planes[p] = _slope_plane(coeffs, p, grid[:, None], grid[None, :])
            bands[p] = np.abs(planes[p]) <= bound
    whole = [not side if band is None else band.any() for band, side in zip(bands, sides)]
    axes = [slice(None) if w else slice(None, None, n - 1) for w in whole]
    values = [grid[axis] for axis in axes]
    mask = np.ones([v.size for v in values], dtype=bool)
    inner, step = grid[1:-1, None, None], max(1, 2**16 // n**2)
    for p in range(3):
        q, r = _Q[p], _R[p]
        slices = mask.transpose(p, q, r)
        if sides[p]:
            # The slopes point at 1: the 0-slice fails and the 1-slice
            # holds. Mirrored when they point at 0.
            slices[0 if sides[p] > 0 else -1] = False
        if planes[p] is None:
            continue
        g = planes[p][axes[q], axes[r]]
        for i in (0, -1):
            slices[i] &= _slice_passes(grid[i], g, tol)
        if not whole[p]:
            continue
        band = bands[p][axes[q], axes[r]]
        slices[1:-1] &= band
        for row in range(0, band.shape[0], step):
            rows = slice(row, row + step)
            cols = np.flatnonzero(band[rows].any(axis=0))
            if cols.size:
                cols = slice(cols[0], cols[-1] + 1)
                slices[1:-1, rows, cols] &= _slice_passes(inner, g[rows, cols], tol)
    return mask, values


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
    if float(max(defects)) > ZERO_TOL:
        raise ShapeError(
            "interior solve needs a player-exchange symmetric payoff table"
        )


def _diagonal_slope(table: PayoffTable) -> tuple[float, float, float]:
    """Player A's own slope with both opponents at one value t, as the
    coefficients (C7, C[pq] + C[pr], C[p]) of a quadratic in t."""
    own, pq, pr, c7 = table._polynomial[_SLOPE[:, 0], 0].tolist()
    return c7, pq + pr, own


def product_state_interior_solve(table: PayoffTable) -> StrategyTriple | None:
    """Symmetric stationary point of the parity product-state game.

    Restricting a player-symmetric table to product states with equal
    single-cooperation probabilities t, the own-probability payoff
    derivative is a quadratic in (2t - 1). Returns the smallest root in
    [0, 1] as a symmetric triple, or None when the derivative vanishes
    identically (stationary everywhere, no isolated point).
    """
    _require_player_symmetric(table)
    quadratic = _diagonal_slope(table)
    if max(abs(c) for c in quadratic) <= ZERO_TOL:
        return None
    u = _smallest_root(*quadratic, -1.0, 1.0)
    if u is None:
        return None
    r = (u + 1.0) / 2.0
    return StrategyTriple(r, r, r)


def parity_product_gradient(table: PayoffTable, s: StrategyTriple) -> np.ndarray:
    """Own-probability payoff derivatives in the parity product-state game.

    For independent states with signed singles u = 2x - 1, each parity
    pair or triple value is (1 + product of its signed singles) / 2, so
    the marginal-form payoff is (P(u) + P(1, 1, 1)) / 2 for the payoff
    polynomial P. A player's slope in their own probability is then P's
    own partial derivative at the signed singles.
    """
    signed = 2.0 * np.array(s.as_tuple()) - 1.0
    return _slopes(table._polynomial, signed)


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
    (a, b), (c, d) = m.tolist()
    return _zero_sum_2x2(a, b, c, d)


def _zero_sum_2x2(
    a: float, b: float, c: float, d: float
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """zero_sum_2x2_value of the finite [[a, b], [c, d]].

    Of two equal values numpy's min and max return the later one, and
    Python's the first, so each pair is passed later first: the bits
    stay those of numpy's reductions, and a tie of 0.0 and -0.0 keeps
    the sign numpy gave it.
    """
    if a == b == c == d:
        return a, (0.5, 0.5), (0.5, 0.5)
    row_mins, col_maxs = (min(b, a), min(d, c)), (max(c, a), max(d, b))
    maximin, minimax = max(row_mins[1], row_mins[0]), min(col_maxs[1], col_maxs[0])
    if abs(maximin - minimax) <= ZERO_TOL:
        # The first index of the maximum row minimum and minimum column maximum.
        row_mix = (1.0, 0.0) if row_mins[0] >= row_mins[1] else (0.0, 1.0)
        col_mix = (1.0, 0.0) if col_maxs[0] <= col_maxs[1] else (0.0, 1.0)
        return maximin, row_mix, col_mix
    denom = a - b - c + d
    value = (a * d - b * c) / denom
    p = (d - c) / denom
    q = (d - b) / denom
    return value, (p, 1.0 - p), (q, 1.0 - q)


@dataclass(frozen=True)
class CoalitionValue:
    """Guaranteed value of one coalition in a zero-sum-row game."""

    members: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class CoalitionReduction:
    """Work product of reducing a pair-vs-one game to its 2x2 core."""

    odd_player: str
    full_matrix: np.ndarray
    kept_rows: tuple[int, int]
    value: float
    member_mix: tuple[float, float]
    odd_mix: tuple[float, float]

    def __post_init__(self):
        full = np.array(self.full_matrix, dtype=np.float64)
        if full.shape != (4, 2):
            raise ShapeError(f"full_matrix must be 4x2, got {full.shape}")
        if not np.isfinite(full).all():
            raise ShapeError("full_matrix contains non-finite entries")
        object.__setattr__(self, "full_matrix", _freeze(full))

    @property
    def members(self) -> tuple[str, ...]:
        """The two pooled players, in player order."""
        return tuple(p for p in PLAYERS if p != self.odd_player)

    @property
    def reduced(self) -> np.ndarray:
        """The 2x2 core: the kept rows of the full matrix."""
        return self.full_matrix[list(self.kept_rows)]


def _eliminate_weakly_dominated_rows(rows: list[list[float]]) -> list[int]:
    """Rows left after removing, one at a time, the first kept row that
    another kept row weakly dominates (no row beats itself by ZERO_TOL)."""
    keep = list(range(len(rows)))
    while True:
        for r in keep:
            a0, a1 = rows[r]
            if any(
                b0 >= a0 - ZERO_TOL
                and b1 >= a1 - ZERO_TOL
                and (b0 > a0 + ZERO_TOL or b1 > a1 + ZERO_TOL)
                for b0, b1 in (rows[s] for s in keep)
            ):
                keep.remove(r)
                break
        else:
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
    odd = PLAYERS.index(odd_player)
    i, j = (p for p in range(3) if p != odd)
    # a + b keeps -0.0, sum() does not.
    pooled = [row[i] + row[j] for row in table.entries.tolist()]
    # The members' choices in C order: the outcomes with the odd player's bit clear.
    bit = 4 >> odd
    full = [[pooled[k], pooled[k | bit]] for k in range(8) if not k & bit]
    kept = _eliminate_weakly_dominated_rows(full)
    if len(kept) != 2:
        raise ShapeError(
            f"coalition matrix reduced to {len(kept)} rows, expected 2"
        )
    (a, b), (c, d) = full[kept[0]], full[kept[1]]
    value, member_mix, odd_mix = _zero_sum_2x2(a, b, c, d)
    # Entries within MAX_PAYOFF give finite pooled sums.
    return _trusted(
        CoalitionReduction,
        odd_player=odd_player,
        full_matrix=_freeze(np.array(full)),
        kept_rows=(kept[0], kept[1]),
        value=value,
        member_mix=member_mix,
        odd_mix=odd_mix,
    )


def _coalition_analysis(
    table: PayoffTable,
) -> tuple[list[CoalitionValue], dict[str, CoalitionReduction]]:
    """coalition_analysis' values and the three reductions behind them,
    keyed by odd player."""
    sums = np.abs(table.entries.sum(axis=1))
    if float(sums.max()) > ZERO_TOL:
        raise ShapeError("coalition analysis needs zero-sum payoff rows")
    reductions = {odd: coalition_reduction(table, odd) for odd in PLAYERS}
    singles = [CoalitionValue((p,), -reductions[p].value) for p in PLAYERS]
    pairs = [CoalitionValue(reductions[odd].members, reductions[odd].value) for odd in "CAB"]
    return singles + pairs, reductions


def coalition_analysis(table: PayoffTable) -> list[CoalitionValue]:
    """Characteristic values of all singleton and pair coalitions.

    Requires zero-sum rows so that a coalition's worth is well defined
    as the value of the pooled game against the remaining player;
    complementary coalitions then carry opposite values by
    construction. Order: singletons A, B, C, then pairs AB, BC, AC.
    """
    return _coalition_analysis(table)[0]


def coop_best_response_solve(
    table: PayoffTable | None = None,
) -> tuple[float, float]:
    """Mutual best-response point of the odd-man-out game.

    First finds the common opponent probability c* that makes the first
    player's own-probability derivative vanish, then the first-player
    probability l* at which the second player is stationary against
    (l*, c*, c*). Both derivatives read the payoff polynomial's rows: a
    quadratic in c for the first player, and, along the diagonal
    mu = nu, an affine function of l for the second.
    """
    if table is None:
        table = coop_game()
    c_star = _smallest_root(*_diagonal_slope(table), 0.0, 1.0)
    if c_star is None:
        raise RangeError("first player's stationarity has no root in [0, 1]")

    coeffs = table._polynomial
    _, _, r, qr = coeffs[_REST[:, 1], 1].tolist()
    own, pq, pr, c7 = coeffs[_SLOPE[:, 1], 1].tolist()
    g0 = 2.0 * pr * c_star + own + r
    g1 = g0 + 2.0 * c7 * c_star + pq + qr
    if abs(g0 - g1) < FLAT_SLOPE_TOL:
        if abs(g0) < ZERO_TOL:
            return 0.5, float(c_star)
        raise RangeError("second player's stationarity has no solution")
    l_star = g0 / (g0 - g1)
    if l_star < -DEFAULT_NE_TOL or l_star > 1.0 + DEFAULT_NE_TOL:
        raise RangeError("second player's stationary point lies outside [0, 1]")
    return float(min(max(l_star, 0.0), 1.0)), float(c_star)
