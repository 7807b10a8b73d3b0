"""Independent cross-check oracles for the test suite.

Each re-derives a library result by a route the library does not take:
parity marginals and default dilemma payoffs as closed forms over the
basis probabilities |c_i|^2, joint existence by a direct scan over the
triple value instead of the interval arithmetic, and factorizable
payoffs, equilibrium certificates and the lattice screen from the
outcome form (product weights against the payoff table) instead of the
payoff polynomial. The exact Bell slacks are sums of outcome weights
in rational arithmetic instead of float sums of marginals, and the
rows of Fine's theorem are the elimination of xi from MOBIUS's
inclusion-exclusion rows instead of hand-written bounds, and the
literal parity read is an integer matrix built from the bit rules
instead of MOBIUS applied to the parity incidence rows. The
reference screen is the lattice screen as first written, every slice
tested on the whole plane, the reference audit is the endpoint audit
as first batched, one loop building each row's gains and certificate,
the reference coalition reduction is the
pooled matrix, its row elimination and the 2x2 solve as first
written, the 4x2 zero-sum value is the minimum over the odd player's
mix of the rows' upper envelope instead of row elimination and a 2x2
solve, the exact equilibrium points are a support enumeration in
closed form over the table's entries instead of a lattice screen of
the payoff polynomial, the reference best response reads the
odd-man-out game's coefficients by marginal name, the reference sum is
marginal_values' trace sum as first written, the reference weight
scan is ghz-bell's scan as one (grid, 8) batch of diagonals instead of
the slacks' two affine ends, and the reference renderer
at the end is the JSON and markdown rendering as first written, one
isinstance chain per node.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from finegames import (
    PLAYERS,
    MarginalConvention,
    MarginalSet,
    PayoffTable,
    PureState,
    ShapeError,
    StrategyTriple,
    bell_slack_values,
    marginal_form_coefficients,
    marginal_values,
    verify_ne_factorizable,
)
from finegames.equilibrium import _EQUILIBRIUM_NOTES, NeCertificate, _smallest_root
from finegames.errors import DEFAULT_NE_TOL, holds
from finegames.games import _Q, _R, _VIEW, _bilinear
from finegames.measurement import MOBIUS
from finegames.qstates import _trusted

ORACLE_TOL = 1e-9


def pure_state_marginals(state: PureState) -> MarginalSet:
    """Parity marginals of a pure state from its basis probabilities.

    Closed form over q_i = |c_i|^2; must agree with the POVM traces of
    the corresponding projector to within floating-point noise.
    """
    q = state.probabilities()
    lam = q[0] + q[1] + q[2] + q[3]
    mu = q[0] + q[1] + q[4] + q[5]
    nu = q[0] + q[2] + q[4] + q[6]
    p_ab = q[0] + q[1] + q[6] + q[7]
    p_bc = q[0] + q[3] + q[4] + q[7]
    p_ac = q[0] + q[2] + q[5] + q[7]
    xi = q[0] + q[3] + q[5] + q[6]
    return MarginalSet(
        float(lam),
        float(mu),
        float(nu),
        float(p_ab),
        float(p_bc),
        float(p_ac),
        float(xi),
        MarginalConvention.PARITY,
    )


def pd_payoffs_from_pure_state(state: PureState) -> np.ndarray:
    """Default-parameter dilemma payoffs of a pure state, closed form.

    A fixed integer combination of the basis probabilities, valid for
    the default payoff levels only; must agree with the marginal form
    evaluated on the state's parity marginals.
    """
    q = state.probabilities()
    inner = np.array(
        [
            [3.0, 1.0, 1.0, 0.0, 4.0, 2.0, 2.0, -1.0],
            [3.0, 1.0, 4.0, 2.0, 1.0, 0.0, 2.0, -1.0],
            [3.0, 4.0, 1.0, 2.0, 1.0, 2.0, 0.0, -1.0],
        ]
    )
    return 2.0 * (inner @ q) + 1.0


def joint_exists_oracle(m: MarginalSet, grid_n: int = 1000) -> bool:
    """Brute-force feasibility check independent of the inequalities.

    Scans grid_n evenly spaced triple values between 0 and the smallest
    pair probability and reports whether any triple value keeps all
    eight implied terms non-negative (within 1e-9). The worst term is a
    concave piecewise-linear function of the scanned value, so when the
    plain scan fails a ternary search inside the best grid cell decides
    feasibility windows narrower than one grid step as well. The search
    never consults the analytic interval arithmetic it cross-checks.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be at least 1000")
    top = min(m.p_ab, m.p_bc, m.p_ac)
    lam, mu, nu = m.lam, m.mu, m.nu
    p_ab, p_bc, p_ac = m.p_ab, m.p_bc, m.p_ac

    def worst_term(xis: np.ndarray) -> np.ndarray:
        terms = np.stack(
            [
                xis,
                p_ab - xis,
                p_ac - xis,
                lam - p_ab - p_ac + xis,
                p_bc - xis,
                mu - p_ab - p_bc + xis,
                nu - p_ac - p_bc + xis,
                1.0 - lam - mu - nu + p_ab + p_ac + p_bc - xis,
            ]
        )
        return np.min(terms, axis=0)

    xis = np.linspace(0.0, top, grid_n)
    scores = worst_term(xis)
    if float(np.max(scores)) >= -ORACLE_TOL:
        return True
    best = int(np.argmax(scores))
    lo = xis[max(best - 1, 0)]
    hi = xis[min(best + 1, grid_n - 1)]
    while hi - lo > 1e-14:
        third = (hi - lo) / 3.0
        left, right = lo + third, hi - third
        if worst_term(np.array([left]))[0] < worst_term(np.array([right]))[0]:
            lo = left
        else:
            hi = right
    return bool(worst_term(np.array([0.5 * (lo + hi)]))[0] >= -ORACLE_TOL)


def exact_bell_slacks(m: MarginalSet) -> tuple[Fraction, ...]:
    """The four Bell slacks of a set's values, in bell_slacks' order, as
    exact rationals (every float is one).

    Each slack is the sum of the inclusion-exclusion weights of two
    complementary outcomes, in which xi cancels: (+++) and (---), then
    (+--) and (-++), (+-+) and (-+-), (++-) and (--+).
    """
    lam, mu, nu, p_ab, p_bc, p_ac, xi = map(Fraction, m.values())
    w = (
        xi,
        p_ab - xi,
        p_ac - xi,
        lam - p_ab - p_ac + xi,
        p_bc - xi,
        mu - p_ab - p_bc + xi,
        nu - p_ac - p_bc + xi,
        1 - lam - mu - nu + p_ab + p_ac + p_bc - xi,
    )
    return (w[0] + w[7], w[3] + w[4], w[2] + w[5], w[1] + w[6])


def xi_elimination() -> tuple[tuple[int, ...], tuple[int, ...], dict]:
    """Fine's theorem as the Fourier-Motzkin elimination of xi.

    Each MOBIUS row is one outcome weight, linear in (1, lam, mu, nu,
    p_ab, p_bc, p_ac, xi) with a xi coefficient of +1 or -1. Row i with
    +xi reads xi >= L_i, row j with -xi reads xi <= U_j, so some xi
    makes every weight non-negative exactly when each U_j - L_i, the
    sum of rows i and j, is. Returns the +xi rows, the -xi rows and
    each sum as an integer vector over (1, lam, ..., p_ac), keyed (i, j).
    """
    rows = MOBIUS.astype(int)
    assert (rows == MOBIUS).all()
    plus = tuple(np.flatnonzero(rows[:, 7] == 1).tolist())
    minus = tuple(np.flatnonzero(rows[:, 7] == -1).tolist())
    assert sorted(plus + minus) == list(range(8))
    sums = {(i, j): tuple((rows[i, :7] + rows[j, :7]).tolist()) for i in plus for j in minus}
    return plus, minus, sums


def _literal_read() -> np.ndarray:
    """The literal parity read as one integer 8x8 map, from the bit rules.

    Entry (j, i) is outcome j's inclusion-exclusion weight when the
    parity values of basis outcome i are read as conjunction values.
    With K the players that cooperate (bit 0) at j and D those that
    defect, it is the sum over the subsets T of D of (-1)^|T| times the
    parity value of K + T at i: 1 when the bits of K + T at i have an
    even sum, else 0.
    """
    bits = [[(i >> (2 - p)) & 1 for p in range(3)] for i in range(8)]
    literal = np.zeros((8, 8))
    for j in range(8):
        coop = [p for p in range(3) if not bits[j][p]]
        defect = [p for p in range(3) if bits[j][p]]
        for size in range(len(defect) + 1):
            for t in combinations(defect, size):
                for i in range(8):
                    even = sum(bits[i][p] for p in (*coop, *t)) % 2 == 0
                    literal[j, i] += (-1) ** size * even
    return literal


# Outcome weights d -> the quasi-weights that the parity values of d
# imply when read as conjunction values, as every quantum scenario
# scores them.
LITERAL = _literal_read()


def strategy_weights(s: StrategyTriple) -> np.ndarray:
    """Product distribution over the eight outcomes of independent mixes."""
    lam, mu, nu = s.as_tuple()
    return np.multiply.outer(
        np.multiply.outer([lam, 1.0 - lam], [mu, 1.0 - mu]), [nu, 1.0 - nu]
    ).ravel()


def outcome_payoffs(entries: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Payoffs (A, B, C) of an (n, 3) batch of independent mixes: the
    outer-product outcome weights of each row against the table."""
    f = np.stack([triples, 1.0 - triples], axis=-1)
    weights = np.einsum("na,nb,nc->nabc", f[:, 0], f[:, 1], f[:, 2]).reshape(-1, 8)
    return weights @ entries


def endpoint_certificates(entries: np.ndarray, triples, tol: float):
    """(slacks, is_ne, notes) of endpoint audits in the outcome form.

    Moves each player of each (n, 3) row to 0 and to 1 in turn. An
    endpoint is a deviation when it differs from the player's own
    probability, and it is payoff-neutral when it gains at least -tol.
    """
    triples = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    base = outcome_payoffs(entries, triples)
    gains = np.empty(triples.shape + (2,))
    for p in range(3):
        for e in (0, 1):
            moved = triples.copy()
            moved[:, p] = e
            gains[:, p, e] = outcome_payoffs(entries, moved)[:, p] - base[:, p]
    slacks = -gains.max(axis=-1)
    is_ne = slacks.min(axis=-1) >= -tol
    neutral = (triples[..., None] != (0.0, 1.0)) & (gains >= -tol)
    notes = []
    for row, ok, flat in zip(gains.tolist(), is_ne, neutral.any(axis=-1).tolist()):
        if not ok:
            p = max(range(3), key=lambda q: max(row[q]))
            e = row[p].index(max(row[p]))
            notes.append(
                f"not an equilibrium: player {PLAYERS[p]} gains {row[p][e]:g} "
                f"by moving to {e:g}"
            )
        elif any(flat):
            notes.append(
                "weak equilibrium: payoff-neutral deviations for "
                + ", ".join(player for player, f in zip(PLAYERS, flat) if f)
            )
        else:
            notes.append("strict equilibrium: every unilateral deviation loses")
    return slacks, is_ne.tolist(), notes


def lattice_screen(entries: np.ndarray, resolution: int, tol: float) -> list[tuple]:
    """Sorted lattice triples where no player gains more than tol.

    Contracts each player's payoff cube from the outcome weights of the
    three axes and subtracts the better own-endpoint payoff.
    """
    grid = np.linspace(0.0, 1.0, resolution)
    w = np.stack([grid, 1.0 - grid], axis=1)
    mask = np.ones((resolution,) * 3, dtype=bool)
    for p in range(3):
        cube = np.einsum("ia,jb,kc,abc->ijk", w, w, w, entries[:, p].reshape(2, 2, 2))
        own = np.moveaxis(cube, p, 0)
        own -= np.maximum(own[0], own[-1])
        mask &= cube >= -tol
    return [tuple(float(v) for v in grid[idx]) for idx in np.argwhere(mask)]


# Reference evaluator: games.py's _polynomial_values as it was when it
# computed payoffs and slopes together, kept verbatim. games._slopes and
# payoff_factorizable must equal its two halves bit for bit.


def _polynomial_values(coeffs: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Payoffs (A, B, C) and own-probability slopes at a (..., 3) batch.

    Each payoff is affine in its player's own probability: the slope is
    the exact partial derivative, and the payoff at an own endpoint e is
    payoff + (e - x_p) * slope. Every entry is computed elementwise, so
    its bits do not depend on the batch's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    xq, xr = x[..., _Q], x[..., _R]
    c = coeffs[_VIEW, (0, 1, 2)]
    slope = _bilinear(c[4:], xq, xr)
    return _bilinear(c[:4], xq, xr) + x * slope, slope


# Reference screen: equilibrium.py's _lattice_screen as it was before
# the slope band, kept verbatim (renamed). Every interior slice is
# tested on the whole plane of a full _polynomial_values evaluation;
# the library's cube must equal it bit for bit.


def reference_lattice_screen(coeffs: np.ndarray, grid: np.ndarray, tol: float) -> np.ndarray:
    """Boolean cube of lattice points where no player gains more than tol.

    Player p's slope does not depend on x_p, so one plane of slopes over
    the opponents' values serves every slice of p's axis. Each slice
    takes the gains as _endpoint_audit does, so the screen and the
    certificates agree on every point.
    """
    n = grid.size
    pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    mask = np.ones((n, n, n), dtype=bool)
    for p in range(3):
        g = _polynomial_values(coeffs, np.insert(pairs, p, 0.0, axis=-1))[1][..., p]
        slices = np.moveaxis(mask, p, 0)
        for i, x in enumerate(grid):
            slices[i] &= (-x * g <= tol) & ((1.0 - x) * g <= tol)
    return mask


# Reference audit: equilibrium.py's _endpoint_audit as it was when each
# row built its six gains and its certificate in one loop, kept verbatim
# (renamed). The library's certificates must equal its own bit for bit.


def reference_endpoint_audit(coeffs: np.ndarray, x: np.ndarray, tol: float) -> list[NeCertificate]:
    """Certificates of an (n, 3) batch of strategy triples.

    With own slope g, moving player p to 0 gains -x_p g and moving to 1
    gains (1 - x_p) g; the slack is minus the larger gain. The triple is
    an equilibrium when no move gains more than tol, and a move to an
    endpoint other than x_p is payoff-neutral when it loses at most tol.
    The triples lie in [0, 1] and every payoff coefficient is bounded by
    MAX_PAYOFF, so the slacks are finite: nothing is left to check.
    """
    slope = _polynomial_values(coeffs, x)[1]
    gains = np.stack([-x * slope, (1.0 - x) * slope], axis=-1)
    slack = 0.0 - gains.max(axis=-1)
    is_ne = holds(slack.min(axis=-1), tol)
    neutral = ((x[..., None] != (0.0, 1.0)) & holds(gains, tol)).any(axis=-1) @ (4, 2, 1)
    certs = []
    rows = zip(x.tolist(), slack.tolist(), gains.reshape(-1, 6).tolist(),
               is_ne.tolist(), neutral.tolist())
    for (lam, mu, nu), row_slack, row_gains, ok, bits in rows:
        if not ok:
            worst = row_gains.index(max(row_gains))  # first of A0, A1, B0, ...
            note = (
                f"not an equilibrium: player {PLAYERS[worst // 2]} gains "
                f"{row_gains[worst]:g} by moving to {worst % 2:g}"
            )
        else:
            note = _EQUILIBRIUM_NOTES[bits]
        triple = _trusted(StrategyTriple, lam=lam, mu=mu, nu=nu)
        certs.append(_trusted(
            NeCertificate, triple=triple, player_slack=tuple(row_slack), is_ne=ok, note=note
        ))
    return certs


# Reference coalition reduction: equilibrium.py's coalition_reduction
# (a triple loop over dicts of bits), its weakly dominated row
# elimination (a changed flag and a double break) and zero_sum_2x2_value
# (numpy reductions) as they were before they moved to the table's axes
# and plain floats, kept verbatim (renamed; the reduction returns its
# fields as a dict). The library must equal them with == and raise the
# same errors.


def reference_zero_sum_2x2_value(matrix):
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


# The player-symmetry defect as product_state_interior_solve took it
# before it read the table through an outcome-index table, kept verbatim
# (renamed, and returning the defect its check compared with ZERO_TOL).
def reference_symmetry_defect(entries: np.ndarray) -> float:
    t = entries.reshape(2, 2, 2, 3)
    defects = (
        np.max(np.abs(t[..., 0] - np.transpose(t[..., 0], (0, 2, 1)))),
        np.max(np.abs(t[..., 1] - np.transpose(t[..., 0], (1, 0, 2)))),
        np.max(np.abs(t[..., 2] - np.transpose(t[..., 0], (2, 1, 0)))),
    )
    return float(max(defects))


def reference_eliminate_weakly_dominated_rows(mat: np.ndarray) -> list[int]:
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


def reference_coalition_matrix(entries: np.ndarray, odd_player: str) -> np.ndarray:
    """The pooled 4x2 matrix of coalition_reduction's full_matrix."""
    members = tuple(p for p in PLAYERS if p != odd_player)
    rows = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            row = []
            for o in (0, 1):
                bits = {members[0]: s1, members[1]: s2, odd_player: o}
                idx = bits["A"] * 4 + bits["B"] * 2 + bits["C"]
                pay = entries[idx]
                row.append(
                    float(pay[PLAYERS.index(members[0])])
                    + float(pay[PLAYERS.index(members[1])])
                )
            rows.append(row)
    return np.array(rows)


def reference_coalition_reduction(entries: np.ndarray, odd_player: str) -> dict:
    """The fields of coalition_reduction(PayoffTable(entries), odd_player)."""
    members = tuple(p for p in PLAYERS if p != odd_player)
    full = reference_coalition_matrix(entries, odd_player)
    kept = reference_eliminate_weakly_dominated_rows(full)
    if len(kept) != 2:
        raise ShapeError(
            f"coalition matrix reduced to {len(kept)} rows, expected 2"
        )
    reduced = full[kept]
    value, member_mix, odd_mix = reference_zero_sum_2x2_value(reduced)
    return {
        "members": members,
        "full_matrix": full,
        "kept_rows": (kept[0], kept[1]),
        "reduced": reduced,
        "value": value,
        "member_mix": member_mix,
        "odd_mix": odd_mix,
    }


def zero_sum_4x2_value(matrix) -> float:
    """Value of a 4x2 zero-sum game, rows maximizing, from the column
    player's side: the minimum over its mix q (the weight of column 0)
    of the rows' upper envelope max_r q m[r, 0] + (1 - q) m[r, 1]. The
    envelope is convex and piecewise linear, so its minimum sits at
    q = 0, at q = 1 or where two rows cross inside [0, 1]. No row is
    eliminated and no 2x2 core is solved."""
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    if len(rows) != 4 or any(len(row) != 2 for row in rows):
        raise ShapeError(f"matrix must be 4x2, got {np.shape(matrix)}")
    mixes = [0.0, 1.0]
    for (a, b), (c, d) in combinations(rows, 2):
        slope = (a - b) - (c - d)
        if slope != 0.0 and 0.0 <= (d - b) / slope <= 1.0:
            mixes.append((d - b) / slope)
    return min(max(q * a + (1.0 - q) * b for a, b in rows) for q in mixes)


def exact_ne_points(table: PayoffTable) -> list[tuple[float, float, float]]:
    """The isolated equilibria of a table, by support enumeration in
    closed form over its entries.

    Player p's slope, cooperating minus defecting, is bilinear in its
    opponents' probabilities (x_q, x_r in player order): its differences
    at the four opponent outcomes expand to a + b x_q + c x_r + d x_q x_r.
    The candidates are the 8 pure points; each player held at 0 or 1 with
    the other two mixed, where each mixed slope is affine in the other
    mixed probability, so two linear equations; and all three mixed,
    where the slopes of A and B give x_B and x_A as ratios in x_C and
    the slope of C, times both denominators, is a quadratic in x_C. A
    vanishing divisor is a degenerate support and gives no point. Each
    candidate in [0, 1]^3 that verify_ne_factorizable certifies is kept,
    in sorted order.
    """
    opponents = [tuple(q for q in range(3) if q != p) for p in range(3)]
    entries = np.asarray(table.entries).reshape(2, 2, 2, 3)
    slope = []
    for p in range(3):
        own = np.moveaxis(entries[..., p], p, 0)  # (own bit, q bit, r bit)
        (d00, d01), (d10, d11) = (own[0] - own[1]).tolist()
        slope.append((d11, d01 - d11, d10 - d11, d00 - d01 - d10 + d11))

    def affine(p, held, h):
        """p's slope with player `held` at h: (constant, coefficient of
        the other opponent's probability)."""
        a, b, c, d = slope[p]
        return (a + b * h, c + d * h) if opponents[p][0] == held else (a + c * h, b + d * h)

    candidates = [list(x) for x in product((0.0, 1.0), repeat=3)]
    for held in range(3):
        m1, m2 = opponents[held]
        for h in (0.0, 1.0):
            (k1, l1), (k2, l2) = affine(m1, held, h), affine(m2, held, h)
            if l1 != 0.0 and l2 != 0.0:
                x = [h] * 3
                x[m2], x[m1] = -k1 / l1, -k2 / l2
                candidates.append(x)
    (aa, ba, ca, da), (ab, bb, cb, db), (ac, bc, cc, dc) = slope
    # x_A = -(ab + cb z) / (bb + db z) and x_B = -(aa + ca z) / (ba + da z),
    # each as (numerator, denominator) coefficients, lowest power first.
    num_a, den_a = np.array([ab, cb]), np.array([bb, db])
    num_b, den_b = np.array([aa, ca]), np.array([ba, da])
    quadratic = (
        ac * np.convolve(den_a, den_b) - bc * np.convolve(num_a, den_b)
        - cc * np.convolve(num_b, den_a) + dc * np.convolve(num_a, num_b)
    )
    for root in np.roots(quadratic[::-1]):
        z = float(root.real)
        if abs(root.imag) < 1e-9 and bb + db * z != 0.0 and ba + da * z != 0.0:
            candidates.append([-(ab + cb * z) / (bb + db * z), -(aa + ca * z) / (ba + da * z), z])
    return sorted({
        tuple(x) for x in candidates
        if min(x) >= 0.0 and max(x) <= 1.0
        and verify_ne_factorizable(table, StrategyTriple(*x), DEFAULT_NE_TOL).is_ne
    })


# Reference best response: coop_best_response_solve as it was when it
# read both players' coefficients by marginal name, kept verbatim
# (renamed). The library must equal it with == and raise the same errors.


def reference_coop_best_response_solve(table: PayoffTable) -> tuple[float, float]:
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


# Reference sum: the trace sum of measurement.marginal_values as it was
# before it summed in place, kept verbatim. Its values must equal the
# library's bit for bit, at a higher allocation peak.


def reference_marginal_sums(d: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """Unclamped POVM traces ((d0+d4)+(d1+d5)) + ((d2+d6)+(d3+d7)) of
    each diagonal of a (..., 8) batch against the (7, 8) incidence rows."""
    s = d[..., None, :] * incidence
    t = s[..., :4] + s[..., 4:]
    values = (t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])
    return values


# Reference weight scan: scenarios._ghz_bell's scan as it was before it
# read the segment at its two ends, kept verbatim. Its satisfied points
# must equal the scenario's on every grid.


def reference_weight_scan(grid: int) -> list[float]:
    """Weights x on the grid whose state x|000><000| + (1 - x)|111><111|
    satisfies the four parity Bell inequalities, from one (grid, 8)
    batch of diagonals (x, 0, ..., 0, 1 - x)."""
    xs = np.linspace(0.0, 1.0, grid)
    diagonals = np.zeros((grid, 8))
    diagonals[:, 0] = xs
    diagonals[:, 7] = 1.0 - xs
    values = marginal_values(diagonals, MarginalConvention.PARITY)
    satisfied = holds(bell_slack_values(values).min(axis=-1))
    return xs[satisfied].tolist()


# Reference renderer: serialize.py's format_float, render_json,
# render_markdown and their helpers as they were before the renderers
# moved to exact-type dispatch, kept verbatim (render_json and
# render_markdown renamed). The library must match it byte for byte
# and raise the same errors.


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering used everywhere on the wire."""
    if not np.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    return format(float(x), ".17g")


def reference_render_json(value) -> str:
    """Deterministic pretty JSON with a trailing newline."""
    return _render(value, 0) + "\n"


def _render(value, level: int) -> str:
    pad = "  " * level
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_render(v, level + 1) for v in value]
        if not items:
            return "[]"
        body = ",\n".join("  " * (level + 1) + item for item in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, val in value.items():
            parts.append(
                "  " * (level + 1) + json.dumps(str(key)) + ": " + _render(val, level + 1)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def reference_render_markdown(title: str, payload: dict) -> str:
    """Generic markdown rendering of a report dictionary."""
    lines = [f"# {title}", ""]
    _md_block(lines, payload, 2)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def _md_scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if value is None:
        return "none"
    return str(value)


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, np.bool_, int, np.integer, float, np.floating, str)
    )


def _md_inline(value) -> str:
    if _is_scalar(value):
        return _md_scalar(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_md_inline(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_md_inline(v)}" for k, v in value.items()) + "}"
    return str(value)


def _md_block(lines: list[str], payload, level: int):
    if isinstance(payload, dict):
        scalars = {k: v for k, v in payload.items() if _is_scalar(v)}
        for key, value in scalars.items():
            lines.append(f"- {key}: {_md_scalar(value)}")
        if scalars:
            lines.append("")
        for key, value in payload.items():
            if _is_scalar(value):
                continue
            lines.append(f"{'#' * level} {key}")
            lines.append("")
            _md_block(lines, value, min(level + 1, 6))
    elif isinstance(payload, (list, tuple)):
        if payload and all(isinstance(v, dict) for v in payload):
            keys: list[str] = []
            for item in payload:
                for k in item:
                    if k not in keys:
                        keys.append(k)
            lines.append("| " + " | ".join(keys) + " |")
            lines.append("|" + "---|" * len(keys))
            for item in payload:
                cells = [_md_inline(item.get(k)) for k in keys]
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
        else:
            lines.append(_md_inline(list(payload)))
            lines.append("")
    else:
        lines.append(_md_scalar(payload))
        lines.append("")
