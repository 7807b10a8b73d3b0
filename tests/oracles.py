"""Independent cross-check oracles for the test suite.

Each re-derives a library result by a route the library does not take:
parity marginals and default dilemma payoffs as closed forms over the
basis probabilities |c_i|^2, and joint existence by a direct scan over
the triple value instead of the interval arithmetic.
"""

import numpy as np

from finegames import MarginalConvention, MarginalSet, PureState

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
