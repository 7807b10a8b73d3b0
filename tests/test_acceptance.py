"""Acceptance gate: nine numbered criteria, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Expected values are frozen literals; where a quantity is derived rather
than copied, an independent in-test oracle recomputes it from scratch.
"""

import numpy as np
import pytest

from finegames import (
    JointDistribution,
    MarginalConvention,
    MarginalSet,
    NoJointError,
    PayoffTable,
    PureState,
    StrategyTriple,
    XiRule,
    basis_bit,
    bell_slacks,
    coalition_analysis,
    coalition_reduction,
    coop_best_response_solve,
    coop_game,
    density_from_pure,
    extract_marginals,
    ghz,
    grid_ne_search,
    marginals_from_joint,
    pair_povm,
    parity_product_gradient,
    payoff_factorizable,
    payoff_marginal_form,
    payoff_marginal_values,
    payoff_outcome_form,
    pd3,
    pd_state,
    product_state_interior_solve,
    reconstruct_joint,
    run_scenario,
    single_povm,
    strategy_marginals,
    triple_povm,
    verify_ne_factorizable,
    weights_from_marginals,
    xi_interval,
)
from oracles import (
    joint_exists_oracle,
    pd_payoffs_from_pure_state,
    pure_state_marginals,
    strategy_weights,
)
from finegames.equilibrium import factorizable_gradient

# frozen expected values (formulas in trailing comments)
STATIONARY_POINT = 0.29289321881345254  # (2 - sqrt(2)) / 2
PAIR_AT_STATIONARY = 0.58578643762690495  # 2 - sqrt(2)
TRIPLE_AT_STATIONARY = 0.46446609406726225  # (8 - 5 sqrt(2)) / 2
PAYOFF_AT_STATIONARY = 2.34314575050761940  # 8 - 4 sqrt(2)

ALGEBRA_TOL = 1e-12
GATE_TOL = 1e-9
GRADIENT_TOL = 1e-6
GRADIENT_STEP = 1e-5


def run_criterion(num: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num} {name}: FAIL")
        raise
    print(f"criterion {num} {name}: PASS")


def random_state(rng) -> PureState:
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    return PureState(amps / np.linalg.norm(amps))


def marginals_by_counting(state: PureState, convention) -> tuple:
    """Oracle: marginal values as plain sums over basis probabilities."""
    q = state.probabilities()
    bits = [(basis_bit(i, "A"), basis_bit(i, "B"), basis_bit(i, "C")) for i in range(8)]
    singles = [
        sum(q[i] for i in range(8) if bits[i][p] == 0) for p in range(3)
    ]
    if convention is MarginalConvention.PARITY:
        pair = lambda x, y: sum(q[i] for i in range(8) if bits[i][x] == bits[i][y])
        triple = sum(q[i] for i in range(8) if sum(bits[i]) % 2 == 0)
    else:
        pair = lambda x, y: sum(
            q[i] for i in range(8) if bits[i][x] == 0 and bits[i][y] == 0
        )
        triple = q[0]
    return (*singles, pair(0, 1), pair(1, 2), pair(0, 2), triple)


def test_criterion_1_ghz_reproduction():
    def body():
        state = ghz(complex(2.0 ** -0.5), complex(2.0 ** -0.5))
        diagonal_oracle = density_from_pure(state).diagonal()

        report = run_scenario("pd-ghz")
        assert report.payoffs == pytest.approx([3.0] * 3, abs=GATE_TOL)
        assert report.bell.slack == pytest.approx(
            (2.5, -0.5, -0.5, -0.5), abs=ALGEBRA_TOL
        )
        assert not report.bell.satisfied

        conj = report.marginals["conjunction"]
        assert bell_slacks(conj).satisfied
        window = xi_interval(conj)
        assert window.lower == pytest.approx(0.5, abs=GATE_TOL)
        assert window.upper == pytest.approx(0.5, abs=GATE_TOL)
        rebuilt = reconstruct_joint(conj, XiRule.GIVEN)
        assert rebuilt.prob == pytest.approx(diagonal_oracle, abs=GATE_TOL)

        scan = run_scenario("ghz-bell").details["weight_scan"]
        assert scan["grid"] == 101
        assert scan["satisfied_points"] == [1.0]

    run_criterion(1, "shared-extreme-state reproduction", body)


def test_criterion_2_classical_dilemma_lattice():
    def body():
        found = grid_ne_search(pd3(), 11)
        assert [c.triple.as_tuple() for c in found] == [(0.0, 0.0, 0.0)]

        rejected = verify_ne_factorizable(pd3(), StrategyTriple(1.0, 1.0, 1.0))
        assert not rejected.is_ne
        assert min(rejected.player_slack) == pytest.approx(-2.0, abs=ALGEBRA_TOL)

        # oracle: plain-loop lattice search at resolution 5
        table = pd3().entries
        grid = np.linspace(0.0, 1.0, 5)
        oracle_hits = []
        for lam in grid:
            for mu in grid:
                for nu in grid:
                    ok = True
                    for player in range(3):
                        probs = [lam, mu, nu]
                        base = 0.0
                        for i in range(8):
                            w = 1.0
                            for p in range(3):
                                bit = (i >> (2 - p)) & 1
                                w *= (1.0 - probs[p]) if bit else probs[p]
                            base += w * table[i, player]
                        for endpoint in (0.0, 1.0):
                            moved = [lam, mu, nu]
                            moved[player] = endpoint
                            dev = 0.0
                            for i in range(8):
                                w = 1.0
                                for p in range(3):
                                    bit = (i >> (2 - p)) & 1
                                    w *= (1.0 - moved[p]) if bit else moved[p]
                                dev += w * table[i, player]
                            if dev > base + GATE_TOL:
                                ok = False
                    if ok:
                        oracle_hits.append((lam, mu, nu))
        library_hits = [c.triple.as_tuple() for c in grid_ne_search(pd3(), 5)]
        assert oracle_hits == library_hits == [(0.0, 0.0, 0.0)]

    run_criterion(2, "classical dilemma equilibrium", body)


def test_criterion_3_single_cooperator_family():
    def body():
        rng = np.random.default_rng(42)
        for _ in range(100):
            mags = rng.dirichlet(np.ones(3))
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            c4, c6, c7 = np.sqrt(mags) * phases
            state = pd_state(c4, c6, c7)
            m = extract_marginals(density_from_pure(state), MarginalConvention.PARITY)
            assert m.lam + m.mu + m.nu == pytest.approx(1.0, abs=ALGEBRA_TOL)
            expected = (
                4.0 * (m.mu + m.nu) + 1.0,
                4.0 * (m.lam + m.nu) + 1.0,
                4.0 * (m.lam + m.mu) + 1.0,
            )
            assert pd_payoffs_from_pure_state(state) == pytest.approx(
                expected, abs=ALGEBRA_TOL
            )
            assert payoff_marginal_form(pd3(), m) == pytest.approx(
                expected, abs=ALGEBRA_TOL
            )

    run_criterion(3, "single-cooperator family payoffs", body)


def test_criterion_4_interior_stationary_point():
    def body():
        solution = product_state_interior_solve(pd3())
        assert solution is not None
        t = solution.lam
        assert t == pytest.approx(STATIONARY_POINT, abs=ALGEBRA_TOL)

        report = run_scenario("pd-product")
        m = report.marginals["parity"]
        assert (m.lam, m.mu, m.nu) == pytest.approx(
            (STATIONARY_POINT,) * 3, abs=ALGEBRA_TOL
        )
        assert (m.p_ab, m.p_bc, m.p_ac) == pytest.approx(
            (PAIR_AT_STATIONARY,) * 3, abs=ALGEBRA_TOL
        )
        assert m.xi == pytest.approx(TRIPLE_AT_STATIONARY, abs=ALGEBRA_TOL)
        assert report.payoffs == pytest.approx(
            [PAYOFF_AT_STATIONARY] * 3, abs=ALGEBRA_TOL
        )

        # oracle: the same marginal set is produced by an explicit product
        # distribution, so the signed inversion must recover those weights
        inversion = weights_from_marginals(m)
        product_weights = strategy_weights(StrategyTriple(t, t, t))
        assert inversion.weights == pytest.approx(product_weights, abs=ALGEBRA_TOL)
        assert inversion.feasible
        assert float(np.min(product_weights)) > 0.0
        assert report.paper_deviation is not None
        assert "negative weight" in report.paper_deviation

    run_criterion(4, "interior stationary point and inversion", body)


def test_criterion_5_w_family_contradiction():
    def body():
        report = run_scenario("pd-w")
        matrix = np.array(report.details["reduced_coefficients"])
        const = np.array(report.details["reduced_constants"])
        expected = np.full((3, 3), 4.0)
        np.fill_diagonal(expected, -2.0)
        assert matrix == pytest.approx(expected, abs=ALGEBRA_TOL)
        assert const == pytest.approx(np.ones(3), abs=ALGEBRA_TOL)
        assert report.details["singles_sum"] == pytest.approx(2.0, abs=ALGEBRA_TOL)

        # oracle: evaluate the family payoffs directly at probe points
        for l, mu, n in ((0.2, 0.5, 0.9), (0.7, 0.1, 0.4)):
            direct = payoff_marginal_values(
                pd3(),
                l, mu, n,
                (l + mu - n) / 2.0, (mu + n - l) / 2.0, (l + n - mu) / 2.0,
                0.0,
            )
            predicted = matrix @ np.array([l, mu, n]) + const
            assert direct == pytest.approx(predicted, abs=ALGEBRA_TOL)

        # every own-coefficient pushes toward zero, but the family keeps
        # the three singles summing to two: no consistent solution
        assert np.all(np.diag(matrix) < 0.0)
        note = report.ne_findings[0]
        assert "inconsistent" in note

    run_criterion(5, "one-excitation family contradiction", body)


def test_criterion_6_coalition_game():
    def body():
        values = coalition_analysis(coop_game())
        assert [v.value for v in values] == pytest.approx(
            [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0], abs=ALGEBRA_TOL
        )
        reduction = coalition_reduction(coop_game(), "A")
        assert reduction.reduced.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert reduction.value == pytest.approx(1.0, abs=ALGEBRA_TOL)
        assert reduction.member_mix == pytest.approx((0.5, 0.5), abs=ALGEBRA_TOL)
        assert coop_best_response_solve() == (0.5, 0.5)

        rng = np.random.default_rng(99)
        table = coop_game()
        for _ in range(100):
            q1, u3, v3, q8 = rng.dirichlet(np.ones(4))
            u, v = u3 / 3.0, v3 / 3.0
            mags = np.sqrt(np.array([q1, v, v, u, v, u, u, q8]))
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            state = PureState(mags * phases)
            m = extract_marginals(density_from_pure(state), MarginalConvention.PARITY)
            payoffs = payoff_marginal_form(table, m)
            assert np.max(np.abs(payoffs)) < ALGEBRA_TOL

    run_criterion(6, "coalition values and balanced states", body)


def test_criterion_7_existence_equivalence():
    def body():
        rng = np.random.default_rng(2024)
        yes = no = 0
        for k in range(10000):
            if k % 2 == 0:
                weights = rng.dirichlet(np.ones(8))
                m = marginals_from_joint(
                    JointDistribution(weights), MarginalConvention.CONJUNCTION
                )
            else:
                lam, mu, nu = rng.uniform(0.0, 1.0, 3)
                p_ab = rng.uniform(max(0.0, lam + mu - 1.0), min(lam, mu))
                p_bc = rng.uniform(max(0.0, mu + nu - 1.0), min(mu, nu))
                p_ac = rng.uniform(max(0.0, lam + nu - 1.0), min(lam, nu))
                xi = rng.uniform(0.0, min(p_ab, p_bc, p_ac))
                m = MarginalSet(
                    lam, mu, nu, p_ab, p_bc, p_ac, xi,
                    MarginalConvention.CONJUNCTION,
                )
            by_slacks = bell_slacks(m).satisfied
            by_interval = not xi_interval(m).is_empty
            by_oracle = joint_exists_oracle(m, 10000)
            try:
                reconstruct_joint(m, XiRule.MIDPOINT)
                by_rebuild = True
            except NoJointError:
                by_rebuild = False
            assert by_slacks == by_interval == by_oracle == by_rebuild
            if by_slacks:
                yes += 1
            else:
                no += 1
        assert yes >= 5000  # every joint-derived set must land feasible
        assert no >= 500  # the free sampler must exercise the negative verdict

    run_criterion(7, "existence test equivalence", body)


def test_criterion_8_round_trip_and_payoff_forms():
    def body():
        rng = np.random.default_rng(7)
        for _ in range(10000):
            weights = rng.dirichlet(np.ones(8))
            joint = JointDistribution(weights)
            m = marginals_from_joint(joint, MarginalConvention.CONJUNCTION)
            rebuilt = reconstruct_joint(m, XiRule.GIVEN)
            assert np.max(np.abs(rebuilt.prob - weights)) < ALGEBRA_TOL
            again = marginals_from_joint(rebuilt, MarginalConvention.CONJUNCTION)
            assert np.max(np.abs(np.array(again.values()) - m.values())) < ALGEBRA_TOL

        tables = (pd3(), coop_game())
        for _ in range(1000):
            s = StrategyTriple(*rng.uniform(0.0, 1.0, 3))
            joint = JointDistribution(strategy_weights(s))
            m = strategy_marginals(s, MarginalConvention.CONJUNCTION)
            for table in tables:
                direct = payoff_factorizable(table, s)
                assert np.max(np.abs(direct - payoff_outcome_form(table, joint))) < ALGEBRA_TOL
                assert np.max(np.abs(direct - payoff_marginal_form(table, m))) < ALGEBRA_TOL

    run_criterion(8, "round trips and payoff-form equality", body)


def test_criterion_9_measurement_layer():
    def body():
        identity = np.eye(8)
        for player in "ABC":
            plus, minus = single_povm(player)
            assert np.max(np.abs(plus.matrix + minus.matrix - identity)) <= 1e-14
        for convention in (MarginalConvention.CONJUNCTION, MarginalConvention.PARITY):
            for pair in ("AB", "BC", "AC"):
                hit, miss = pair_povm(pair, convention)
                assert np.max(np.abs(hit.matrix + miss.matrix - identity)) <= 1e-14
            hit, miss = triple_povm(convention)
            assert np.max(np.abs(hit.matrix + miss.matrix - identity)) <= 1e-14

        rng = np.random.default_rng(11)
        for _ in range(1000):
            state = random_state(rng)
            rho = density_from_pure(state)
            for convention in (
                MarginalConvention.CONJUNCTION,
                MarginalConvention.PARITY,
            ):
                traced = extract_marginals(rho, convention)
                counted = marginals_by_counting(state, convention)
                assert traced.values() == pytest.approx(counted, abs=ALGEBRA_TOL)
            closed = pure_state_marginals(state)
            traced = extract_marginals(rho, MarginalConvention.PARITY)
            assert traced.values() == pytest.approx(closed.values(), abs=ALGEBRA_TOL)

        def parity_family_payoffs(table, lam, mu, nu):
            def agree(x, y):
                return x * y + (1.0 - x) * (1.0 - y)

            xi = (
                lam * mu * nu
                + lam * (1 - mu) * (1 - nu)
                + (1 - lam) * mu * (1 - nu)
                + (1 - lam) * (1 - mu) * nu
            )
            return payoff_marginal_values(
                table, lam, mu, nu, agree(lam, mu), agree(mu, nu), agree(lam, nu), xi
            )

        h = GRADIENT_STEP
        for _ in range(1000):
            entries = rng.normal(scale=3.0, size=(8, 3))
            table = PayoffTable(entries)
            point = rng.uniform(h, 1.0 - h, 3)
            s = StrategyTriple(*point)
            analytic = parity_product_gradient(table, s)
            endpoint_grad = factorizable_gradient(table, s)
            for axis in range(3):
                up = point.copy()
                down = point.copy()
                up[axis] += h
                down[axis] -= h
                numeric = (
                    parity_family_payoffs(table, *up)[axis]
                    - parity_family_payoffs(table, *down)[axis]
                ) / (2.0 * h)
                assert abs(analytic[axis] - numeric) < GRADIENT_TOL
                numeric_flat = (
                    payoff_factorizable(table, StrategyTriple(*up))[axis]
                    - payoff_factorizable(table, StrategyTriple(*down))[axis]
                ) / (2.0 * h)
                assert abs(endpoint_grad[axis] - numeric_flat) < GRADIENT_TOL

    run_criterion(9, "measurement and gradient checks", body)
