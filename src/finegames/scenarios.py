"""Named end-to-end case studies, reproducible from the CLI.

Every numeric value in a report re-derives from the library modules at
run time. Each scenario is one spec: its params in echo order, each
with a default and a parser, and a body that holds only the analysis.
Reference rows (expected vs computed) attach only when the parsed inputs
equal the parsed defaults, and paper_deviation is then set
exactly when a computed value contradicts a reference claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .equilibrium import (
    DEFAULT_NE_TOL,
    DEFAULT_RESOLUTION,
    MAX_RESOLUTION,
    NeCertificate,
    _coalition_analysis,
    coop_best_response_solve,
    grid_ne_search,
    parity_product_gradient,
    product_state_interior_solve,
    verify_ne_factorizable,
)
from .errors import NORMALIZATION_TOL, REFERENCE_TOL, ParamError, UnknownScenarioError, holds
from .fine import (
    BellReport,
    XiRule,
    _joint_or_terms,
    bell_slack_values,
    bell_slacks,
    xi_interval,
)
from .games import (
    DEFAULT_PD_PARAMS,
    PdParams,
    StrategyTriple,
    coop_game,
    payoff_factorizable,
    payoff_marginal_form,
    pd3,
    strategy_marginals,
)
from .measurement import (
    MarginalConvention,
    MarginalSet,
    convert_marginals,
    extract_marginals,
    marginal_values,
    weights_from_marginals,
)
from .qstates import (
    _PD_SUPPORT,
    _W_SUPPORT,
    _freeze,
    BASIS_LABELS,
    ProductStateAngles,
    PureState,
    density_from_pure,
    ghz,
    pd_state,
    product_state,
    w_state,
)
from .serialize import (
    _amplitudes,
    _bounded_int,
    _checked,
    _ensure_dict,
    _finite,
    _pd_params,
    _seed,
    complementary_amplitude,
    parse_complex,
    structural_note,
    to_wire,
)

__all__ = ["SCENARIO_IDS", "SCENARIOS", "ScenarioReport", "run_scenario"]

# Largest ghz-bell weight grid. The scan evaluates four affine slacks on
# the grid, (grid, 4) floats: a run at this bound peaks at 37 MB ru_maxrss
# (30 MB of it the import) and takes about 8 ms (2-vCPU VM, numpy 2.4).
MAX_SCAN_GRID = 100_001

ROOT_HALF = 2.0 ** -0.5
ROOT_THIRD = 3.0 ** -0.5

@dataclass
class ScenarioReport:
    """Machine-checkable record of one case study.

    A scenario body fills the analysis, its reference entries
    (quantity, expected, computed) and any claim of its own in
    paper_deviation; run_scenario sets scenario_id and inputs, writes
    inputs and details in their wire form (serialize.to_wire), forms
    the reference rows from the entries and keeps rows and claim only
    for the default inputs. bell is read from the marginals. to_dict
    writes the remaining fields.
    """

    scenario_id: str = field(init=False, default="")
    inputs: dict = field(init=False, default_factory=dict)
    marginals: dict[str, MarginalSet] = field(default_factory=dict)
    payoffs: object = None
    ne_findings: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    reference: list = field(default_factory=list)
    paper_deviation: str | None = None

    @property
    def bell(self) -> BellReport | None:
        """Bell report of the first marginal set, None without one."""
        first = next(iter(self.marginals.values()), None)
        return None if first is None else bell_slacks(first)

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "inputs": self.inputs,
            "marginals": to_wire(self.marginals),
            "bell": to_wire(self.bell),
            "payoffs": to_wire(self.payoffs),
            "ne_findings": [
                structural_note(f) if isinstance(f, str) else to_wire(f)
                for f in self.ne_findings
            ],
            "details": self.details,
            "reference": self.reference,
            "paper_deviation": self.paper_deviation,
        }


def _ghz_b(value, path: str, parsed: dict) -> complex:
    """An explicit b, or the one completing the parsed a to unit norm."""
    if value is None:
        return complementary_amplitude(parsed["a"], "params.a")
    return parse_complex(value, path)


def _param(parse: Callable, *args) -> Callable:
    """A spec parser that reads its own value only."""
    return lambda value, path, parsed: parse(value, path, *args)


def _rows(names: tuple[str, ...], expected: float, computed) -> list[tuple]:
    """Reference entries that share one expected value."""
    return [(name, expected, c) for name, c in zip(names, computed)]


_PAYOFFS = ("payoff_a", "payoff_b", "payoff_c")
_OWN = ("own_coefficient_a", "own_coefficient_b", "own_coefficient_c")
_SINGLES = ("marginal_lambda", "marginal_mu", "marginal_nu")
_PAIRS = ("marginal_p_ab", "marginal_p_bc", "marginal_p_ac")
_BELL = ("bell_slack_1", "bell_slack_2", "bell_slack_3", "bell_slack_4")


def _pd_classical(pd_params: PdParams, resolution: int, tol: float) -> ScenarioReport:
    table = pd3(pd_params)
    equilibria = grid_ne_search(table, resolution, tol)
    all_defect = StrategyTriple(0.0, 0.0, 0.0)
    all_coop = StrategyTriple(1.0, 1.0, 1.0)
    cert_defect = verify_ne_factorizable(table, all_defect, tol)
    cert_coop = verify_ne_factorizable(table, all_coop, tol)
    payoffs = payoff_factorizable(table, all_defect)
    m = strategy_marginals(all_defect, MarginalConvention.CONJUNCTION)

    coop_gain = -min(cert_coop.player_slack)
    eq = equilibria[0].triple if equilibria else all_coop
    return ScenarioReport(
        marginals={"all_defect_conjunction": m},
        payoffs=payoffs,
        ne_findings=list(equilibria),
        details={
            "lattice_equilibria": equilibria,
            "all_defect": cert_defect,
            "all_cooperate_rejected": cert_coop,
            "all_cooperate_best_deviation_gain": float(coop_gain),
        },
        reference=[
            ("lattice_equilibrium_count", 1.0, float(len(equilibria))),
            ("equilibrium_lam", 0.0, eq.lam),
            ("equilibrium_mu", 0.0, eq.mu),
            ("equilibrium_nu", 0.0, eq.nu),
            *_rows(_PAYOFFS, 1.0, payoffs),
            ("all_cooperate_best_deviation_gain", 2.0, float(coop_gain)),
        ],
    )


def _pd_ghz(a: complex, b: complex, pd_params: PdParams) -> ScenarioReport:
    table = pd3(pd_params)
    state = _checked(ghz, "params", a, b)
    rho = density_from_pure(state)
    m_parity = _checked(extract_marginals, "params", rho, MarginalConvention.PARITY)
    m_conj = _checked(convert_marginals, "params", m_parity, MarginalConvention.CONJUNCTION)
    payoffs = payoff_marginal_form(table, m_parity)
    bell_parity = bell_slacks(m_parity)

    conj = {
        "bell": bell_slacks(m_conj),
        "xi_interval": xi_interval(m_conj),
    }
    details: dict = {"conjunction_reading": conj}
    for m, out, key, terms_key in (
        (m_parity, details, "parity_as_literal_joint", "parity_violated_terms"),
        (m_conj, conj, "joint", "violated_terms"),
    ):
        out[key], terms = _joint_or_terms(m, XiRule.GIVEN)
        if out[key] is None:
            out[terms_key] = terms
    return ScenarioReport(
        marginals={"parity": m_parity, "conjunction": m_conj},
        payoffs=payoffs,
        ne_findings=[
            "the shared state fixes all seven marginal values at once, so the "
            "equilibrium conditions are over-determined: no per-player strategy "
            "freedom remains and no factorizable equilibrium audit applies"
        ],
        details=details,
        reference=[
            *_rows(_PAYOFFS, 3.0, payoffs),
            *zip(_BELL, (2.5, -0.5, -0.5, -0.5), bell_parity.slack),
            ("bell_satisfied", 0.0, 1.0 if bell_parity.satisfied else 0.0),
        ],
    )


def _ghz_bell(a: complex, grid: int) -> ScenarioReport:
    rho = density_from_pure(ghz(a, complementary_amplitude(a, "params.a")))
    m = _checked(extract_marginals, "params.a", rho, MarginalConvention.PARITY)
    bell = bell_slacks(m)

    # The slacks are linear in diag(rho), which is affine in the weight x,
    # so s(x) = s(0) + x (s(1) - s(0)) from the exact ends |111> and |000>.
    s0, s1 = bell_slack_values(marginal_values(np.eye(8)[[7, 0]], MarginalConvention.PARITY))
    xs = np.linspace(0.0, 1.0, grid)
    satisfied_points = xs[holds((s0 + xs[:, None] * (s1 - s0)).min(axis=-1))].tolist()

    return ScenarioReport(
        marginals={"parity": m},
        payoffs="not evaluated: feasibility-only scenario",
        ne_findings=[],
        details={
            "weight_scan": {
                "grid": grid,
                "satisfied_points": satisfied_points,
                "satisfied_count": len(satisfied_points),
            }
        },
        reference=[
            *zip(_BELL, (2.5, -0.5, -0.5, -0.5), bell.slack),
            ("satisfied_count", 1.0, float(len(satisfied_points))),
            ("satisfied_point", 1.0, satisfied_points[0] if satisfied_points else float("inf")),
        ],
    )


def _pd_product(pd_params: PdParams) -> ScenarioReport:
    table = pd3(pd_params)
    solution = product_state_interior_solve(table)
    if solution is None:
        return ScenarioReport(
            payoffs="not evaluated: no isolated symmetric stationary point",
            ne_findings=[
                "the symmetric own-probability derivative has no isolated root "
                "in [0, 1] for these payoff levels"
            ],
            details={"stationary_point": None},
        )

    t = solution.lam
    theta = 2.0 * float(np.arccos(t ** 0.5))
    angles = ProductStateAngles(
        np.array([theta] * 3), np.zeros(3), np.zeros(3)
    )
    state = product_state(angles)
    rho = density_from_pure(state)
    m = extract_marginals(rho, MarginalConvention.PARITY)
    payoffs = payoff_marginal_form(table, m)
    inversion = weights_from_marginals(m)
    gradient = parity_product_gradient(table, solution)

    flat_slack = tuple(-abs(float(g)) * max(t, 1.0 - t) for g in gradient)
    cert = NeCertificate(
        solution,
        flat_slack,
        holds(min(flat_slack), DEFAULT_NE_TOL),
        "symmetric stationary point of the parity product-state game: payoffs "
        "are flat in each player's own probability",
    )

    negative = inversion.negative_indices
    sign_pattern = ["negative" if i in negative else "non-negative" for i in range(8)]
    lam_ref = (2.0 - 2.0 ** 0.5) / 2.0
    pair_ref = 2.0 - 2.0 ** 0.5
    xi_ref = (2.0 - 2.0 ** 0.5) * (3.0 - 2.0 ** 0.5) / 2.0
    return ScenarioReport(
        marginals={
            "parity": m,
            "conjunction": extract_marginals(rho, MarginalConvention.CONJUNCTION),
        },
        payoffs=payoffs,
        ne_findings=[cert],
        details={
            "stationary_point": [t, t, t],
            "theta": theta,
            "own_gradient": gradient,
            "inversion": inversion,
            "inversion_sign_pattern": dict(zip(BASIS_LABELS, sign_pattern)),
        },
        reference=[
            ("stationary_lam", lam_ref, t),
            *_rows(_SINGLES, lam_ref, (m.lam, m.mu, m.nu)),
            *_rows(_PAIRS, pair_ref, (m.p_ab, m.p_bc, m.p_ac)),
            ("marginal_xi", xi_ref, m.xi),
        ],
        paper_deviation=(
            "reference analysis reports a negative weight for basis outcome "
            "011 at this stationary point, but the unique inversion is "
            "non-negative everywhere (smallest weight "
            f"{float(np.min(inversion.weights)):.6g}); the marginal set is "
            "realized exactly by the product state itself"
        )
        if inversion.feasible
        else None,
    )


@lru_cache(maxsize=None)
def _family_map(support: tuple[int, ...]) -> np.ndarray:
    """Read-only (4, 4) map from (1, lam, mu, nu) to (p_ab, p_bc, p_ac,
    xi) on the states supported on three basis states (see _affine_family)."""
    rows = marginal_values(np.eye(8)[list(support)], MarginalConvention.PARITY).T
    return _freeze(np.hstack((np.zeros((4, 1)), rows[3:] @ np.linalg.inv(rows[:3]))))


def _affine_family(
    state: PureState, pd_params: PdParams, support: tuple, analysis: Callable
) -> ScenarioReport:
    """A state family whose pairs and triple are affine in the singles.

    Every parity marginal of a diagonal is linear in its weights. On the
    W support |001>, |010>, |100> the singles read the three weights
    through [[1, 1, 0], [1, 0, 1], [0, 1, 1]] (determinant -2), and on
    the double-excitation support |011>, |101>, |110> through the
    identity: the singles fix the weights, and so the pairs and the
    triple, with no constant term. Read into the monomial slots of the
    payoff polynomial, that map restricts the marginal form to the
    family: matrix[player][var] and const are the payoffs' coefficients
    over the free (lam, mu, nu). `analysis(m, payoffs, matrix, const,
    own, singles_sum)` returns the family's findings and reference entries.
    """
    table = pd3(pd_params)
    rho = density_from_pure(state)
    m = _checked(extract_marginals, "params", rho, MarginalConvention.PARITY)
    payoffs = payoff_marginal_form(table, m)
    reduced = table._polynomial.T @ np.vstack((np.eye(4), _family_map(support)))
    matrix, const = reduced[:, 1:], reduced[:, 0]
    own = [float(matrix[p, p]) for p in range(3)]
    singles_sum = m.lam + m.mu + m.nu
    findings, entries = analysis(m, payoffs, matrix, const, own, singles_sum)
    return ScenarioReport(
        marginals={"parity": m},
        payoffs=payoffs,
        ne_findings=findings,
        details={
            "reduced_coefficients": matrix,
            "reduced_constants": const,
            "singles_sum": float(singles_sum),
        },
        reference=entries,
    )


def _pd_w(c2: complex, c3: complex, c5: complex, pd_params: PdParams) -> ScenarioReport:
    state = _checked(w_state, "params", c2, c3, c5)
    return _affine_family(state, pd_params, _W_SUPPORT, _w_analysis)


def _w_analysis(m, payoffs, matrix, const, own, singles_sum) -> tuple[list, list]:
    push = [0.0 if g < 0 else 1.0 for g in own]
    finding = (
        "own-probability payoff gradients in this family are the constants "
        f"{own}; every player is pushed to the boundary value "
        f"{push} with singles sum {sum(push):g}, "
        f"while the family enforces lambda + mu + nu = {singles_sum:.12g}: the "
        "equilibrium conditions are inconsistent and no state of the family "
        "satisfies them"
    )
    return [finding], [
        *_rows(_SINGLES, 2.0 / 3.0, (m.lam, m.mu, m.nu)),
        *_rows(_PAIRS, 1.0 / 3.0, (m.p_ab, m.p_bc, m.p_ac)),
        ("marginal_xi", 0.0, m.xi),
        *_rows(_PAYOFFS, 5.0, payoffs),
        *_rows(_OWN, -2.0, own),
        ("cross_coefficient_ab", 4.0, matrix[0, 1]),
        ("constant_a", 1.0, const[0]),
        ("singles_sum", 2.0, singles_sum),
    ]


def _pd_continuum(
    c4: complex, c6: complex, c7: complex, pd_params: PdParams
) -> ScenarioReport:
    state = _checked(pd_state, "params", c4, c6, c7)
    return _affine_family(state, pd_params, _PD_SUPPORT, _continuum_analysis)


def _continuum_analysis(m, payoffs, matrix, const, own, singles_sum) -> tuple[list, list]:
    slack = tuple(-abs(g) for g in own)
    flat = holds(min(slack), DEFAULT_NE_TOL)
    cert = NeCertificate(
        StrategyTriple(m.lam, m.mu, m.nu),
        slack,
        flat,
        "family payoffs are independent of each player's own single probability, "
        "so every state with lambda + mu + nu = 1 is a weak equilibrium "
        "(a continuum of equilibria)",
    )
    return [cert] if flat else [cert.note], [
        *_rows(_PAYOFFS, 11.0 / 3.0, payoffs),
        *_rows(_OWN, 0.0, own),
        ("cross_coefficient_ab", 4.0, matrix[0, 1]),
        ("constant_a", 1.0, const[0]),
        ("singles_sum", 1.0, singles_sum),
        ("marginal_xi", 1.0, m.xi),
    ]


def _coop_classical(resolution: int, tol: float) -> ScenarioReport:
    table = coop_game()
    values, reductions = _coalition_analysis(table)
    reduction = reductions["A"]
    l_star, c_star = coop_best_response_solve(table)
    solved = StrategyTriple(l_star, c_star, c_star)
    cert = verify_ne_factorizable(table, solved, tol)
    equilibria = grid_ne_search(table, resolution, tol)
    payoffs = payoff_factorizable(table, solved)
    m = strategy_marginals(solved, MarginalConvention.CONJUNCTION)

    lattice_has_half = any(
        c.triple.as_tuple() == (0.5, 0.5, 0.5) for c in equilibria
    )
    return ScenarioReport(
        marginals={"solved_point_conjunction": m},
        payoffs=payoffs,
        ne_findings=[cert] + list(equilibria),
        details={
            "coalition_values": values,
            "pair_reduction_bc": reduction,
            "best_response": [float(l_star), float(c_star)],
            "lattice_equilibria": equilibria,
        },
        reference=[
            ("coalition_value_a", -1.0, values[0].value),
            ("coalition_value_b", -1.0, values[1].value),
            ("coalition_value_c", -1.0, values[2].value),
            ("coalition_value_ab", 1.0, values[3].value),
            ("coalition_value_bc", 1.0, values[4].value),
            ("coalition_value_ac", 1.0, values[5].value),
            ("reduction_value", 1.0, reduction.value),
            ("reduction_member_mix_first", 0.5, reduction.member_mix[0]),
            ("reduction_odd_mix_first", 0.5, reduction.odd_mix[0]),
            ("best_response_lam", 0.5, l_star),
            ("best_response_c", 0.5, c_star),
            *_rows(_PAYOFFS, 0.0, payoffs),
            ("lattice_contains_half_point", 1.0, 1.0 if lattice_has_half else 0.0),
        ],
    )


def _coop_quantum(
    amplitudes: list[complex] | None, q1: float, u: float, v: float, seed: int
) -> ScenarioReport:
    # A state whose two excitation trios have equal magnitudes: given,
    # or drawn from the weights with seeded phases.
    path = "params" if amplitudes is None else "params.amplitudes"
    if amplitudes is not None:
        state = _checked(PureState, path, np.array(amplitudes))
        q = state.probabilities()
        q1, u, v = float(q[0]), float(q[3]), float(q[1])  # pattern reads the state
        for s0, s1, s2 in (_PD_SUPPORT, _W_SUPPORT):
            if max(abs(q[s0] - q[s1]), abs(q[s0] - q[s2])) > NORMALIZATION_TOL:
                trio = ", ".join(f"|c{i + 1}|^2" for i in (s0, s1, s2))
                raise ParamError(f"params.amplitudes: {trio} must be equal")
    else:
        q8 = 1.0 - q1 - 3.0 * u - 3.0 * v
        if q8 < -NORMALIZATION_TOL:
            raise ParamError("params: q1 + 3*u + 3*v exceeds 1")
        q8 = max(q8, 0.0)
        rng = np.random.default_rng(seed)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        mags = np.sqrt(np.array([q1, v, v, u, v, u, u, q8]))
        state = _checked(PureState, path, mags * phases)
    m = _checked(extract_marginals, path, density_from_pure(state), MarginalConvention.PARITY)
    table = coop_game()
    payoffs = payoff_marginal_form(table, m)

    singles_spread = max(abs(m.lam - m.mu), abs(m.mu - m.nu), abs(m.lam - m.nu))
    payoff_magnitude = float(np.max(np.abs(payoffs)))
    return ScenarioReport(
        marginals={"parity": m},
        payoffs=payoffs,
        ne_findings=[
            "all three payoffs vanish for every state meeting the equal-trio "
            "magnitude condition, so identical strategies leave no player and "
            "no coalition anything to gain: coalition formation is unmotivated "
            f"(largest payoff magnitude {payoff_magnitude:.3g})"
        ],
        details={
            "singles_spread": float(singles_spread),
            "payoff_magnitude": payoff_magnitude,
            "pattern": {"q1": q1, "u": u, "v": v},
        },
        reference=[
            *_rows(_PAYOFFS, 0.0, payoffs),
            *_rows(_SINGLES, 0.5, (m.lam, m.mu, m.nu)),
            ("singles_spread", 0.0, float(singles_spread)),
        ],
    )


class _Scenario(NamedTuple):
    """A body and its params: name -> (default, parse(value, path,
    parsed so far)), in echo order; the body takes them by name."""

    body: Callable[..., ScenarioReport]
    params: dict[str, tuple[object, Callable]]


_PD_PARAMS = (list(DEFAULT_PD_PARAMS.as_tuple()), _param(_pd_params))
_RESOLUTION = (DEFAULT_RESOLUTION, _param(_bounded_int, 2, MAX_RESOLUTION))
_TOL = (DEFAULT_NE_TOL, _param(_finite, True))
_HALF = ([ROOT_HALF, 0.0], _param(parse_complex))
_THIRD = ([ROOT_THIRD, 0.0], _param(parse_complex))
_EIGHTH = (0.125, _param(_finite, False))

SCENARIOS = {
    "pd-classical": _Scenario(
        _pd_classical, {"pd_params": _PD_PARAMS, "resolution": _RESOLUTION, "tol": _TOL}
    ),
    "pd-ghz": _Scenario(
        _pd_ghz, {"a": _HALF, "b": (None, _ghz_b), "pd_params": _PD_PARAMS}
    ),
    "ghz-bell": _Scenario(
        _ghz_bell, {"a": _HALF, "grid": (101, _param(_bounded_int, 2, MAX_SCAN_GRID))}
    ),
    "pd-product": _Scenario(_pd_product, {"pd_params": _PD_PARAMS}),
    "pd-w": _Scenario(
        _pd_w, {"c2": _THIRD, "c3": _THIRD, "c5": _THIRD, "pd_params": _PD_PARAMS}
    ),
    "pd-continuum": _Scenario(
        _pd_continuum, {"c4": _THIRD, "c6": _THIRD, "c7": _THIRD, "pd_params": _PD_PARAMS}
    ),
    "coop-classical": _Scenario(_coop_classical, {"resolution": _RESOLUTION, "tol": _TOL}),
    "coop-quantum": _Scenario(
        _coop_quantum,
        {
            # null draws the state from the weights q1, u, v.
            "amplitudes": (None, lambda v, path, _: None if v is None else _amplitudes(v, path)),
            "q1": _EIGHTH,
            "u": _EIGHTH,
            "v": _EIGHTH,
            "seed": (0, _param(_seed)),
        },
    ),
}

SCENARIO_IDS = tuple(SCENARIOS)


def _parse(params: dict, supplied: dict) -> dict:
    """Each param's supplied value, or its default, parsed in spec order."""
    parsed: dict = {}
    for name, (default, parse) in params.items():
        parsed[name] = parse(supplied.get(name, default), f"params.{name}", parsed)
    return parsed


@lru_cache(maxsize=None)
def _defaults(scenario_id: str) -> dict:
    """A scenario's parsed defaults, parsed once. Every value is immutable
    and no body keeps the dict, so every default run can share it."""
    return _parse(SCENARIOS[scenario_id].params, {})


def run_scenario(scenario_id: str, params: dict | None = None) -> ScenarioReport:
    """Execute one registered scenario and return its report.

    params is a dict or None, as the CLI's --params is a JSON object;
    any other value raises ParamError. Reference rows and
    paper_deviation stay only when the parsed inputs equal, exactly, the
    scenario's parsed defaults.
    """
    try:
        spec = SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; available: {list(SCENARIO_IDS)}"
        ) from None
    supplied = {} if params is None else _ensure_dict(params, "params")
    unknown = sorted(set(supplied) - set(spec.params))
    if unknown:
        raise ParamError(
            f"params: unknown keys {unknown} for scenario {scenario_id!r}; "
            f"allowed: {sorted(spec.params)}"
        )
    parsed = _parse(spec.params, supplied) if supplied else _defaults(scenario_id)
    report = spec.body(**parsed)
    report.scenario_id = scenario_id
    report.inputs = to_wire(parsed)
    report.details = to_wire(report.details)
    if parsed == _defaults(scenario_id):
        entries = [(name, float(e), float(c)) for name, e, c in report.reference]
        report.reference = [
            {"quantity": name, "expected": e, "computed": c, "abs_delta": abs(e - c)}
            for name, e, c in entries
        ]
        bad = [r["quantity"] for r in report.reference if r["abs_delta"] > REFERENCE_TOL]
        mismatch = "computed values contradict reference claims: " + ", ".join(bad)
        claims = (mismatch if bad else None, report.paper_deviation)
        report.paper_deviation = "; ".join(c for c in claims if c) or None
    else:
        report.reference, report.paper_deviation = [], None
    return report
