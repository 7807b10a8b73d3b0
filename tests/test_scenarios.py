"""End-to-end scenario reports: values, schema, determinism."""

import hashlib

import numpy as np
import pytest

from finegames import (
    MarginalConvention,
    ParamError,
    ShapeError,
    UnknownScenarioError,
    bell_slacks,
    density_from_pure,
    extract_marginals,
    ghz,
    grid_ne_search,
    load_schema,
    pd3,
    render_json,
    render_markdown,
    run_scenario,
    SCENARIO_IDS,
    SCENARIOS,
)
import finegames.equilibrium as equilibrium
from finegames.equilibrium import MAX_RESOLUTION
from finegames.qstates import _PD_SUPPORT, _W_SUPPORT, pd_state, w_state
from finegames.scenarios import MAX_SCAN_GRID, _family_map
from oracles import reference_weight_scan

jsonschema = pytest.importorskip("jsonschema")

ROOT2 = 2.0 ** 0.5


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_reports_validate_against_schema(scenario_id):
    report = run_scenario(scenario_id).to_dict()
    jsonschema.validate(report, load_schema("report"))


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_reports_are_byte_deterministic(scenario_id):
    first = render_json(run_scenario(scenario_id).to_dict())
    second = render_json(run_scenario(scenario_id).to_dict())
    assert first == second


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_default_runs_match_their_references(scenario_id):
    report = run_scenario(scenario_id).to_dict()
    assert report["reference"], "default inputs must pin reference rows"
    for row in report["reference"]:
        assert row["abs_delta"] <= 1e-9, row["quantity"]


def test_unknown_scenario_and_params():
    with pytest.raises(UnknownScenarioError):
        run_scenario("does-not-exist")
    with pytest.raises(ParamError):
        run_scenario("pd-classical", {"bogus": 1})


def test_pd_classical_report():
    report = run_scenario("pd-classical")
    assert report.payoffs == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert len(report.ne_findings) == 1
    cert = report.ne_findings[0]
    assert cert.triple.as_tuple() == (0.0, 0.0, 0.0)
    assert report.details["all_cooperate_best_deviation_gain"] == pytest.approx(2.0)
    assert report.paper_deviation is None


def test_pd_ghz_report():
    report = run_scenario("pd-ghz")
    assert report.payoffs == pytest.approx([3.0] * 3, abs=1e-9)
    assert not report.bell.satisfied
    assert report.bell.slack == pytest.approx((2.5, -0.5, -0.5, -0.5), abs=1e-12)
    conj = report.details["conjunction_reading"]
    assert conj["bell"]["satisfied"] is True
    assert conj["xi_interval"]["lower"] == pytest.approx(0.5, abs=1e-9)
    assert conj["joint"]["prob"][0] == pytest.approx(0.5, abs=1e-9)
    assert report.details["parity_as_literal_joint"] is None
    assert report.details["parity_violated_terms"] == [3, 5, 6]
    assert report.paper_deviation is None


def test_pd_ghz_with_perturbed_levels_drops_reference_rows():
    report = run_scenario("pd-ghz", {"pd_params": [8, 10, 3, 0, 1, 5]})
    assert report.reference == []
    assert report.paper_deviation is None
    assert report.payoffs != pytest.approx([3.0] * 3, abs=1e-6)


def test_ghz_bell_window_scan():
    report = run_scenario("ghz-bell")
    scan = report.details["weight_scan"]
    assert scan["satisfied_count"] == 1
    assert scan["satisfied_points"] == [1.0]
    assert isinstance(report.payoffs, str)


def test_pd_product_report():
    report = run_scenario("pd-product")
    t = (2.0 - ROOT2) / 2.0
    assert report.details["stationary_point"] == pytest.approx([t] * 3, abs=1e-12)
    m = report.marginals["parity"]
    assert m.p_ab == pytest.approx(2.0 - ROOT2, abs=1e-12)
    assert m.xi == pytest.approx((2.0 - ROOT2) * (3.0 - ROOT2) / 2.0, abs=1e-12)
    assert report.payoffs == pytest.approx([8.0 - 4.0 * ROOT2] * 3, abs=1e-12)
    assert report.details["inversion"]["feasible"] is True
    assert report.paper_deviation is not None
    assert "negative weight" in report.paper_deviation
    cert = report.ne_findings[0]
    assert cert.is_ne


def test_pd_product_with_other_levels_has_no_deviation_claim():
    report = run_scenario("pd-product", {"pd_params": [8, 10, 3, 0, 1, 5]})
    assert report.reference == []
    assert report.paper_deviation is None


def test_pd_w_report():
    report = run_scenario("pd-w")
    assert report.payoffs == pytest.approx([5.0] * 3, abs=1e-9)
    matrix = np.array(report.details["reduced_coefficients"])
    assert np.diag(matrix) == pytest.approx([-2.0] * 3, abs=1e-12)
    assert matrix[0, 1] == pytest.approx(4.0, abs=1e-12)
    assert report.details["reduced_constants"] == pytest.approx([1.0] * 3, abs=1e-12)
    assert report.details["singles_sum"] == pytest.approx(2.0, abs=1e-12)
    assert report.bell.satisfied
    note = report.ne_findings[0]
    assert "inconsistent" in note


def test_pd_continuum_report():
    report = run_scenario("pd-continuum")
    assert report.payoffs == pytest.approx([11.0 / 3.0] * 3, abs=1e-9)
    matrix = np.array(report.details["reduced_coefficients"])
    assert np.diag(matrix) == pytest.approx([0.0] * 3, abs=1e-12)
    assert report.details["singles_sum"] == pytest.approx(1.0, abs=1e-12)
    cert = report.ne_findings[0]
    assert cert.is_ne
    assert "continuum" in cert.note


# The families' (p_ab, p_bc, p_ac, xi) over (1, lam, mu, nu) as once
# typed by hand: on the W support p_ab = (lam + mu - nu) / 2 and
# cyclically, xi = 0; on the double-excitation support p_ab = nu,
# p_bc = lam, p_ac = mu, xi = lam + mu + nu.
TYPED_FAMILIES = {
    "w": (_W_SUPPORT, w_state,
          [[0, 0.5, 0.5, -0.5], [0, -0.5, 0.5, 0.5], [0, 0.5, -0.5, 0.5], [0, 0, 0, 0]]),
    "pd": (_PD_SUPPORT, pd_state,
           [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1]]),
}


@pytest.mark.parametrize("support, make, typed", TYPED_FAMILIES.values(),
                         ids=list(TYPED_FAMILIES))
def test_family_maps_derive_from_the_support(support, make, typed):
    family, typed = _family_map(support), np.array(typed, dtype=float)
    assert np.array_equal(family, typed)
    assert np.array_equal(np.signbit(family), np.signbit(typed))
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(500):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = density_from_pure(make(*(amps / np.linalg.norm(amps))))
        m = extract_marginals(rho, MarginalConvention.PARITY)
        predicted = family @ (1.0, m.lam, m.mu, m.nu)
        worst = max(worst, float(np.abs(predicted - (m.p_ab, m.p_bc, m.p_ac, m.xi)).max()))
    assert worst <= 1e-15


def test_coop_classical_report():
    report = run_scenario("coop-classical")
    values = {tuple(v["members"]): v["value"] for v in report.details["coalition_values"]}
    assert values[("A",)] == pytest.approx(-1.0, abs=1e-15)
    assert values[("B", "C")] == pytest.approx(1.0, abs=1e-15)
    red = report.details["pair_reduction_bc"]
    assert red["reduced"] == [[0.0, 2.0], [2.0, 0.0]]
    assert red["value"] == pytest.approx(1.0, abs=1e-15)
    assert report.details["best_response"] == [0.5, 0.5]
    assert report.payoffs == pytest.approx([0.0] * 3, abs=1e-12)
    lattice = report.details["lattice_equilibria"]
    assert [c["triple"] for c in lattice] == [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [1.0, 1.0, 1.0],
    ]


def test_coop_quantum_report():
    report = run_scenario("coop-quantum")
    assert report.payoffs == pytest.approx([0.0] * 3, abs=1e-12)
    m = report.marginals["parity"]
    assert (m.lam, m.mu, m.nu) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)
    assert report.details["singles_spread"] == pytest.approx(0.0, abs=1e-12)


def test_coop_quantum_pattern_generalizes():
    report = run_scenario("coop-quantum", {"q1": 0.25, "u": 0.1, "v": 0.05, "seed": 7})
    assert report.payoffs == pytest.approx([0.0] * 3, abs=1e-12)
    assert report.reference == []


def test_coop_quantum_pattern_reads_the_weights_or_the_state():
    # Weight mode: the weights that drew the state.
    weights = {"q1": 0.25, "u": 0.1, "v": 0.05}
    report = run_scenario("coop-quantum", {**weights, "seed": 7})
    assert report.details["pattern"] == weights
    assert run_scenario("coop-quantum").details["pattern"] == {"q1": 0.125, "u": 0.125, "v": 0.125}
    # Amplitude mode: the state's own |c1|^2, |c4|^2 and |c2|^2; the weights are ignored.
    half, third, sixth = 2.0 ** -0.5, 3.0 ** -0.5, 6.0 ** -0.5
    cases = (
        ([half, 0, 0, 0, 0, 0, 0, half], {"q1": 0.5, "u": 0.0, "v": 0.0}),
        ([0, 0, 0, third, 0, third, third, 0], {"q1": 0.0, "u": 1 / 3, "v": 0.0}),
        ([0.5, sixth, sixth, 0.25, sixth, 0.25, 0.25, 0.25], {"q1": 0.25, "u": 0.0625, "v": 1 / 6}),
    )
    for amplitudes, pattern in cases:
        report = run_scenario("coop-quantum", {"amplitudes": amplitudes, "q1": 0.9, "u": 0, "v": 0})
        assert report.details["pattern"] == pytest.approx(pattern, abs=1e-15)
        assert all(type(w) is float for w in report.details["pattern"].values())


def test_coop_quantum_amplitude_mode_checks_pattern():
    third = 3.0 ** -0.5
    good = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [third, 0.0],
            [0.0, 0.0], [0.0, third], [third, 0.0], [0.0, 0.0]]
    report = run_scenario("coop-quantum", {"amplitudes": good})
    assert report.payoffs == pytest.approx([0.0] * 3, abs=1e-12)
    bad = [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 6
    with pytest.raises(ParamError):
        run_scenario("coop-quantum", {"amplitudes": bad})


def test_scenario_seed_changes_phases_but_not_payoffs():
    a = run_scenario("coop-quantum", {"seed": 1})
    b = run_scenario("coop-quantum", {"seed": 2})
    assert a.payoffs == pytest.approx(b.payoffs, abs=1e-12)


# sha256 of render_json and of render_markdown ("scenario <id>" title)
# of every default report. A change that moves a report byte updates
# these digests and lists each moved field, with its reason, in
# CHANGES.md.
DEFAULT_REPORT_SHA256 = {
    "pd-classical": (
        "85aec22de9b9b4d0a7d9ccc481c4c2ae51c3b4a0561571188d339779297653de",
        "a897e406309ba051cbebe8dcfee783f86bb7ae327bccbb47b8938655893ab302",
    ),
    "pd-ghz": (
        "d550389f19595dd91fb333630a177bc8a8471bbb9667a9eb5326ceaafd38e067",
        "5683ae44e31bac763382fdcbc9ad25b1e6f4d0e1246e8d6df6b1209810fa9ad7",
    ),
    "ghz-bell": (
        "60d0bbda2af62ad2752cc1c36635bf2945059065c611de15ea6ed130cdd570e5",
        "ce0af7d7a6987792306e1f7c8ccff9393d1993d2f431925056b67e36464bd6d8",
    ),
    "pd-product": (
        "5c806ae6e1f623245e2ffeace7f756a0d75ba0063dd8fd01799224a3d84bb6c7",
        "e192c96a0cc7771fc28e6d541f1337f99ccf47907d9e574bf0c2c882970b01b9",
    ),
    "pd-w": (
        "be2d2a9d14a15c10f01f09956e1b19ac02ed4c13a7f43adbeaa056b6094180f6",
        "fb8ec101697c9d3302d3a0d7886c5f38c26e875e0f94b3c827339eb7f6226195",
    ),
    "pd-continuum": (
        "6ad2f45d2ff95580fadc916fdd400570110cf9895a7b594005b22b858e321fc5",
        "f37d3792af70483e467f1bafe92c1a60276caf3abf20dea888946c7707cf6117",
    ),
    "coop-classical": (
        "ca3941bf1d395412dbb9e0d9ee1c02f926d3bf0113c22b4fc618142ee05528af",
        "a1eee04f8bfd06919cbba4ea6e22d1f6ccdc23d7702c94dc127df83d1528c173",
    ),
    "coop-quantum": (
        "9c516705d5b2f683c48c30c2291740f35aa7f3ee49bab1c66ee57bbaa971b7f4",
        "d4335a31b0e4c9ff9a91f584ba7192bec0134507f743b9fd8fea538728d10691",
    ),
}
GHZ_BELL_10001_SHA256 = "f6cf1164b5e1ef1fd01e5ce47f0e55ce7e1ef3ca8792c9fb2ff47ff2bb1b3f48"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scenario_has_pinned_digests():
    assert sorted(DEFAULT_REPORT_SHA256) == sorted(SCENARIO_IDS)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_default_reports_match_pinned_digests(scenario_id):
    report = run_scenario(scenario_id).to_dict()
    json_digest, md_digest = DEFAULT_REPORT_SHA256[scenario_id]
    assert sha256(render_json(report)) == json_digest
    assert sha256(render_markdown(f"scenario {scenario_id}", report)) == md_digest


def per_point_weight_scan(grid_n: int) -> list[float]:
    """The ghz-bell weight scan one state at a time, through the
    single-state API."""
    points = []
    for x in np.linspace(0.0, 1.0, grid_n):
        state = ghz(complex(float(x) ** 0.5, 0.0), complex((1.0 - float(x)) ** 0.5, 0.0))
        m = extract_marginals(density_from_pure(state), MarginalConvention.PARITY)
        if bell_slacks(m).satisfied:
            points.append(float(x))
    return points


@pytest.mark.parametrize("grid_n", [2, 3, 101, 10001])
def test_batched_weight_scan_matches_per_point_loop(grid_n):
    report = run_scenario("ghz-bell", {"grid": grid_n})
    scan = report.details["weight_scan"]
    assert scan["satisfied_points"] == per_point_weight_scan(grid_n)
    # On the segment the second parity Bell slack is x - 1: exactly {1}.
    assert scan["satisfied_points"] == [1.0]
    if grid_n == 10001:
        assert sha256(render_json(report.to_dict())) == GHZ_BELL_10001_SHA256


def test_weight_scan_matches_the_batch_reference():
    # The scenario evaluates the slacks' affine ends on the grid; the
    # reference pushes every grid point's diagonal through the batch API.
    for grid_n in [*range(2, 2001), 10001, 65537]:
        scan = run_scenario("ghz-bell", {"grid": grid_n}).details["weight_scan"]
        points = reference_weight_scan(grid_n)
        assert scan == {"grid": grid_n, "satisfied_points": points, "satisfied_count": len(points)}


def test_weight_scan_grid_bound():
    scan = run_scenario("ghz-bell", {"grid": MAX_SCAN_GRID}).details["weight_scan"]
    assert scan["grid"] == MAX_SCAN_GRID and scan["satisfied_points"] == [1.0]
    assert scan["satisfied_points"] == reference_weight_scan(MAX_SCAN_GRID)
    with pytest.raises(ParamError, match="params.grid"):
        run_scenario("ghz-bell", {"grid": MAX_SCAN_GRID + 1})


def test_lattice_resolution_bound(monkeypatch):
    # The real screen runs at the largest resolution. pd3's slope corners
    # all clear the bands, so it screens a 2x2x2 cube without building a
    # slope plane, in about 0.2 ms; only the odd-man-out game, whose
    # slopes vanish along lines, builds the 24 MB 290^3 cube, in about
    # 20 ms. The wrapper records that the bound let each search in.
    seen = []
    screen = equilibrium._lattice_screen

    def recorded(coeffs, grid, tol):
        seen.append(len(grid))
        return screen(coeffs, grid, tol)

    monkeypatch.setattr(equilibrium, "_lattice_screen", recorded)
    found = grid_ne_search(pd3(), MAX_RESOLUTION)
    assert [c.triple.as_tuple() for c in found] == [(0.0, 0.0, 0.0)]
    lattices = {
        scenario_id: run_scenario(scenario_id, {"resolution": MAX_RESOLUTION})
        .details["lattice_equilibria"]
        for scenario_id in ("pd-classical", "coop-classical")
    }
    assert [c["triple"] for c in lattices["pd-classical"]] == [[0.0, 0.0, 0.0]]
    assert [c["triple"] for c in lattices["coop-classical"]] == [
        [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    ]
    assert seen == [MAX_RESOLUTION] * 3
    with pytest.raises(ShapeError, match="at most"):
        grid_ne_search(pd3(), MAX_RESOLUTION + 1)
    for scenario_id in ("pd-classical", "coop-classical"):
        with pytest.raises(ParamError, match="params.resolution"):
            run_scenario(scenario_id, {"resolution": MAX_RESOLUTION + 1})
    assert seen == [MAX_RESOLUTION] * 3


@pytest.mark.parametrize(
    "scenario_id, params",
    [
        ("coop-quantum", {"seed": -1}),
        ("ghz-bell", {"a": [1e200, 0.0]}),
        ("pd-ghz", {"a": [1e200, 0.0]}),
        ("pd-ghz", {"b": [0.0, 1e200]}),
    ],
)
def test_out_of_domain_params_raise_param_error(scenario_id, params):
    with pytest.raises(ParamError):
        run_scenario(scenario_id, params)


def seeded_params(scenario_id: str, rng) -> dict:
    """A valid param set off the defaults for each param the scenario takes."""
    def unit_triple():
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        return [[float(c.real), float(c.imag)] for c in z / np.linalg.norm(z)]

    a = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    q1, u, v, q8 = rng.dirichlet(np.ones(4)) / (1.0, 3.0, 3.0, 1.0)
    mags = np.sqrt([q1, v, v, u, v, u, u, max(1.0 - q1 - 3.0 * u - 3.0 * v, 0.0)])
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
    draws = {
        "pd_params": [float(x) for x in (7, 9, 3, 0, 1, 5) + rng.uniform(-0.25, 0.25, 6)],
        "resolution": int(rng.integers(2, 12)),
        "tol": float(10.0 ** rng.uniform(-12, -3)),
        "a": [float(a.real), float(a.imag)],
        "grid": int(rng.integers(2, 300)),
        **dict(zip(("c2", "c3", "c5"), unit_triple())),
        **dict(zip(("c4", "c6", "c7"), unit_triple())),
        "q1": float(q1), "u": float(u), "v": float(v),
        "seed": int(rng.integers(0, 1000)),
    }
    params = {k: v for k, v in draws.items() if k in SCENARIOS[scenario_id].params}
    if scenario_id == "coop-quantum" and rng.random() < 0.5:
        params = {"amplitudes": [[float(z.real), float(z.imag)] for z in mags * phases]}
    return params


# Integer dilemma levels whose symmetric slope has no root in [0, 1]:
# the pd-product report then holds no marginal set.
NO_STATIONARY_POINT = {"pd_params": [4, 5, 2, 0, 1, 3]}


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_bell_is_the_report_of_the_first_marginal_set(scenario_id):
    rng = np.random.default_rng(25 + SCENARIO_IDS.index(scenario_id))
    draws = [None] + [seeded_params(scenario_id, rng) for _ in range(4)]
    if scenario_id == "pd-product":
        draws.append(NO_STATIONARY_POINT)
    for params in draws:
        report = run_scenario(scenario_id, params)
        first = next(iter(report.marginals.values()), None)
        assert (first is None) == (params is NO_STATIONARY_POINT)
        if first is None:
            assert report.bell is None and report.to_dict()["bell"] is None
            continue
        expected = bell_slacks(first)
        assert type(report.bell) is type(expected)
        assert repr(report.bell.slack) == repr(expected.slack)
        assert report.bell.convention_note == expected.convention_note
        assert report.bell.satisfied is expected.satisfied


def test_bell_follows_the_marginals_and_cannot_be_assigned():
    report = run_scenario("pd-ghz")
    parity, conj = report.marginals["parity"], report.marginals["conjunction"]
    assert report.bell == bell_slacks(parity) and not report.bell.satisfied
    report.marginals = {"conjunction": conj, "parity": parity}
    assert report.bell == bell_slacks(conj) and report.bell.satisfied
    assert report.to_dict()["bell"]["satisfied"] is True
    report.marginals = {}
    assert report.bell is None and report.to_dict()["bell"] is None
    with pytest.raises(AttributeError):
        report.bell = bell_slacks(parity)


def assert_plain(value, where: str):
    # np.float64 is a float; no library object, array, tuple or complex.
    assert value is None or isinstance(value, (dict, list, str, bool, int, float)), where
    if isinstance(value, dict):
        for key, item in value.items():
            assert_plain(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_plain(item, f"{where}[{i}]")


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_inputs_and_details_hold_plain_values(scenario_id):
    rng = np.random.default_rng(SCENARIO_IDS.index(scenario_id))
    for params in [None] + [seeded_params(scenario_id, rng) for _ in range(4)]:
        report = run_scenario(scenario_id, params)
        assert_plain(report.inputs, "inputs")
        assert_plain(report.details, "details")


def mutate(value):
    """Change every dict and list inside value in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            mutate(item)
        value["mutated"] = True
    elif isinstance(value, list):
        for item in value:
            mutate(item)
        value.append("mutated")


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_a_report_shares_no_inputs_or_details_with_the_next_run(scenario_id):
    report = run_scenario(scenario_id)
    expected = render_json(report.to_dict())
    mutate(report.inputs)
    mutate(report.details)
    assert render_json(run_scenario(scenario_id).to_dict()) == expected
