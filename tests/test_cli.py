"""Command-line behavior: outputs, formats, exit codes."""

import json

import pytest

import finegames.cli as cli
from finegames import load_schema
from finegames.cli import main
from finegames.equilibrium import MAX_RESOLUTION
from finegames.scenarios import MAX_SCAN_GRID

jsonschema = pytest.importorskip("jsonschema")

GHZ_STATE = {"kind": "ghz"}
PD_GAME = {"kind": "pd3"}
FLAT_GAME = {"kind": "custom", "rows": [[0.0, 0.0, 0.0]] * 8}
PARITY_GHZ = {
    "convention": "parity",
    "lambda": 0.5, "mu": 0.5, "nu": 0.5,
    "p_ab": 1.0, "p_bc": 1.0, "p_ac": 1.0, "xi": 0.5,
}
CONJUNCTION_GHZ = {
    "convention": "conjunction",
    "lambda": 0.5, "mu": 0.5, "nu": 0.5,
    "p_ab": 0.5, "p_bc": 0.5, "p_ac": 0.5, "xi": 0.5,
}
ANTICORRELATED = {
    "convention": "parity",
    "lambda": 0.5, "mu": 0.5, "nu": 0.5,
    "p_ab": 0.0, "p_bc": 0.0, "p_ac": 0.0, "xi": 0.0,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_emits_valid_json(capsys):
    code, out, err = run(capsys, "scenario", "--id", "pd-ghz")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, load_schema("report"))
    assert report["scenario_id"] == "pd-ghz"


def test_scenario_markdown_format(capsys):
    code, out, _ = run(capsys, "scenario", "--id", "coop-classical", "--format", "md")
    assert code == 0
    assert out.startswith("# scenario coop-classical")


def test_scenario_out_file_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["scenario", "--id", "pd-product", "--out", str(first)]) == 0
    assert main(["scenario", "--id", "pd-product", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_scenario_param_overrides(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"resolution": 5}))
    code, out, _ = run(
        capsys, "scenario", "--id", "pd-classical", "--params", "@" + str(params)
    )
    assert code == 0
    assert json.loads(out)["inputs"]["resolution"] == 5
    code, out, _ = run(
        capsys, "scenario", "--id", "pd-classical", "--resolution", "7"
    )
    assert code == 0
    assert json.loads(out)["inputs"]["resolution"] == 7


def test_scenario_rejects_unknown_param(capsys):
    code, _, err = run(capsys, "scenario", "--id", "pd-classical", "--seed", "3")
    assert code == 2
    assert "unknown keys" in err


def test_marginals_subcommand(tmp_path, capsys):
    state = write(tmp_path, "state.json", GHZ_STATE)
    code, out, _ = run(capsys, "marginals", "--state", state, "--convention", "parity")
    assert code == 0
    values = json.loads(out)
    assert values["p_ab"] == pytest.approx(1.0, abs=1e-12)
    assert values["convention"] == "parity"


def test_fine_literal_violation_exits_1(tmp_path, capsys):
    path = write(tmp_path, "m.json", PARITY_GHZ)
    code, out, _ = run(capsys, "fine", "--marginals", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["violated_terms"] == [3, 5, 6]
    assert payload["bell"]["satisfied"] is False
    assert payload["xi_interval"] is None


def test_fine_conjunction_succeeds(tmp_path, capsys):
    path = write(tmp_path, "m.json", CONJUNCTION_GHZ)
    code, out, _ = run(capsys, "fine", "--marginals", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["joint"]["prob"][0] == pytest.approx(0.5)
    assert payload["xi_interval"]["lower"] == pytest.approx(0.5)


def test_fine_xi_rules(tmp_path, capsys):
    relaxed = dict(CONJUNCTION_GHZ, p_ab=0.25, p_bc=0.25, p_ac=0.25, xi=0.2)
    path = write(tmp_path, "m.json", relaxed)
    code, out, _ = run(capsys, "fine", "--marginals", path, "--xi", "lower")
    assert code == 0
    assert json.loads(out)["joint"]["prob"][0] == pytest.approx(0.0, abs=1e-12)


def test_ne_verify_exit_codes(tmp_path, capsys):
    game = write(tmp_path, "game.json", PD_GAME)
    code, out, _ = run(capsys, "ne", "--game", game, "--mode", "verify",
                       "--triple", "0,0,0")
    assert code == 0
    assert json.loads(out)["is_ne"] is True
    code, out, _ = run(capsys, "ne", "--game", game, "--mode", "verify",
                       "--triple", "1,1,1")
    assert code == 1
    assert json.loads(out)["is_ne"] is False


def test_ne_verify_requires_triple(tmp_path, capsys):
    game = write(tmp_path, "game.json", PD_GAME)
    code, _, err = run(capsys, "ne", "--game", game, "--mode", "verify")
    assert code == 2
    assert "--triple" in err


def test_ne_grid(tmp_path, capsys):
    game = write(tmp_path, "game.json", PD_GAME)
    code, out, _ = run(capsys, "ne", "--game", game, "--mode", "grid",
                       "--resolution", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["equilibria"][0]["triple"] == [0.0, 0.0, 0.0]


def test_ne_interior(tmp_path, capsys):
    game = write(tmp_path, "game.json", PD_GAME)
    code, out, _ = run(capsys, "ne", "--game", game, "--mode", "interior")
    assert code == 0
    payload = json.loads(out)
    assert payload["triple"][0] == pytest.approx((2 - 2 ** 0.5) / 2, abs=1e-12)
    flat = write(tmp_path, "flat.json", FLAT_GAME)
    code, out, _ = run(capsys, "ne", "--game", flat, "--mode", "interior")
    assert code == 1
    assert json.loads(out)["triple"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("scenario", "--id", "pd-classical", "--tol", "nan"),
        ("scenario", "--id", "coop-classical", "--tol", "inf"),
        ("ne", "--mode", "grid", "--tol", "nan"),
        ("ne", "--mode", "verify", "--triple", "0,0,0", "--tol", "nan"),
        ("ne", "--mode", "grid", "--tol", "inf"),
    ],
)
def test_non_finite_tolerance_exits_2(tmp_path, capsys, argv):
    if argv[0] == "ne":
        argv += ("--game", write(tmp_path, "game.json", PD_GAME))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "finite positive" in err


def test_invert_marginals_exit_codes(tmp_path, capsys):
    feasible = write(tmp_path, "ok.json", PARITY_GHZ)
    code, out, _ = run(capsys, "invert-marginals", "--marginals", feasible)
    assert code == 0
    assert json.loads(out)["feasible"] is True
    impossible = write(tmp_path, "no.json", ANTICORRELATED)
    code, out, _ = run(capsys, "invert-marginals", "--marginals", impossible)
    assert code == 1
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["negative_indices"]


def test_validation_failures_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "marginals", "--state", str(tmp_path / "missing.json"),
                       "--convention", "parity")
    assert code == 2
    assert "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "fine", "--marginals", str(broken))
    assert code == 2
    assert "not valid JSON" in err

    out_of_range = write(tmp_path, "bad.json", dict(PARITY_GHZ, xi=1.5))
    code, _, err = run(capsys, "fine", "--marginals", out_of_range)
    assert code == 2

    bad_game = write(tmp_path, "badgame.json", {"kind": "chess"})
    code, _, err = run(capsys, "ne", "--game", bad_game, "--mode", "grid")
    assert code == 2
    assert "kind" in err


def test_md_output_to_file(tmp_path, capsys):
    state = write(tmp_path, "state.json", GHZ_STATE)
    out_path = tmp_path / "report.md"
    code = main(["marginals", "--state", state, "--convention", "conjunction",
                 "--out", str(out_path), "--format", "md"])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text().startswith("# marginals")


# Conjunction marginals of the joint [.2, .1, .1, .1, .2, .1, .2, 0] with
# 5e-11 added to lambda: term 7 of the reconstruction and weight 7 of the
# inversion both come out near -5e-11, below the shared 1e-12 floor.
NEAR_BOUNDARY = {
    "convention": "conjunction",
    "lambda": 0.5 + 5e-11, "mu": 0.6, "nu": 0.7,
    "p_ab": 0.3, "p_bc": 0.4, "p_ac": 0.3, "xi": 0.2,
}


def test_fine_and_invert_share_one_feasibility_floor(tmp_path, capsys):
    path = write(tmp_path, "m.json", NEAR_BOUNDARY)
    code, out, _ = run(capsys, "fine", "--marginals", path)
    assert code == 1
    assert json.loads(out)["violated_terms"] == [7]
    code, out, _ = run(capsys, "invert-marginals", "--marginals", path)
    assert code == 1
    assert json.loads(out)["negative_indices"] == [7]


@pytest.mark.parametrize(
    "argv",
    [
        ("scenario", "--id", "coop-quantum", "--params", '{"seed": -1}'),
        ("scenario", "--id", "coop-quantum", "--seed", "-1"),
        ("scenario", "--id", "ghz-bell", "--params", '{"a": [1e200, 0]}'),
        ("scenario", "--id", "pd-ghz", "--params", '{"a": [1e200, 0]}'),
        ("scenario", "--id", "pd-ghz", "--params", '{"b": [1e200, 0]}'),
        ("scenario", "--id", "ghz-bell", "--params", '{"grid": %d}' % (MAX_SCAN_GRID + 1)),
        ("scenario", "--id", "pd-classical", "--resolution", str(MAX_RESOLUTION + 1)),
        ("scenario", "--id", "coop-classical", "--resolution", str(MAX_RESOLUTION + 1)),
        ("scenario", "--id", "pd-w", "--params", '{"c2": [0, 1e200]}'),
        ("ne", "--mode", "grid", "--resolution", str(MAX_RESOLUTION + 1)),
        ("marginals", {"kind": "ghz", "a": 1e200}),
        ("marginals", {"kind": "w", "c2": 1e200, "c3": 0, "c5": 0}),
        ("marginals", {"kind": "pure", "amplitudes": [1e308] * 8}),
        ("scenario", "--id", "coop-quantum", "--params", '{"q1": NaN}'),
        ("scenario", "--id", "coop-quantum", "--params", '{"u": Infinity}'),
    ],
)
def test_out_of_domain_inputs_exit_2(tmp_path, capsys, argv):
    if argv[0] == "ne":
        argv += ("--game", write(tmp_path, "game.json", PD_GAME))
    if argv[0] == "marginals":
        state = write(tmp_path, "s.json", argv[1])
        argv = ("marginals", "--convention", "parity", "--state", state)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "params, name", [('{"q1": NaN}', "params.q1"), ('{"u": Infinity}', "params.u")]
)
def test_non_finite_state_weight_names_its_param(capsys, params, name):
    code, _, err = run(capsys, "scenario", "--id", "coop-quantum", "--params", params)
    assert code == 2
    assert err == f"error: {name}: expected a finite non-negative number\n"


HUGE_GAME = {"kind": "custom", "rows": [[1.7e308, -1.7e308, 1.7e308]] * 8}


@pytest.mark.parametrize(
    "mode", [("grid", "--resolution", "3"), ("interior",), ("verify", "--triple", "0,0,0")]
)
def test_payoff_beyond_bound_exits_2(tmp_path, capsys, mode):
    game = write(tmp_path, "game.json", HUGE_GAME)
    code, out, err = run(capsys, "ne", "--game", game, "--mode", *mode)
    assert code == 2
    assert out == ""
    assert err == "error: a payoff table entry exceeds 1e+150 in magnitude\n"


# Conjunction values near the boundary: terms 3 and 5 of the
# reconstruction come out near -8e-13 and -7e-13, inside the 1e-12
# floor; clipping them to 0 alone left a total of 1 + 1.5e-12.
CLIPPED_TERMS = {
    "convention": "conjunction",
    "lambda": 0.18469580331596774, "mu": 0.36139207710169063,
    "nu": 0.7505658901526856, "p_ab": 0.18469580331667534,
    "p_bc": 0.21178641572962695, "p_ac": 0.035090141944032475,
    "xi": 0.03509014194390409,
}


def test_fine_accepts_terms_clipped_within_the_floor(tmp_path, capsys):
    path = write(tmp_path, "m.json", CLIPPED_TERMS)
    code, out, err = run(capsys, "fine", "--marginals", path)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["joint"]["prob"][3] == 0 and payload["joint"]["prob"][5] == 0
    assert run(capsys, "invert-marginals", "--marginals", path)[0] == 0


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = run(capsys, "scenario", "--id", "pd-ghz")
    assert code == 3
    assert out == ""
    assert err == "error: internal failure: RuntimeError: first line second line\n"
