"""Command-line behavior: outputs, formats, exit codes."""

import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finegames
from finegames import (
    SCENARIO_IDS,
    SCENARIOS,
    JointDistribution,
    MarginalConvention,
    load_schema,
    marginals_from_joint,
    run_scenario,
)
from finegames.cli import main
from finegames.equilibrium import MAX_RESOLUTION
from finegames.scenarios import MAX_SCAN_GRID
from finegames.serialize import MARGINAL_KEYS, STATE_KINDS, marginals_to_dict

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


def test_ne_verify_note_follows_the_tolerance(tmp_path, capsys):
    # Every player gains 2 by defecting from all-cooperate: within a
    # tolerance of 3 that is an equilibrium, and a weak one.
    game = write(tmp_path, "game.json", PD_GAME)
    code, out, _ = run(capsys, "ne", "--game", game, "--mode", "verify",
                       "--triple", "1,1,1", "--tol", "3")
    cert = json.loads(out)
    assert code == 0 and cert["is_ne"] is True
    assert cert["player_slack"] == [-2.0, -2.0, -2.0]
    assert cert["note"] == "weak equilibrium: payoff-neutral deviations for A, B, C"


# sha256 of `ne` JSON output, pinned when the search and the verifier
# still evaluated payoffs in the outcome form; a change that moves a
# byte updates these and lists the moved fields in CHANGES.md.
NE_OUTPUT_SHA256 = [
    ("pd3", ("--mode", "grid", "--resolution", "11"),
     "2d051068cc81f77678bed1685a307cd2493d9160f2d568db689e4ec809cdeeaa"),
    ("pd3", ("--mode", "grid", "--resolution", "61"),
     "392dabc8e14bc445fe1801a282f038786f133705cd9fcf33b63356659c078311"),
    ("coop", ("--mode", "grid", "--resolution", "11"),
     "6e61f65f1803563b58403a1092941814ba5fdcd5d0cefba07833aeab1e7d8ca3"),
    ("coop", ("--mode", "grid", "--resolution", "61"),
     "a1b8109cdd6e63abfac97b4434a5e5ba5d2418899529b30d4657c80b67497383"),
    ("pd3", ("--mode", "interior"),
     "dfa7ed07b0042b9ce0b610000e388a096b8f6de4b92b0121b5f77cf3c524e225"),
    ("pd3", ("--mode", "verify", "--triple", "0,0,0"),
     "aed2d17dd574238dbc28ec1c97d321291afef72d393070530cf1955eb04bacfc"),
    ("pd3", ("--mode", "verify", "--triple", "1,1,1"),
     "6df9ad54d7432dd8ab5c62377cccdab6e9d8b0b10705b7a5d4cd629643042394"),
]


@pytest.mark.parametrize("kind, argv, digest", NE_OUTPUT_SHA256)
def test_ne_outputs_match_pinned_digests(tmp_path, capsys, kind, argv, digest):
    game = write(tmp_path, "game.json", {"kind": kind})
    _, out, _ = run(capsys, "ne", "--game", game, *argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


PURE_STATE = {"kind": "pure", "amplitudes": [0.6, 0, 0, [0.0, 0.48], 0, 0, -0.64, 0]}
# test_fine_xi_rules' set: its xi lies inside the window, off both ends.
RELAXED = dict(CONJUNCTION_GHZ, p_ab=0.25, p_bc=0.25, p_ac=0.25, xi=0.2)

# sha256 of the JSON and the markdown output of every other subcommand
# payload, with its exit code; (argv, input flag, file content).
CLI_OUTPUT_SHA256 = {
    "marginals-conjunction": (
        ("marginals", "--convention", "conjunction"), "--state", PURE_STATE, 0,
        "a60dc454e71070fda60360ba3976d8c8e992023771526f46d26635903ede7bc9",
        "8658efd65891dd68f959c6ae0f8212c826a0334d9b9475b3120e3c2e020be6d5"),
    "marginals-parity": (
        ("marginals", "--convention", "parity"), "--state", PURE_STATE, 0,
        "d8c6f91e9fd38775f5270e08933f3f281f82dbc7d22378f6048ed682838b7734",
        "8be4ab4c32ef7cec79498f6890c35a112b6ddfd54c6d5064c569c0c038416236"),
    "fine-conjunction-ghz": (
        ("fine",), "--marginals", CONJUNCTION_GHZ, 0,
        "53eece601a734d7f614272a197357e409dba12b8871f537c3fddd92219e45bc6",
        "0ac3267b31f017f13ba9c12945dead972d7b9ee142907bb1269975a6415c3c74"),
    "fine-relaxed-given": (
        ("fine", "--xi", "given"), "--marginals", RELAXED, 0,
        "de8f148bb2c4f945762139927a481a1697acbf9c61941740c89f3b42999304af",
        "0ffeb2ae38df1287965127f4f56abf2fe92e1a97154307d2c98c0db924209617"),
    "fine-relaxed-mid": (
        ("fine", "--xi", "mid"), "--marginals", RELAXED, 0,
        "178a00f5d27514d4cf0b4eb3fbf47ee3547589dd583057c4a8e5f1050991904d",
        "35b7eaba872d79d81aee25f6b2f5502364927c3631b29f7eefec76b5bf545446"),
    "fine-relaxed-lower": (
        ("fine", "--xi", "lower"), "--marginals", RELAXED, 0,
        "2c5c8a63234b3746a187b5dd2bf521f60196f862a554180949c8ae0a84c64e4a",
        "442aec76833ba7311f997f1a322f94895bdd912a9717ed7e74eb77586121dbb6"),
    "fine-parity-ghz": (
        ("fine",), "--marginals", PARITY_GHZ, 1,
        "36d8c0f4ac2397be8bdac23f87130019f08f72c276a14f5263d94cb3550af1ff",
        "26ff757bb1345664554ee73a534677e8fab29b295b7681d4d07ce7ba09594cec"),
    "invert-parity-ghz": (
        ("invert-marginals",), "--marginals", PARITY_GHZ, 0,
        "c9c0ba080bfc15319116f9966cdaf1c10c6001526f241f7060f897270b9fda76",
        "651fd313a0e22d374ea64775b55b0a6e452c1f4ff26c883b2301b75018ddf661"),
    "invert-anticorrelated": (
        ("invert-marginals",), "--marginals", ANTICORRELATED, 1,
        "22df7768489a62d33dbc05e5a061c8bb535f1d0489dc4e5337623286f110678e",
        "3a285c853ac51890dfdee43eb3c4508e0afac4ab260c65b5f123e6024a995017"),
    "ne-interior-flat": (
        ("ne", "--mode", "interior"), "--game", FLAT_GAME, 1,
        "489ec86767b89db1337734fe5fd4b2d7e9307ed8a424366c7591c21e409ef0fe",
        "82c9fe6577ec0ba29db91fe97a1e4378fe312b2b350db711932839bac791d337"),
}


@pytest.mark.parametrize("case", CLI_OUTPUT_SHA256)
def test_cli_outputs_match_pinned_digests(tmp_path, capsys, case):
    argv, flag, content, exit_code, *digests = CLI_OUTPUT_SHA256[case]
    path = write(tmp_path, "input.json", content)
    for fmt, digest in zip(("json", "md"), digests):
        code, out, err = run(capsys, *argv, flag, path, "--format", fmt)
        assert (code, err) == (exit_code, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


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


@pytest.mark.parametrize("target", ["missing/report.json", ""], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    # A path under a missing directory, and a directory.
    out_path = str(tmp_path / target)
    code, out, err = run(capsys, "scenario", "--id", "pd-ghz", "--out", out_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --out: cannot write {out_path!r}: ")
    assert err.count("\n") == 1


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
    "argv, message",
    [
        (("scenario", "--id", "pd-w", "--params", "[1]"), "--params: expected a JSON object"),
        (("ne", "--mode", "verify", "--triple", "a,b,c"),
         '--triple: expected "lam,mu,nu" with numeric entries'),
    ],
)
def test_malformed_params_and_triple_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "ne":
        argv += ("--game", write(tmp_path, "game.json", PD_GAME))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


DEEP_JSON = "[" * 5000 + "]" * 5000  # past the decoder's recursion limit
LONG_INT_JSON = '{"seed": %s}' % ("1" * 5000)  # past the interpreter's digit limit


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (("scenario", "--id", "pd-w", "--params", DEEP_JSON), None,
         "--params: not valid JSON: maximum recursion depth exceeded"),
        (("scenario", "--id", "pd-w", "--params", LONG_INT_JSON), None,
         "--params: not valid JSON: Exceeds the limit (4300 digits)"),
        (("scenario", "--id", "pd-w", "--params"), DEEP_JSON.encode(),
         "--params: {path!r} is not valid JSON: maximum recursion depth exceeded"),
        (("marginals", "--convention", "parity", "--state"), DEEP_JSON.encode(),
         "--state: {path!r} is not valid JSON: maximum recursion depth exceeded"),
        (("fine", "--marginals"), DEEP_JSON.encode(),
         "--marginals: {path!r} is not valid JSON: maximum recursion depth exceeded"),
        (("ne", "--mode", "grid", "--game"), DEEP_JSON.encode(),
         "--game: {path!r} is not valid JSON: maximum recursion depth exceeded"),
        (("ne", "--mode", "grid", "--game"), LONG_INT_JSON.encode(),
         "--game: {path!r} is not valid JSON: Exceeds the limit (4300 digits)"),
        (("invert-marginals", "--marginals"), b'{"xi": "\xff"}',
         "--marginals: {path!r} is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (("scenario", "--id", "pd-w", "--params"), b"\xff\xfe{}",
         "--params: {path!r} is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["inline-deep", "inline-long-int", "params-deep", "state-deep", "marginals-deep",
         "game-deep", "game-long-int", "marginals-not-utf8", "params-not-utf8"],
)
def test_undecodable_json_exits_2(tmp_path, capsys, argv, content, message):
    # Bad input every one: a usage error, not an internal failure.
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
        argv += (("@" if argv[-1] == "--params" else "") + str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=str(path)))
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "params, name", [('{"q1": NaN}', "params.q1"), ('{"u": Infinity}', "params.u")]
)
def test_non_finite_state_weight_names_its_param(capsys, params, name):
    code, _, err = run(capsys, "scenario", "--id", "coop-quantum", "--params", params)
    assert code == 2
    assert err == f"error: {name}: expected a finite non-negative number\n"


@pytest.mark.parametrize(
    "scenario_id, params, message",
    [
        ("pd-ghz", '{"a": 0.5, "b": 0.5}', "params: amplitude norm squared is 0.5"),
        ("pd-w", '{"c2": [1, 0.5]}', "params: amplitude norm squared is 1.916"),
        ("pd-continuum", '{"c7": 0}', "params: amplitude norm squared is 0.666"),
        ("coop-quantum", '{"amplitudes": [0, 0, 0, 0, 0, 0, 0, 0]}',
         "params.amplitudes: amplitude norm squared is 0.0,"),
        # Norms within NORMALIZATION_TOL whose marginals leave [0, 1]
        # by more than ZERO_TOL: the marginal error names the state too.
        ("coop-quantum", '{"q1": 0.9999999999012, "u": 1e-10, "v": 0}',
         "params: lam = 1.0000000000011997 outside [0, 1]"),
        ("coop-quantum", '{"amplitudes": [0.9999999999506, 0, 0, 1e-05, 0, 1e-05, 1e-05, 0]}',
         "params.amplitudes: lam = 1.0000000000012 outside [0, 1]"),
        ("ghz-bell", '{"a": [1.0000000002, 0]}', "params.a: lam = 1.0000000004 outside [0, 1]"),
        ("pd-ghz", '{"a": 0.7071067812572582, "b": 0.7071067812572582}',
         "params: p_ab = 1.0000000002 outside [0, 1]"),
        ("pd-continuum", '{"c4": 0.5773502692473608, "c6": 0.5773502692473608, '
         '"c7": 0.5773502692473608}', "params: xi = 1.0000000002 outside [0, 1]"),
    ],
)
def test_amplitude_norm_errors_name_their_param(capsys, scenario_id, params, message):
    code, out, err = run(capsys, "scenario", "--id", scenario_id, "--params", params)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "state, message",
    [
        ({"kind": "ghz", "a": 0.5, "b": 0.5}, "state: amplitude norm squared is 0.5"),
        ({"kind": "w", "c2": 1, "c3": 0.5, "c5": 0}, "state: amplitude norm squared is 1.25"),
        ({"kind": "pd", "c4": 1, "c6": 1, "c7": 0}, "state: amplitude norm squared is 2.0"),
        ({"kind": "pure", "amplitudes": [0] * 8},
         "state.amplitudes: amplitude norm squared is 0.0"),
        ({"kind": "mixed", "weights": [0.5] + [0] * 7},
         "state.weights: mixture weights sum to 0.5"),
        ({"kind": "mixed", "weights": [1.5, -0.5, 0, 0, 0, 0, 0, 0]},
         "state.weights: mixture weights must lie in [0, 1]"),
        ({"kind": "product", "theta": [4, 0, 0]}, "state.theta: theta angles must lie in [0, pi]"),
        ({"kind": "product", "theta": [0, 0, 0], "phi": [0, 7, 0]},
         "state.phi: phi angles must lie in [0, 2*pi)"),
        ({"kind": "product", "theta": [0, 0, 0], "delta": [0, 0, -0.5]},
         "state.delta: delta angles must lie in [0, 2*pi)"),
    ],
)
def test_state_norm_errors_name_their_path(tmp_path, capsys, state, message):
    path = write(tmp_path, "s.json", state)
    code, out, err = run(capsys, "marginals", "--convention", "parity", "--state", path)
    assert (code, out) == (2, "")
    # A norm or a sum is reported with the tolerance it missed.
    tail = "" if "must lie in" in message else ", not 1 within 1e-09"
    assert err == f"error: {message}{tail}\n"


# States accepted within NORMALIZATION_TOL (norm squared 1 + 2e-10 or
# 1 + 4e-10) whose marginals fail the range or Frechet check.
@pytest.mark.parametrize(
    "state, convention, message",
    [
        ({"kind": "ghz", "a": 0.7071067812572582, "b": 0.7071067812572582}, "parity",
         "p_ab = 1.0000000002 outside [0, 1]"),
        ({"kind": "pd", "c4": 0.5773502692473608, "c6": 0.5773502692473608,
          "c7": 0.5773502692473608}, "parity", "xi = 1.0000000002 outside [0, 1]"),
        ({"kind": "w", "c2": 0.5773502692473608, "c3": 0.5773502692473608,
          "c5": 0.5773502692473608}, "conjunction",
         "p_ab = 0.3333333334 below singles overlap bound 0.33333333359999995"),
        ({"kind": "mixed", "weights": [0.5000000004, 0.5, 0, 0, 0, 0, 0, 0]}, "conjunction",
         "lam = 1.0000000004 outside [0, 1]"),
    ],
)
def test_derived_marginal_errors_name_their_path(tmp_path, capsys, state, convention, message):
    path = write(tmp_path, "s.json", state)
    code, out, err = run(capsys, "marginals", "--convention", convention, "--state", path)
    assert (code, out, err) == (2, "", f"error: state: {message}\n")


def test_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(finegames.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "scenario", "--id", "pd-ghz"],
            capture_output=True, env=env, timeout=60,
        )
        for module in ("finegames", "finegames.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != b""
    assert runs[0].stderr == runs[1].stderr == b""


# The modules each command loads besides finegames.cli: a command loads
# only what it runs.
READER_MODULES = {"errors", "qstates", "measurement", "fine", "serialize"}
NE_MODULES = READER_MODULES | {"games", "equilibrium"}
ALL_MODULES = NE_MODULES | {"scenarios"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (None, set()),
        (("fine", "--marginals", "@marginals"), READER_MODULES),
        (("marginals", "--convention", "parity", "--state", "@state"), READER_MODULES),
        (("invert-marginals", "--marginals", "@marginals"), READER_MODULES),
        (("ne", "--mode", "grid", "--game", "@game"), NE_MODULES),
        (("ne", "--mode", "verify", "--triple", "0,0,0", "--game", "@game"), NE_MODULES),
        (("ne", "--mode", "interior", "--game", "@game"), NE_MODULES),
        (("scenario", "--id", "pd-ghz"), ALL_MODULES),
    ],
    ids=["bare-import", "fine", "marginals", "invert-marginals", "ne-grid", "ne-verify",
         "ne-interior", "scenario"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    # A fresh interpreter each: `import finegames` and a private-name
    # probe, which no module exports (argv None), or main(argv) with its
    # report written to a file.
    files = {
        "@marginals": write(tmp_path, "m.json", PARITY_GHZ),
        "@state": write(tmp_path, "s.json", GHZ_STATE),
        "@game": write(tmp_path, "g.json", PD_GAME),
    }
    if argv is not None:
        argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.json")]
        expected = expected | {"cli"}
    script = (
        "import json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is None:\n"
        "    import finegames\n"
        "    assert not hasattr(finegames, '_probe')\n"
        "else:\n"
        "    from finegames.cli import main\n"
        "    assert main(argv) in (0, 1)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('finegames.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(finegames.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, env=env, timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert set(json.loads(done.stdout)) == {f"finegames.{m}" for m in expected}


HUGE_GAME = {"kind": "custom", "rows": [[1.7e308, -1.7e308, 1.7e308]] * 8}


@pytest.mark.parametrize(
    "mode", [("grid", "--resolution", "3"), ("interior",), ("verify", "--triple", "0,0,0")]
)
def test_payoff_beyond_bound_exits_2(tmp_path, capsys, mode):
    game = write(tmp_path, "game.json", HUGE_GAME)
    code, out, err = run(capsys, "ne", "--game", game, "--mode", *mode)
    assert code == 2
    assert out == ""
    assert err == "error: game.rows: a payoff table entry exceeds 1e+150 in magnitude\n"


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

    monkeypatch.setattr(finegames.scenarios, "run_scenario", broken)  # cmd_scenario's import
    code, out, err = run(capsys, "scenario", "--id", "pd-ghz")
    assert code == 3
    assert out == ""
    assert err == "error: internal failure: RuntimeError: first line second line\n"


def test_ne_grid_hit_bound_exits_2(tmp_path, capsys):
    # Each player's payoff ignores their own choice: all 64^3 = 262,144
    # lattice points pass the screen, more than a search certifies.
    others = np.random.default_rng(5).normal(size=(3, 2, 2))
    rows = [
        [float(others[p][tuple(np.delete(bits, p))]) for p in range(3)]
        for bits in itertools.product((0, 1), repeat=3)
    ]
    game = write(tmp_path, "blind.json", {"kind": "custom", "rows": rows})
    code, out, err = run(capsys, "ne", "--game", game, "--mode", "grid", "--resolution", "64")
    assert (code, out) == (2, "")
    assert err == (
        "error: lattice screen passes 262144 points, more than the 250000 "
        "a search certifies; lower the resolution\n"
    )


@pytest.mark.parametrize(
    "levels, message",
    [
        ([1, 1, 1, 1, 1, 1], "dilemma condition failed: lone_defector > all_cooperate"),
        ([7, 9, 3, 0, 1, float("nan")], "dilemma parameters must be finite"),
    ],
)
def test_ne_dilemma_params_errors_name_their_path(tmp_path, capsys, levels, message):
    game = write(tmp_path, "pd.json", {"kind": "pd3", "params": levels})
    code, out, err = run(capsys, "ne", "--game", game, "--mode", "interior")
    assert (code, out, err) == (2, "", f"error: game.params: {message}\n")


def test_ne_interior_asymmetric_table_names_its_path(tmp_path, capsys):
    game = write(tmp_path, "game.json", {"kind": "custom", "rows": [[1, 2, 3]] + [[0, 0, 0]] * 7})
    code, out, err = run(capsys, "ne", "--game", game, "--mode", "interior")
    assert (code, out) == (2, "")
    assert err == "error: game: interior solve needs a player-exchange symmetric payoff table\n"


# Junk for any param: non-finite, huge, negative, bool, string, null,
# nested and wrong-length lists.
FUZZ_JUNK = [
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10 ** 30, -1, -0.5, 0,
    True, False, "x", "", None, {}, {"re": 1}, [], [[0.5, 0.0]], [[[1]]], [0.5],
    [0.5, 0.5, 0.5], [0.1] * 5, [0.1] * 7, [0.1] * 9, [float("nan"), 0.0],
]


def fuzz_value(rng, name):
    """Junk, or a draw near the param's valid range; valid lattices and
    grids stay small (resolution <= 21, grid <= 1001)."""
    if rng.random() < 0.4:
        return FUZZ_JUNK[rng.integers(len(FUZZ_JUNK))]
    if name == "resolution":
        return int(rng.integers(-2, 22))
    if name == "grid":
        return int(rng.integers(-2, 1002))
    if name == "tol":
        return float(10 ** rng.uniform(-14, 3) * rng.choice([1, 1, -1]))
    if name == "seed":
        return int(rng.integers(-3, 2 ** 40))
    if name in ("q1", "u", "v"):
        return float(rng.uniform(-0.02, 0.25))
    if name == "pd_params":
        return (np.array([7, 9, 3, 0, 1, 5]) + rng.normal(0, 0.5, 6)).tolist()
    # A phase turn of a unit-norm default (2**-0.5 for a and b, 3**-0.5
    # for the excitation amplitudes), or a free pair.
    r = 2 ** -0.5 if name in ("a", "b") else 3 ** -0.5
    phases = rng.uniform(0, 2 * np.pi, 3)
    turned = [[r * float(np.cos(p)), r * float(np.sin(p))] for p in phases]
    free = [float(x) for x in rng.uniform(-1.2, 1.2, 2)]
    if name == "amplitudes":
        zero = [0.0, 0.0]
        if rng.random() < 0.5:
            return [zero, zero, zero, turned[0], zero, turned[1], turned[2], zero]
        return [free] * int(rng.integers(0, 10))
    return turned[0] if rng.random() < 0.5 else free if rng.random() < 0.8 else free[0]


def test_scenario_params_fuzz(capsys):
    rng = np.random.default_rng(20261018)
    defaults = {sid: run_scenario(sid).inputs for sid in SCENARIOS}
    codes = set()
    for _ in range(400):
        sid = str(rng.choice(list(SCENARIOS)))
        names = [n for n in SCENARIOS[sid].params if rng.random() < 0.5]
        params = {n: fuzz_value(rng, n) for n in names}
        if rng.random() < 0.05:
            params["bogus"] = 1
        text = json.dumps(params)
        code, out, err = run(capsys, "scenario", "--id", sid, "--params", text)
        codes.add(code)
        assert code in (0, 1, 2), (sid, text, err)
        assert "Traceback" not in err, (sid, text)
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (sid, text)
        else:
            report = json.loads(out)
            assert (report["inputs"] == defaults[sid]) == bool(report["reference"]), (sid, text)
    assert codes == {0, 2}


def spoil(rng, value):
    """value with one entry, at a random depth, replaced by junk."""
    if not isinstance(value, (dict, list)) or not value or rng.random() < 0.25:
        return copy.deepcopy(FUZZ_JUNK[rng.integers(len(FUZZ_JUNK))])
    keys = list(value) if isinstance(value, dict) else range(len(value))
    key = keys[rng.integers(len(keys))]
    value[key] = spoil(rng, value[key])
    return value


def fuzz_state(rng) -> dict:
    """A state descriptor of a random kind: unit norm, weights and angles
    in range, or just off them."""
    kind = str(rng.choice(STATE_KINDS))
    jitter = float(rng.choice([0.0, 0.0, 1e-10, 1e-3]))
    if kind == "mixed":
        return {"kind": kind, "weights": (rng.dirichlet(np.ones(8)) + jitter).tolist()}
    if kind == "product":
        tops = {"theta": np.pi, "phi": 2 * np.pi, "delta": 2 * np.pi}
        angles = {k: rng.uniform(-jitter, top, 3).tolist() for k, top in tops.items()}
        return {"kind": kind, **angles}
    keys = {"ghz": ["a", "b"], "w": ["c2", "c3", "c5"], "pd": ["c4", "c6", "c7"]}.get(kind)
    n = 8 if keys is None else len(keys)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    pairs = [[float(c.real), float(c.imag)] for c in z / np.linalg.norm(z) * (1 + jitter)]
    if keys is None:
        return {"kind": kind, "amplitudes": pairs}
    return {"kind": kind, **dict(zip(keys, pairs))}


def fuzz_game(rng) -> dict:
    kind = str(rng.choice(["pd3", "pd3", "coop", "custom"]))
    if kind == "custom":
        return {"kind": kind, "rows": rng.normal(size=(8, 3)).tolist()}
    if kind == "pd3" and rng.random() < 0.5:
        levels = np.array([7, 9, 3, 0, 1, 5]) + rng.normal(0, 0.5, 6)
        return {"kind": kind, "params": levels.tolist()}
    return {"kind": kind}


def fuzz_marginals(rng) -> dict:
    """The marginals of a random joint, one value sometimes moved off."""
    joint = JointDistribution(rng.dirichlet(np.ones(8)))
    desc = marginals_to_dict(marginals_from_joint(joint, rng.choice(list(MarginalConvention))))
    if rng.random() < 0.5:
        desc[str(rng.choice(MARGINAL_KEYS))] += float(rng.normal(0, 0.05))
    return desc


def test_file_subcommands_fuzz(tmp_path, capsys):
    rng = np.random.default_rng(20261019)
    path = tmp_path / "input.json"
    codes = set()
    for _ in range(600):
        command = str(rng.choice(["marginals", "fine", "invert-marginals", "ne"]))
        if command == "marginals":
            desc = fuzz_state(rng)
            convention = str(rng.choice(["parity", "conjunction"]))
            argv = ["--state", str(path), "--convention", convention]
        elif command == "ne":
            desc = fuzz_game(rng)
            mode = str(rng.choice(["verify", "grid", "interior"]))
            argv = ["--game", str(path), "--mode", mode]
            if mode == "verify":
                triple = ",".join(f"{x:.3g}" for x in rng.uniform(0, 1, 3))
                junk = ["0,0,0", "1,1,1", "2,0,0", "0,-1e-9,0", "nan,0,0", "x", "1,2"]
                argv.append("--triple=" + str(rng.choice([triple] * 3 + junk)))
            if mode == "grid":
                argv.append(f"--resolution={rng.integers(-2, 22)}")
            if rng.random() < 0.3:
                tol = 10 ** rng.uniform(-14, 3) * rng.choice([1, 1, -1])
                argv.append("--tol=" + str(rng.choice([str(tol), "0", "nan", "inf"])))
        else:
            desc = fuzz_marginals(rng)
            argv = ["--marginals", str(path)]
            if command == "fine":
                argv += ["--xi", str(rng.choice(["given", "mid", "lower"]))]
        if rng.random() < 0.1:
            desc.pop(str(rng.choice(list(desc))))
        if rng.random() < 0.05:
            desc["bogus"] = 1
        if rng.random() < 0.4:
            desc = spoil(rng, desc)
        text = json.dumps(desc)
        path.write_text(text)
        code, out, err = run(capsys, command, *argv)
        codes.add(code)
        assert code in (0, 1, 2), (command, argv, text, err)
        assert "Traceback" not in err, (command, argv, text)
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (argv, text)
        else:
            json.loads(out)
    assert codes == {0, 1, 2}


# A JSON integer too large for a float; a JSON 1e400 reads as inf.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "ghz", "a": %s}' % HUGE, "state.a: integer too large for a float"),
        ('{"kind": "w", "c2": [0, -%s], "c3": 0, "c5": 0}' % HUGE,
         "state.c2[1]: integer too large for a float"),
        ('{"kind": "mixed", "weights": [0, 0, 0, 0, 0, 0, 0, %s]}' % HUGE,
         "state.weights[7]: integer too large for a float"),
        ('{"kind": "mixed", "weights": [1e400, 0, 0, 0, 0, 0, 0, 0]}',
         "state.weights[0]: expected a finite number"),
        ('{"kind": "product", "theta": [0, -1e400, 0]}', "state.theta[1]: expected a finite number"),
        ('{"kind": "product", "theta": [0, 0, 0], "phi": [0, 0, 1e400]}',
         "state.phi[2]: expected a finite number"),
        ('{"kind": "product", "theta": [0, 0, 0], "delta": [%s, 0, 0]}' % HUGE,
         "state.delta[0]: integer too large for a float"),
    ],
)
def test_huge_and_non_finite_state_numbers_name_their_path(tmp_path, capsys, text, message):
    path = tmp_path / "s.json"
    path.write_text(text)
    code, out, err = run(capsys, "marginals", "--convention", "parity", "--state", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scenario", "--id", "pd-ghz", "--params", '{"a": %s}' % HUGE),
         "params.a: integer too large for a float"),
        (("scenario", "--id", "pd-classical", "--params", '{"pd_params": [7, 9, 3, 0, 1, %s]}' % HUGE),
         "params.pd_params[5]: integer too large for a float"),
        (("scenario", "--id", "pd-classical", "--params", '{"tol": %s}' % HUGE),
         "params.tol: expected a finite positive number"),
        (("scenario", "--id", "coop-quantum", "--params", '{"v": %s}' % HUGE),
         "params.v: expected a finite non-negative number"),
        (("ne", "--mode", "interior", "--game", '{"kind": "pd3", "params": [7, 9, 3, 0, 1, %s]}' % HUGE),
         "game.params[5]: integer too large for a float"),
        (("fine", "--marginals", '{"convention": "parity", "lambda": %s}' % HUGE),
         "marginals.lambda: integer too large for a float"),
        (("fine", "--marginals", '{"convention": "parity", "lambda": 1e400}'),
         "marginals.lambda: expected a finite number"),
        (("fine", "--marginals", '{"convention": "parity", "lambda": 0.5, "mu": NaN}'),
         "marginals.mu: expected a finite number"),
        (("fine", "--marginals", json.dumps({**CONJUNCTION_GHZ, "lambda": 0.4, "p_ab": 0.45})),
         "marginals: p_ab = 0.45 exceeds min of its singles 0.4"),
        (("ne", "--mode", "grid", "--game",
          '{"kind": "custom", "rows": [[1e400, 0, 0]%s]}' % (", [0, 0, 0]" * 7)),
         "game.rows[0][0]: expected a finite number"),
        (("ne", "--mode", "verify", "--triple", "2,0,0", "--game", '{"kind": "pd3"}'),
         "--triple: strategy lam = 2.0 outside [0, 1]"),
        (("ne", "--mode", "grid", "--tol", "0", "--game", '{"kind": "pd3"}'),
         "--tol: expected a finite positive number"),
    ],
)
def test_huge_integer_params_exit_2(tmp_path, capsys, argv, message):
    if argv[0] != "scenario":
        path = tmp_path / "input.json"
        path.write_text(argv[-1])
        argv = argv[:-1] + (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "file_argv, descriptor, params_argv, paths, message",
    [
        (("ne", "--mode", "interior", "--game"), {"kind": "pd3", "params": [7, 9]},
         ("scenario", "--id", "pd-classical", "--params", '{"pd_params": [7, 9]}'),
         ("game.params", "params.pd_params"), "expected a list of 6 payoff levels"),
        (("ne", "--mode", "interior", "--game"),
         {"kind": "pd3", "params": [7e150, 9e150, 3e150, 0, 1e150, 5e150]},
         ("scenario", "--id", "pd-product", "--params",
          '{"pd_params": [7e150, 9e150, 3e150, 0, 1e150, 5e150]}'),
         ("game.params", "params.pd_params"), "a payoff table entry exceeds 1e+150 in magnitude"),
        (("marginals", "--convention", "parity", "--state"), {"kind": "pure", "amplitudes": [1]},
         ("scenario", "--id", "coop-quantum", "--params", '{"amplitudes": [1]}'),
         ("state.amplitudes", "params.amplitudes"), "expected a list of 8 entries"),
        (("ne", "--mode", "grid", "--resolution", "1", "--game"), {"kind": "pd3"},
         ("scenario", "--id", "pd-classical", "--resolution", "1"),
         ("--resolution", "params.resolution"), f"must be between 2 and {MAX_RESOLUTION}"),
    ],
    ids=["pd3-levels", "pd3-beyond-max-payoff", "amplitudes", "resolution"],
)
def test_one_fault_reads_the_same_through_both_channels(
    tmp_path, capsys, file_argv, descriptor, params_argv, paths, message
):
    # A descriptor file (or an ne flag) and a scenario param carry the
    # same value to the same reader, which names only a different path.
    from_file = run(capsys, *file_argv, write(tmp_path, "input.json", descriptor))
    from_params = run(capsys, *params_argv)
    for (code, out, err), path in zip((from_file, from_params), paths):
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def run_catching_exit(capsys, argv):
    """run, with an argparse exit read as its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--help"], ["ne", "-h"], ["scenario", "-h"]])
def test_help_still_exits_0(capsys, argv):
    code, out, err = run_catching_exit(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: finegames")


def test_scenario_ids_reach_the_help_and_the_id_check(monkeypatch, capsys):
    # The parser reads the ids from the scenarios module when it needs
    # them: the help names every one, and an unknown id is one usage
    # line that lists them.
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapped help lines
    code, out, _ = run_catching_exit(capsys, ["scenario", "-h"])
    assert code == 0
    assert " --id ID " in out
    assert " scenario to run: " + ", ".join(SCENARIO_IDS) + "\n" in out
    code, out, err = run(capsys, "scenario", "--id", "bogus")
    choices = ", ".join(map(repr, SCENARIO_IDS))
    assert (code, out) == (2, "")
    assert err == f"error: argument --id: invalid choice: 'bogus' (choose from {choices})\n"


def test_random_argv_fuzz(tmp_path, capsys):
    """Seeded random argv: subcommands, flags of the right or a wrong
    subcommand, files and junk values. Lattices stay at resolution 21 or
    below, and no token reaches --help."""
    rng = np.random.default_rng(20261020)
    missing = str(tmp_path / "missing.json")
    state = write(tmp_path, "state.json", GHZ_STATE)
    game = write(tmp_path, "game.json", PD_GAME)
    marginals = write(tmp_path, "marginals.json", CONJUNCTION_GHZ)
    parity = write(tmp_path, "parity.json", PARITY_GHZ)
    junk_file = write(tmp_path, "junk.json", [1, 2])
    params = write(tmp_path, "params.json", {"resolution": 5})
    values = {
        "--id": list(SCENARIOS) + ["pd", ""],
        "--params": ["@" + params, '{"resolution": 3}', '{"seed": 1}', "{", "[]", "@" + missing],
        "--tol": ["1e-9", "3", "0", "-1", "nan", "x", ""],
        "--resolution": ["1", "2", "5", "21", "-3", "1.5", "x"],
        "--seed": ["0", "7", "-1", "1.5"],
        "--out": [str(tmp_path / "out.json"), str(tmp_path), str(tmp_path / "no" / "out.json")],
        "--format": ["json", "md", "xml"],
        "--state": [state, junk_file, game, missing],
        "--convention": ["parity", "conjunction", "both"],
        "--marginals": [marginals, parity, junk_file, state, missing],
        "--xi": ["given", "mid", "lower", "upper"],
        "--game": [game, junk_file, marginals, missing],
        "--mode": ["verify", "grid", "interior", "exact"],
        "--triple": ["0,0,0", "1,1,1", "0.5,2,0", "x", "1,2"],
    }
    output = ["--out", "--format"]
    commands = {
        "scenario": (["--id"], ["--params", "--tol", "--resolution", "--seed", *output]),
        "marginals": (["--state", "--convention"], output),
        "fine": (["--marginals"], ["--xi", *output]),
        "ne": (["--game", "--mode"], ["--triple", "--resolution", "--tol", *output]),
        "invert-marginals": (["--marginals"], output),
    }
    junk = ["", "x", "-1", "--bogus", "-x", "--", "--tol=", "a\nb", "@", "--mode=grid"]

    def pick(options):
        return str(options[rng.integers(len(options))])

    codes = set()
    for _ in range(400):
        command = pick(list(commands) + ["bogus"])
        required, optional = commands.get(command, ([], list(values)))
        argv = [command] if rng.random() < 0.95 else []
        flags = required if rng.random() < 0.7 else []
        flags = flags + [
            pick(optional + required) if rng.random() < 0.8 else pick(list(values))
            for _ in range(rng.integers(0, 4))
        ]
        for flag in flags:
            draw = rng.random()
            if draw < 0.8:
                argv += [flag, pick(values[flag])]
            elif draw < 0.9:
                argv.append(f"{flag}={pick(values[flag])}")
            else:
                argv.append(flag)
            if rng.random() < 0.05:
                argv.append(pick(junk))
        code, out, err = run_catching_exit(capsys, argv)
        codes.add(code)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    assert codes == {0, 1, 2}
