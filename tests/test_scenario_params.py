"""Scenario params: pinned error messages, the reference-row rule and
the README's accepted-params column."""

import json
import re
from pathlib import Path

import pytest

import finegames.scenarios as scenarios
from finegames import SCENARIO_IDS, SCENARIOS, run_scenario
from finegames.errors import FinegamesError

ROOT_HALF = 2.0 ** -0.5
ROOT_THIRD = 3.0 ** -0.5

ACCEPTED_PARAMS = {
    "pd-classical": ("pd_params", "resolution", "tol"),
    "pd-ghz": ("a", "b", "pd_params"),
    "ghz-bell": ("a", "grid"),
    "pd-product": ("pd_params",),
    "pd-w": ("c2", "c3", "c5", "pd_params"),
    "pd-continuum": ("c4", "c6", "c7", "pd_params"),
    "coop-classical": ("resolution", "tol"),
    "coop-quantum": ("amplitudes", "q1", "u", "v", "seed"),
}

# Error type and message for one param moved alone to a bad value (JSON
# text, so NaN and Infinity read as Python's JSON reader reads them),
# the same in every scenario that accepts the param. Captured from the
# per-scenario parsers these messages were first written for; a change
# that moves one lists it in CHANGES.md.
PARAM_ERRORS = {
    "pd_params": [
        ('"x"', 'ParamError', 'params.pd_params: expected a list of 6 payoff levels'),
        ('true', 'ParamError', 'params.pd_params: expected a list of 6 payoff levels'),
        ('[[0.5]]', 'ParamError', 'params.pd_params: expected a list of 6 payoff levels'),
        ('null', 'ParamError', 'params.pd_params: expected a list of 6 payoff levels'),
        ('[7, 9, 3, 0, 1]', 'ParamError', 'params.pd_params: expected a list of 6 payoff levels'),
        ('[7, 9, 3, 0, 1, "x"]', 'ParamError', 'params.pd_params[5]: expected a number'),
        ('[7, 9, 3, 0, 1, true]', 'ParamError', 'params.pd_params[5]: expected a number'),
        ('[7, 9, 3, 0, 1, NaN]', 'ParamError', 'params.pd_params: dilemma parameters must be finite'),
        ('[7, 9, 3, 0, 1, -Infinity]', 'ParamError', 'params.pd_params: dilemma parameters must be finite'),
        ('[1, 1, 1, 1, 1, 1]', 'ParamError', 'params.pd_params: dilemma condition failed: lone_defector > all_cooperate'),
        ('[7, 9, 3, 0, 1, -5]', 'ParamError', 'params.pd_params: dilemma condition failed: duo_defector > duo_cooperator'),
    ],
    "resolution": [
        ('"x"', 'ParamError', 'params.resolution: expected an integer'),
        ('true', 'ParamError', 'params.resolution: expected an integer'),
        ('[[0.5]]', 'ParamError', 'params.resolution: expected an integer'),
        ('NaN', 'ParamError', 'params.resolution: expected an integer'),
        ('null', 'ParamError', 'params.resolution: expected an integer'),
        ('11.0', 'ParamError', 'params.resolution: expected an integer'),
        ('1', 'ParamError', 'params.resolution: must be between 2 and 290'),
        ('291', 'ParamError', 'params.resolution: must be between 2 and 290'),
        ('-5', 'ParamError', 'params.resolution: must be between 2 and 290'),
        ('1e300', 'ParamError', 'params.resolution: expected an integer'),
    ],
    "tol": [
        ('"x"', 'ParamError', 'params.tol: expected a finite positive number'),
        ('true', 'ParamError', 'params.tol: expected a finite positive number'),
        ('[[0.5]]', 'ParamError', 'params.tol: expected a finite positive number'),
        ('NaN', 'ParamError', 'params.tol: expected a finite positive number'),
        ('Infinity', 'ParamError', 'params.tol: expected a finite positive number'),
        ('-Infinity', 'ParamError', 'params.tol: expected a finite positive number'),
        ('null', 'ParamError', 'params.tol: expected a finite positive number'),
        ('0', 'ParamError', 'params.tol: expected a finite positive number'),
        ('-1e-9', 'ParamError', 'params.tol: expected a finite positive number'),
        ('[1e-9]', 'ParamError', 'params.tol: expected a finite positive number'),
    ],
    "a": [
        ('"x"', 'ParamError', 'params.a: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.a: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.a: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.a: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.a[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.a: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params.a: |a|^2 exceeds 1'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.a: expected a number or an [re, im] pair'),
    ],
    "b": [
        ('"x"', 'ParamError', 'params.b: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.b: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.b: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('[NaN, 0]', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.b[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.b: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.7500000000000004, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.b: expected a number or an [re, im] pair'),
    ],
    "grid": [
        ('"x"', 'ParamError', 'params.grid: expected an integer'),
        ('true', 'ParamError', 'params.grid: expected an integer'),
        ('[[0.5]]', 'ParamError', 'params.grid: expected an integer'),
        ('NaN', 'ParamError', 'params.grid: expected an integer'),
        ('null', 'ParamError', 'params.grid: expected an integer'),
        ('101.0', 'ParamError', 'params.grid: expected an integer'),
        ('1', 'ParamError', 'params.grid: must be between 2 and 100001'),
        ('100002', 'ParamError', 'params.grid: must be between 2 and 100001'),
        ('-5', 'ParamError', 'params.grid: must be between 2 and 100001'),
        ('1e300', 'ParamError', 'params.grid: expected an integer'),
    ],
    "c2": [
        ('"x"', 'ParamError', 'params.c2: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c2: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c2: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c2: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c2[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c2: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.9166666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c2: expected a number or an [re, im] pair'),
    ],
    "c3": [
        ('"x"', 'ParamError', 'params.c3: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c3: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c3: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c3: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c3[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c3: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.9166666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c3: expected a number or an [re, im] pair'),
    ],
    "c5": [
        ('"x"', 'ParamError', 'params.c5: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c5: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c5: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c5: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c5[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c5: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.916666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c5: expected a number or an [re, im] pair'),
    ],
    "c4": [
        ('"x"', 'ParamError', 'params.c4: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c4: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c4: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c4: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c4[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c4: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.916666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c4: expected a number or an [re, im] pair'),
    ],
    "c6": [
        ('"x"', 'ParamError', 'params.c6: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c6: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c6: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c6: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c6[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c6: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.9166666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c6: expected a number or an [re, im] pair'),
    ],
    "c7": [
        ('"x"', 'ParamError', 'params.c7: expected a number or an [re, im] pair'),
        ('true', 'ParamError', 'params.c7: expected a number or an [re, im] pair'),
        ('[[0.5]]', 'ParamError', 'params.c7: expected a number or an [re, im] pair'),
        ('NaN', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('Infinity', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('null', 'ParamError', 'params.c7: expected a number or an [re, im] pair'),
        ('[NaN, 0]', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('[0, -Infinity]', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('["x", 0]', 'ParamError', 'params.c7[0]: expected a number'),
        ('[1e200, 0]', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('[0, -1e200]', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('1.5', 'ParamError', 'params.c7: expected components of modulus at most 1'),
        ('[1.0, 0.5]', 'ParamError', 'params: amplitude norm squared is 1.9166666666666667, not 1 within 1e-09'),
        ('[0.5, 0.5, 0.5]', 'ParamError', 'params.c7: expected a number or an [re, im] pair'),
    ],
    "amplitudes": [
        ('"x"', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('true', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('7', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('{"re": 1}', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('[[1, 0]]', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]', 'ParamError', 'params.amplitudes: expected a list of 8 entries'),
        ('[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], "x"]', 'ParamError', 'params.amplitudes[7]: expected a number or an [re, im] pair'),
        ('[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [NaN, 0]]', 'ParamError', 'params.amplitudes[7]: expected components of modulus at most 1'),
        ('[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [2, 0]]', 'ParamError', 'params.amplitudes[7]: expected components of modulus at most 1'),
        ('[[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]', 'ParamError', 'params.amplitudes: amplitude norm squared is 0.0, not 1 within 1e-09'),
        ('[[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]', 'ParamError', 'params.amplitudes: |c2|^2, |c3|^2, |c5|^2 must be equal'),
        ('[[0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]', 'ParamError', 'params.amplitudes: |c4|^2, |c6|^2, |c7|^2 must be equal'),
        ('[[0, 0], [0.6, 0], [0, 0], [0.8, 0], [0, 0], [0, 0], [0, 0], [0, 0]]', 'ParamError', 'params.amplitudes: |c4|^2, |c6|^2, |c7|^2 must be equal'),
    ],
    "q1": [
        ('"x"', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('true', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('[[0.5]]', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('NaN', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('Infinity', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('-Infinity', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('null', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('-1', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('-1e-300', 'ParamError', 'params.q1: expected a finite non-negative number'),
        ('1e300', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
        ('0.5', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
    ],
    "u": [
        ('"x"', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('true', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('[[0.5]]', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('NaN', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('Infinity', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('-Infinity', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('null', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('-1', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('-1e-300', 'ParamError', 'params.u: expected a finite non-negative number'),
        ('1e300', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
        ('0.5', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
    ],
    "v": [
        ('"x"', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('true', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('[[0.5]]', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('NaN', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('Infinity', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('-Infinity', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('null', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('-1', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('-1e-300', 'ParamError', 'params.v: expected a finite non-negative number'),
        ('1e300', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
        ('0.5', 'ParamError', 'params: q1 + 3*u + 3*v exceeds 1'),
    ],
    "seed": [
        ('"x"', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('true', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('[[0.5]]', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('NaN', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('null', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('-1', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('1.5', 'ParamError', 'params.seed: expected a non-negative integer'),
        ('1e300', 'ParamError', 'params.seed: expected a non-negative integer'),
    ],
}

UNKNOWN_KEYS = {
    "pd-classical": "allowed: ['pd_params', 'resolution', 'tol']",
    "pd-ghz": "allowed: ['a', 'b', 'pd_params']",
    "ghz-bell": "allowed: ['a', 'grid']",
    "pd-product": "allowed: ['pd_params']",
    "pd-w": "allowed: ['c2', 'c3', 'c5', 'pd_params']",
    "pd-continuum": "allowed: ['c4', 'c6', 'c7', 'pd_params']",
    "coop-classical": "allowed: ['resolution', 'tol']",
    "coop-quantum": "allowed: ['amplitudes', 'q1', 'seed', 'u', 'v']",
}

COMBINED_ERRORS = [
    ("coop-quantum", '{"q1": 0.5, "u": 0.2, "v": 0.2}', "ParamError",
     "params: q1 + 3*u + 3*v exceeds 1"),
    ("coop-quantum", '{"u": 0.1, "v": 0.3}', "ParamError",
     "params: q1 + 3*u + 3*v exceeds 1"),
    ("pd-ghz", '{"a": [1.0, 0.5], "b": [0, 0]}', "ParamError",
     "params: amplitude norm squared is 1.2500000000000002, not 1 within 1e-09"),
    ("pd-ghz", '{"a": 0.5, "b": 0.5}', "ParamError",
     "params: amplitude norm squared is 0.5, not 1 within 1e-09"),
]


def outcome(scenario_id, params):
    with pytest.raises(FinegamesError) as info:
        run_scenario(scenario_id, params)
    return type(info.value).__name__, str(info.value)


def test_pinned_errors_cover_every_param():
    accepted = {name for names in ACCEPTED_PARAMS.values() for name in names}
    assert set(PARAM_ERRORS) == accepted
    assert sorted(ACCEPTED_PARAMS) == sorted(SCENARIO_IDS)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_param_errors_keep_their_messages(scenario_id):
    for name in ACCEPTED_PARAMS[scenario_id]:
        for text, kind, message in PARAM_ERRORS[name]:
            got = outcome(scenario_id, {name: json.loads(text)})
            assert got == (kind, message), (name, text)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_unknown_keys_keep_their_message(scenario_id):
    assert outcome(scenario_id, {"unknown": 0, "extra": 1}) == (
        "ParamError",
        f"params: unknown keys ['extra', 'unknown'] for scenario {scenario_id!r}; "
        + UNKNOWN_KEYS[scenario_id],
    )


# dict() would take a list of pairs, and fail on other values with a
# bare TypeError or ValueError.
@pytest.mark.parametrize("params", [[1, 2], "abc", [("tol", 1e-9)], (), 0, False])
def test_params_must_be_an_object(params):
    assert outcome("pd-classical", params) == ("ParamError", "params: expected an object")


@pytest.mark.parametrize("scenario_id, text, kind, message", COMBINED_ERRORS)
def test_combined_param_errors_keep_their_messages(scenario_id, text, kind, message):
    assert outcome(scenario_id, json.loads(text)) == (kind, message)


# Each param moved alone off its default: the report carries no
# reference rows and no paper_deviation.
OFF_DEFAULT = {
    "pd_params": [8, 10, 3, 0, 1, 5],
    "resolution": 7,
    "tol": 1e-6,
    "a": [0.6, 0.0],
    "b": [ROOT_HALF, 0.0],
    "grid": 11,
    "c2": [ROOT_THIRD + 1e-13, 0.0],
    "c3": [0.0, ROOT_THIRD],
    "c5": [0.0, -ROOT_THIRD],
    "c4": [ROOT_THIRD + 1e-13, 0.0],
    "c6": [0.0, ROOT_THIRD],
    "c7": [0.0, -ROOT_THIRD],
    "amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [ROOT_THIRD, 0.0],
                   [0.0, 0.0], [0.0, ROOT_THIRD], [ROOT_THIRD, 0.0], [0.0, 0.0]],
    "q1": 0.125 + 2e-16,
    "u": 0.1,
    "v": 0.1,
    "seed": 1,
}

# Inputs whose rows the earlier per-scenario rules kept (tol and seed
# ignored, amplitudes within 1e-12, weights within 1e-15) and the one
# exact rule drops: their echo differs from the defaults' echo. The
# default b is complementary_amplitude(2**-0.5) = 0.7071067811865475,
# one ulp below 2**-0.5.
ROWS_DROPPED = [
    ("pd-classical", {"tol": 1e-6}),
    ("coop-classical", {"tol": 1e-6}),
    ("coop-quantum", {"seed": 1}),
    ("coop-quantum", {"q1": 0.125 + 2e-16}),
    ("pd-ghz", {"a": [ROOT_HALF + 1e-13, 0.0]}),
    ("ghz-bell", {"a": [ROOT_HALF + 1e-13, 0.0]}),
    ("pd-w", {"c2": [ROOT_THIRD + 1e-13, 0.0]}),
    ("pd-continuum", {"c4": [ROOT_THIRD + 1e-13, 0.0]}),
    ("pd-ghz", {"b": [ROOT_HALF, 0.0]}),
]

# Spellings of the default values: the echo, and so the rows, stay.
ROWS_KEPT = [
    ("pd-ghz", {"a": ROOT_HALF}),
    ("ghz-bell", {"a": ROOT_HALF}),
    ("pd-ghz", {"b": [0.7071067811865475, 0.0]}),
    ("pd-ghz", {"pd_params": [7, 9, 3, 0, 1, 5]}),
    ("pd-classical", {"pd_params": [7, 9, 3, 0, 1, 5], "resolution": 11, "tol": 1e-9}),
    ("pd-w", {"c2": ROOT_THIRD, "c3": [ROOT_THIRD, 0], "pd_params": [7, 9, 3, 0, 1, 5]}),
    ("pd-continuum", {"c7": ROOT_THIRD}),
    ("coop-quantum", {"amplitudes": None, "q1": 0.125, "seed": 0}),
]


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_reference_rows_attach_only_at_the_defaults(scenario_id):
    assert run_scenario(scenario_id).reference
    for name in ACCEPTED_PARAMS[scenario_id]:
        report = run_scenario(scenario_id, {name: OFF_DEFAULT[name]})
        assert report.reference == [] and report.paper_deviation is None, name


@pytest.mark.parametrize("scenario_id, params", ROWS_DROPPED)
def test_inputs_near_the_defaults_drop_reference_rows(scenario_id, params):
    report = run_scenario(scenario_id, params)
    assert report.reference == [] and report.paper_deviation is None


@pytest.mark.parametrize("scenario_id, params", ROWS_KEPT)
def test_default_spellings_keep_reference_rows(scenario_id, params):
    report = run_scenario(scenario_id, params)
    default = run_scenario(scenario_id)
    assert report.to_dict() == default.to_dict()


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_defaults_are_parsed_once_and_carry_nothing_between_calls(scenario_id):
    scenarios._defaults.cache_clear()
    name = ACCEPTED_PARAMS[scenario_id][0]
    moved = run_scenario(scenario_id, {name: OFF_DEFAULT[name]})
    assert moved.reference == [] and moved.paper_deviation is None
    default = run_scenario(scenario_id)
    spelled = run_scenario(scenario_id, json.loads(json.dumps(default.inputs)))
    assert default.reference and spelled.to_dict() == default.to_dict()
    assert scenarios._defaults.cache_info().misses == 1


def readme_accepted_params() -> dict[str, list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[2])
    return rows


def test_readme_lists_each_scenarios_params_in_spec_order():
    expected = {sid: list(spec.params) for sid, spec in SCENARIOS.items()}
    assert readme_accepted_params() == expected
    assert {sid: list(names) for sid, names in ACCEPTED_PARAMS.items()} == expected
