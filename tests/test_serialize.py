"""Wire formats: loaders, deterministic JSON, markdown."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finegames import (
    DEFAULT_PD_PARAMS,
    BellReport,
    CoalitionReduction,
    CoalitionValue,
    JointDistribution,
    MarginalConvention,
    MarginalSet,
    NeCertificate,
    ParamError,
    PdParams,
    StrategyTriple,
    WeightInversion,
    XiInterval,
    XiRule,
    bell_slacks,
    coalition_analysis,
    coalition_reduction,
    coop_game,
    density_from_pure,
    extract_marginals,
    ghz,
    load_game,
    load_marginals,
    load_schema,
    load_state,
    pd3,
    reconstruct_joint,
    render_json,
    render_markdown,
    state_density,
    verify_ne_factorizable,
    weights_from_marginals,
    xi_interval,
)
from finegames.serialize import (
    _WRITERS,
    bell_to_dict,
    certificate_to_dict,
    coalition_reduction_to_dict,
    complex_pair,
    format_float,
    interval_to_dict,
    inversion_to_dict,
    joint_to_dict,
    marginals_to_dict,
    parse_complex,
    to_wire,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trips(x):
    assert float(format_float(x)) == x


def test_float_formatting_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_render_json_is_deterministic_and_ordered():
    payload = {"b": 1.0, "a": [True, None, 0.5], "nested": {"z": 1, "y": 2}}
    text = render_json(payload)
    assert text == render_json(payload)
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == {
        "b": 1.0,
        "a": [True, None, 0.5],
        "nested": {"z": 1, "y": 2},
    }


def test_render_json_handles_numpy_scalars():
    payload = {"x": np.float64(0.25), "v": np.arange(3), "flag": np.bool_(True)}
    parsed = json.loads(render_json(payload))
    assert parsed == {"x": 0.25, "v": [0, 1, 2], "flag": True}


def test_parse_complex_accepts_number_and_pair():
    assert parse_complex(0.5, "z") == complex(0.5, 0.0)
    assert parse_complex([0.5, -0.25], "z") == complex(0.5, -0.25)
    for too_large in (1.5, [0.0, -1e200], [float("inf"), 0.0], [float("nan"), 0.0]):
        with pytest.raises(ParamError, match="modulus at most 1"):
            parse_complex(too_large, "z")
    with pytest.raises(ParamError):
        parse_complex("half", "z")
    with pytest.raises(ParamError):
        parse_complex([1.0], "z")


def test_load_state_pure_and_mixed():
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    state = load_state({"kind": "pure", "amplitudes": amps})
    assert state.probabilities()[0] == pytest.approx(1.0)
    mixed = load_state({"kind": "mixed", "weights": [0.125] * 8})
    assert np.allclose(state_density(mixed).diagonal(), 0.125)
    with pytest.raises(ParamError, match="^state: expected a PureState or DiagonalMixedState$"):
        state_density(object())


def test_load_state_ghz_defaults_complete_the_norm():
    state = load_state({"kind": "ghz", "a": 0.6})
    q = state.probabilities()
    assert q[0] == pytest.approx(0.36, abs=1e-12)
    assert q[7] == pytest.approx(0.64, abs=1e-12)


def test_load_state_rejects_unknown_fields():
    with pytest.raises(ParamError):
        load_state({"kind": "ghz", "a": 0.6, "phase": 1.0})
    with pytest.raises(ParamError):
        load_state({"kind": "nonsense"})
    with pytest.raises(ParamError):
        load_state({"kind": "pure", "amplitudes": [[1.0, 0.0]] * 4})


# Bad stand-ins for one number, for one complex amplitude and for one
# component of an [re, im] pair.
BAD_NUMBERS = ["0.5", True, None, [0.5]]
BAD_AMPLITUDES = BAD_NUMBERS[:3] + [[[0.5, 0.0]], [0.5], [0.5, 0.0, 0.0], 1.5, -1 - 2e-9]
BAD_COMPONENTS = BAD_NUMBERS + [[0.5, 0.0], 1 + 2e-9, -1.5]

VALID_STATES = {
    "pure": {"kind": "pure", "amplitudes": [[0.5, 0.0]] * 4 + [0.0] * 4},
    "mixed": {"kind": "mixed", "weights": [0.125] * 8},
    "product": {"kind": "product", "theta": [0.5] * 3, "phi": [0.5] * 3, "delta": [0.5] * 3},
    "ghz": {"kind": "ghz", "a": [0.6, 0.0], "b": [0.0, 0.8]},
    "w": {"kind": "w", "c2": [0.6, 0.0], "c3": [0.0, 0.8], "c5": 0.0},
    "pd": {"kind": "pd", "c4": [0.6, 0.0], "c6": [0.0, 0.8], "c7": 0.0},
}


def _amplitude_slots(desc):
    """(container, key) of every complex amplitude of a descriptor."""
    if desc["kind"] == "pure":
        return [(desc["amplitudes"], i) for i in range(8)]
    return [(desc, k) for k in desc if k != "kind"]


def _wrong_lists(valid, key):
    for wrong in (valid[key][:-1], valid[key] + [0.0], 0.5, None):
        yield {**copy.deepcopy(valid), key: wrong}


def bad_state_descriptors():
    """Valid descriptors of every kind with one number, amplitude, pair
    component or list broken in turn, then a few whole-descriptor faults."""
    for kind, valid in VALID_STATES.items():
        if kind in ("mixed", "product"):
            for key in (k for k in valid if k != "kind"):
                for i in range(len(valid[key])):
                    for bad in BAD_NUMBERS:
                        desc = copy.deepcopy(valid)
                        desc[key][i] = bad
                        yield desc
                yield from _wrong_lists(valid, key)
            continue
        for n in range(len(_amplitude_slots(valid))):
            pairs = [[bad, 0.0] for bad in BAD_COMPONENTS] + [[0.0, bad] for bad in BAD_COMPONENTS]
            for bad in BAD_AMPLITUDES + pairs:
                desc = copy.deepcopy(valid)
                container, key = _amplitude_slots(desc)[n]
                container[key] = bad
                yield desc
        if kind == "pure":
            yield from _wrong_lists(valid, "amplitudes")
    # A rejected entry ahead of an integer too large for a float: the
    # loader stops at the rejected one and never converts the other.
    huge = 10 ** 400
    yield {"kind": "pure", "amplitudes": ["x", huge] + [0.0] * 6}
    yield {"kind": "pure", "amplitudes": [["x", huge]] + [0.0] * 7}
    yield {"kind": "mixed", "weights": [None, huge] + [0.125] * 6}
    yield {"kind": "product", "theta": [0.5, 0.5, "x"], "phi": [huge] * 3}
    yield {"kind": "w", "c2": True, "c3": huge, "c5": 0.0}
    yield {"kind": "ghz", "a": [1.0, 0.5]}
    yield {"kind": "w", "c2": 0.6, "c3": 0.8}
    yield {"kind": "pd", "c4": 0.6, "c6": 0.8, "c8": 0.0}
    yield {"kind": "quark"}
    yield ["kind", "pure"]


def test_load_state_messages_match_the_pinned_ones():
    # Captured from the loader before it formatted entry paths only for
    # the entry it rejects; every message must stay as it was.
    pinned = json.loads((Path(__file__).parent / "loader_messages.json").read_text())
    messages = []
    for desc in bad_state_descriptors():
        with pytest.raises(ParamError) as info:
            load_state(desc)
        messages.append(str(info.value))
    assert messages == pinned


def test_load_game_variants():
    table = load_game({"kind": "pd3"})
    assert table.entries[0, 0] == 7.0
    table = load_game({"kind": "pd3", "params": [7, 9, 3, 0, 1, 5]})
    assert table.entries[4, 0] == 9.0
    table = load_game({"kind": "coop"})
    assert table.entries[1].tolist() == [1.0, 1.0, -2.0]
    rows = [[float(i), 0.0, -float(i)] for i in range(8)]
    table = load_game({"kind": "custom", "rows": rows})
    assert table.entries[3, 0] == 3.0
    with pytest.raises(ParamError):
        load_game({"kind": "custom", "rows": rows[:4]})


def test_load_marginals_requires_all_fields():
    descriptor = {
        "convention": "conjunction",
        "lambda": 0.5, "mu": 0.5, "nu": 0.5,
        "p_ab": 0.25, "p_bc": 0.25, "p_ac": 0.25, "xi": 0.125,
    }
    m = load_marginals(descriptor)
    assert m.convention is MarginalConvention.CONJUNCTION
    assert m.xi == 0.125
    with pytest.raises(ParamError):
        load_marginals({k: v for k, v in descriptor.items() if k != "xi"})
    with pytest.raises(ParamError):
        load_marginals({**descriptor, "extra": 1.0})
    with pytest.raises(ParamError):
        load_marginals({**descriptor, "convention": "both"})


def test_schemas_load_and_validate():
    jsonschema = pytest.importorskip("jsonschema")
    state_schema = load_schema("state")
    jsonschema.validate({"kind": "ghz", "a": [0.6, 0.0]}, state_schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "ghz", "phase": 0.1}, state_schema)
    game_schema = load_schema("game")
    jsonschema.validate({"kind": "pd3", "params": [7, 9, 3, 0, 1, 5]}, game_schema)
    marginals_schema = load_schema("marginals")
    jsonschema.validate(
        {
            "convention": "parity",
            "lambda": 0.5, "mu": 0.5, "nu": 0.5,
            "p_ab": 1.0, "p_bc": 1.0, "p_ac": 1.0, "xi": 0.5,
        },
        marginals_schema,
    )


def test_render_markdown_structure():
    text = render_markdown("demo", {"alpha": 1.5, "inner": {"beta": [1, 2]}})
    assert text.startswith("# demo\n")
    assert "- alpha: 1.5" in text
    assert "## inner" in text


def test_to_wire_writes_each_library_type_with_its_converter():
    m = extract_marginals(density_from_pure(ghz(0.6, 0.8)), MarginalConvention.CONJUNCTION)
    cert = verify_ne_factorizable(pd3(), StrategyTriple(0.0, 0.0, 0.0))
    value = coalition_analysis(coop_game())[3]
    reduction = coalition_reduction(coop_game(), "A")
    expected = {
        MarginalSet: (m, marginals_to_dict(m)),
        BellReport: (bell_slacks(m), bell_to_dict(bell_slacks(m))),
        XiInterval: (xi_interval(m), interval_to_dict(xi_interval(m))),
        JointDistribution: (
            reconstruct_joint(m, XiRule.GIVEN),
            joint_to_dict(reconstruct_joint(m, XiRule.GIVEN)),
        ),
        WeightInversion: (weights_from_marginals(m), inversion_to_dict(weights_from_marginals(m))),
        NeCertificate: (cert, certificate_to_dict(cert)),
        CoalitionReduction: (reduction, coalition_reduction_to_dict(reduction)),
        StrategyTriple: (StrategyTriple(0.25, 0.5, 1.0), [0.25, 0.5, 1.0]),
        CoalitionValue: (value, {"members": list(value.members), "value": value.value}),
        PdParams: (DEFAULT_PD_PARAMS, [7.0, 9.0, 3.0, 0.0, 1.0, 5.0]),
        complex: (complex(0.5, -0.25), complex_pair(complex(0.5, -0.25))),
        np.ndarray: (np.array([[1.0, 2.0], [3.0, 4.5]]), [[1.0, 2.0], [3.0, 4.5]]),
    }
    for kind, (obj, form) in expected.items():
        assert type(obj) is kind
        assert to_wire(obj) == form, kind.__name__
    # Checked once to_wire has met every type: games and equilibrium
    # writers enter on first use, and a type without a writer maps to None.
    assert set(expected) == {kind for kind, writer in _WRITERS.items() if writer is not None}


def test_to_wire_passes_other_values_and_walks_containers():
    for value in ((complex(0.0, 1.0), 0.5), 0.25, None, "text", MarginalConvention.PARITY):
        assert to_wire(value) is value
    nested = {"a": [complex(1.0, 0.0), {"b": StrategyTriple(0.0, 0.5, 1.0)}], "c": [[]]}
    assert to_wire(nested) == {"a": [[1.0, 0.0], {"b": [0.0, 0.5, 1.0]}], "c": [[]]}
