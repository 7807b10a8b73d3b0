"""The JSON and markdown renderers against the reference renderer.

`oracles.reference_render_json` and `oracles.reference_render_markdown`
are the renderers as they were before exact-type dispatch. The library
must give the same bytes on every tree and raise the same errors, must
not peak higher in memory on a large output, and must render without a
per-node `json.dumps` or `np.isfinite` call.
"""

import collections
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from finegames import (
    SCENARIOS,
    PayoffTable,
    grid_ne_search,
    render_json,
    render_markdown,
    run_scenario,
)
import finegames.serialize as serialize
from finegames.serialize import certificate_to_dict, format_float


def outcome(render, *args):
    """The rendered text, or the type and message of the error raised."""
    try:
        return render(*args)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


def assert_renders_like_reference(payload, title="report"):
    assert outcome(render_json, payload) == outcome(
        oracles.reference_render_json, payload
    )
    assert outcome(render_markdown, title, payload) == outcome(
        oracles.reference_render_markdown, title, payload
    )


EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308)
EDGE_STRINGS = (
    '"', "\\", "\x00\x1f\x7f", "\n\t\r", "é", "日本", "\U0001f600", "\ud800", ""
)

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = hnp.array_shapes(max_dims=2, min_side=0, max_side=3)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    finite,
    st.sampled_from(EDGE_FLOATS),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(EDGE_STRINGS),
    hnp.arrays(np.float64, shapes, elements=finite),
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.bool_, shapes),
)
keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from(EDGE_STRINGS),
    st.integers(),
    finite,
    st.booleans(),
    st.none(),
)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        # Lists of dicts render as markdown tables.
        st.lists(st.dictionaries(st.text(max_size=3), children, max_size=3), max_size=3),
    )


def _depth(value) -> int:
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_depth, value), default=0)
    return 0


trees = st.recursive(leaves, _extend, max_leaves=40).filter(lambda t: _depth(t) <= 6)


@settings(max_examples=400, deadline=None)
@given(trees, st.text(max_size=6))
def test_random_trees_render_like_the_reference(tree, title):
    assert_renders_like_reference(tree, title)
    nested = {"payload": tree, "items": [tree, {"cell": tree}]}
    assert_renders_like_reference(nested, title)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
     np.float32("inf"), np.float32("nan")],
    ids=repr,
)
def test_non_finite_floats_raise_the_reference_error(value):
    for payload in (value, [1.0, value], {"x": value}, [{"x": [value]}]):
        expected = outcome(oracles.reference_render_json, payload)
        assert expected[0] is ValueError
        assert_renders_like_reference(payload)
    assert outcome(format_float, value) == outcome(oracles.format_float, value)


def test_float_leaves_match_the_reference_format_on_random_bit_patterns():
    # The library writes "%.17g" % x; the reference writes
    # format(x, ".17g"). On seeded 64-bit patterns (every exponent
    # equally likely) and the edges of the format they give the same
    # text, in every leaf writer.
    bits = np.random.default_rng(20261019).integers(0, 2**64, size=100_000, dtype=np.uint64)
    xs = bits.view(np.float64)
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min * (1 - 2**-52),
             sys.float_info.min, sys.float_info.max, -sys.float_info.max,
             1e16, 1e17, -1e16, -1e17, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3]
    values = xs[np.isfinite(xs)].tolist() + edges
    assert len(values) > 99_000
    assert [format_float(x) for x in values] == [format(x, ".17g") for x in values]
    assert render_json(values) == oracles.reference_render_json(values)
    assert render_markdown("floats", {"x": values}) == oracles.reference_render_markdown(
        "floats", {"x": values}
    )


@pytest.mark.parametrize(
    "value", [{1, 2}, complex(1.0, -2.0), object()], ids=lambda v: type(v).__name__
)
def test_unrenderable_values_match_the_reference(value):
    for payload in (value, [value], {"x": value}, [{"x": value}], {"x": [value, (value,)]}):
        expected = outcome(oracles.reference_render_json, payload)
        assert expected == (TypeError, f"cannot render {type(value).__name__} as JSON")
        assert_renders_like_reference(payload)


class Label(str):
    pass


class Record(dict):
    pass


def test_str_and_dict_subclasses_render_like_the_reference():
    label, record = Label('say "hi"\n'), Record(a=1.5, b=Label("x"), c=Record(d=[Label("y")]))
    for payload in (label, record, [label, record], {"x": record, "y": [record, label]}):
        assert_renders_like_reference(payload)
    assert render_json({"k": label}) == render_json({"k": str(label)})
    assert render_json(record) == render_json({"a": 1.5, "b": "x", "c": {"d": ["y"]}})


def test_deep_nesting_renders_like_the_reference():
    tree = 0.5
    for level in range(150):
        tree = [tree, {"k": level}] if level % 2 else {"v": tree, "n": None}
    assert_renders_like_reference(tree)


def lattice_payload(entries, resolution: int) -> dict:
    """The `ne --mode grid` payload of a table on which every lattice
    point is an equilibrium."""
    found = grid_ne_search(PayoffTable(entries), resolution)
    assert len(found) == resolution**3
    return {
        "resolution": resolution,
        "count": len(found),
        "equilibria": [certificate_to_dict(c) for c in found],
    }


def blind_entries(seed: int) -> np.ndarray:
    """Each player's payoff ignores their own choice (the lattice-dense
    benchmark's tables)."""
    others = np.random.default_rng(seed).normal(size=(3, 2, 2))
    return np.array(
        [
            [float(others[p][tuple(np.delete(bits, p))]) for p in range(3)]
            for bits in itertools.product((0, 1), repeat=3)
        ]
    )


def traced_peak(render, payload) -> tuple[str, int]:
    """The rendered text and the tracemalloc peak while rendering it."""
    tracemalloc.start()
    try:
        return render(payload), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_output_peaks_no_higher_than_the_reference():
    payload = lattice_payload(np.zeros((8, 3)), 20)
    text, peak = traced_peak(render_json, payload)
    reference_text, reference_peak = traced_peak(oracles.reference_render_json, payload)
    assert text == reference_text
    assert peak <= reference_peak
    # Each container is joined on its own, so the peak is about the
    # largest container's items plus their joined text: two copies of
    # the output. Collecting one flat list of parts for the whole report
    # holds every part at once, about four.
    assert peak <= 3 * len(text)


def test_rendering_makes_no_per_node_calls(monkeypatch):
    payloads = [(f"scenario {sid}", run_scenario(sid).to_dict()) for sid in SCENARIOS]
    payloads.append(("lattice equilibria", lattice_payload(blind_entries(7), 5)))
    expected = [
        (oracles.reference_render_json(p), oracles.reference_render_markdown(t, p))
        for t, p in payloads
    ]
    counts = collections.Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "dumps", counted("json.dumps", json.dumps))
    monkeypatch.setattr(np, "isfinite", counted("np.isfinite", np.isfinite))
    rendered = [(render_json(p), render_markdown(t, p)) for t, p in payloads]
    assert counts == {}
    assert rendered == expected
    # The counters do see the reference renderer's per-node calls.
    oracles.reference_render_json(payloads[-1][1])
    assert counts["json.dumps"] > 0 and counts["np.isfinite"] > 0


def costly_nodes(value) -> int:
    """The nodes of a tree of dicts and lists that are not an exact
    float, str or bool."""
    t = type(value)
    children = value.values() if t is dict else value if t is list else ()
    return (t not in (float, str, bool)) + sum(map(costly_nodes, children))


def test_json_leaves_cost_no_render_call(monkeypatch):
    # Containers write their exact float, str and bool leaves themselves
    # (these payloads hold bools in dicts only), so the renderer is
    # entered once per container and per other leaf, such as an int,
    # None or a numpy float.
    payloads = [run_scenario(sid).to_dict() for sid in SCENARIOS]
    payloads.append(lattice_payload(blind_entries(7), 5))
    expected = [oracles.reference_render_json(p) for p in payloads]
    render, calls = serialize._render, collections.Counter()

    def counted(value, level):
        calls["_render"] += 1
        return render(value, level)

    monkeypatch.setattr(serialize, "_render", counted)
    for payload, text in zip(payloads, expected):
        calls.clear()
        assert render_json(payload) == text
        assert calls["_render"] == costly_nodes(payload)
    # The lattice payload: its dict, two ints and list, then per
    # certificate its dict, triple and slacks.
    assert calls["_render"] == 4 + 3 * 125
