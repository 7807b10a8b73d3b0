"""Wire formats: deterministic JSON, descriptor parsing, markdown.

JSON output is byte-deterministic: fixed insertion-order keys, floats
rendered with 17 significant digits, two-space indentation. Input
descriptors are validated by hand so that errors carry a field path.
"""

from __future__ import annotations

import json
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from sys import float_info
from typing import Callable

import numpy as np

from .errors import NORMALIZATION_TOL, FinegamesError, ParamError, RangeError
from .fine import BellReport, JointDistribution, XiInterval
from .games import PayoffTable, PdParams, StrategyTriple, coop_game, pd3
from .measurement import MarginalConvention, MarginalSet, WeightInversion
from .equilibrium import CoalitionReduction, CoalitionValue, NeCertificate
from .qstates import (
    DiagonalMixedState,
    ProductStateAngles,
    PureState,
    density_from_mixed,
    density_from_pure,
    DensityMatrix,
    ghz,
    pd_state,
    product_state,
    w_state,
)

__all__ = [
    "load_game", "load_marginals", "load_schema", "load_state", "render_json",
    "render_markdown", "state_density",
]

STATE_KINDS = ("pure", "mixed", "product", "ghz", "w", "pd")
GAME_KINDS = ("pd3", "coop", "custom")


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering used everywhere on the wire."""
    if not isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    return "%.17g" % float(x)


def render_json(value) -> str:
    """Deterministic pretty JSON with a trailing newline."""
    return _render(value, 0) + "\n"


def _pads(level: int) -> tuple[str, str, str, str, str]:
    """The opening of a list and of a dict at a nesting level, each with
    the newline and indent of its first item; the separator between
    items; the closing of each."""
    outer = "\n" + "  " * level
    inner = outer + "  "
    return ("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}")


# Built once for the depths reports reach; a deeper container builds its own.
_PAD_DEPTH = 32
_PADS = tuple(_pads(level) for level in range(_PAD_DEPTH))


def _render(value, level: int) -> str:
    # Exact types first, bool ahead of int. Containers write their finite
    # exact float and exact str leaves themselves, so a bare one and a
    # non-finite float take the isinstance chain after them, as numpy
    # scalars, arrays, tuples and subclasses (np.float64 is a float) do.
    t = type(value)
    if t is dict:
        if not value:
            return "{}"
        _, opening, sep, _, closing = _PADS[level] if level < _PAD_DEPTH else _pads(level)
        level += 1
        # Finite exact floats, exact strs and bools are written here as
        # the dispatch writes them; every other value, a non-finite float
        # included, takes the dispatch. Each item goes straight into
        # parts, so no local holds one or the joined text while the join
        # copies.
        parts = []
        for k, v in value.items():
            t = type(v)
            if t is float and isfinite(v):
                parts.append(_quote(str(k)) + ": " + "%.17g" % v)
            elif t is str:
                parts.append(_quote(str(k)) + ": " + _quote(v))
            elif t is bool:
                parts.append(_quote(str(k)) + (": true" if v else ": false"))
            else:
                parts.append(_quote(str(k)) + ": " + _render(v, level))
        parts[0] = opening + parts[0]
        parts[-1] += closing
        return sep.join(parts)
    if t is list:
        if not value:
            return "[]"
        opening, _, sep, closing, _ = _PADS[level] if level < _PAD_DEPTH else _pads(level)
        level += 1
        parts = []
        for v in value:
            t = type(v)
            if t is float and isfinite(v):
                parts.append("%.17g" % v)
            elif t is str:
                parts.append(_quote(v))
            else:
                parts.append(_render(v, level))
        parts[0] = opening + parts[0]
        parts[-1] += closing
        return sep.join(parts)
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return _render(list(value), level)
    if isinstance(value, dict):
        return _render(dict(value.items()), level)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _ensure_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParamError(f"{path}: expected an object")
    return value


def _reject_unknown(d: dict, path: str, allowed: tuple[str, ...]):
    unknown = d.keys() - allowed
    if unknown:
        raise ParamError(f"{path}: unknown keys {sorted(unknown)}")


def _field_path(path: str, at) -> str:
    """path extended by each step of at: an index as [i], a key as .key.
    Only an error needs it, so the accept path never formats one."""
    for step in at:
        path = f"{path}[{step}]" if isinstance(step, int) else f"{path}.{step}"
    return path


def _number(value, path: str, *at) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParamError(f"{_field_path(path, at)}: expected a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ParamError(f"{_field_path(path, at)}: integer too large for a float") from None


def _finite_number(value, path: str, *at) -> float:
    """_number that is finite, for one value as _finite_list is for a list."""
    x = _number(value, path, *at)
    if not isfinite(x):
        raise ParamError(f"{_field_path(path, at)}: expected a finite number")
    return x


def _finite_list(value, length: int, path: str) -> list[float]:
    """A list of `length` finite numbers, for constructors whose own
    non-finite error names no path."""
    if not isinstance(value, list) or len(value) != length:
        raise ParamError(f"{path}: expected a list of {length} numbers")
    return [_finite_number(v, path, i) for i, v in enumerate(value)]


def _finite(value, path: str, positive: bool) -> float:
    """A finite number, above zero if positive, else at least zero."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (0 < value if positive else 0 <= value)
        or value > float_info.max  # inf, or an integer too large for a float
    ):
        sign = "positive" if positive else "non-negative"
        raise ParamError(f"{path}: expected a finite {sign} number")
    return float(value)


def _bounded_int(value, path: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParamError(f"{path}: expected an integer")
    if not minimum <= value <= maximum:
        raise ParamError(f"{path}: must be between {minimum} and {maximum}")
    return value


def _seed(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParamError(f"{path}: expected a non-negative integer")
    return value


def parse_complex(value, path: str, *at) -> complex:
    """Accept a state amplitude as a plain number or an [re, im] pair.

    Errors name path extended by the index or key steps of at. A
    component above 1 in modulus is rejected: no unit vector has one,
    and its square could overflow.
    """
    if isinstance(value, list) and len(value) == 2:
        z = complex(_number(value[0], path, *at, 0), _number(value[1], path, *at, 1))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        z = complex(_number(value, path, *at), 0.0)
    else:
        raise ParamError(f"{_field_path(path, at)}: expected a number or an [re, im] pair")
    bound = 1.0 + NORMALIZATION_TOL
    if not (-bound <= z.real <= bound and -bound <= z.imag <= bound):
        raise ParamError(f"{_field_path(path, at)}: expected components of modulus at most 1")
    return z


def complementary_amplitude(a: complex, path: str) -> complex:
    """b = sqrt(1 - |a|^2), completing a|000> + b|111> to unit norm."""
    rest = 1.0 - abs(a) ** 2
    if rest < -NORMALIZATION_TOL:
        raise ParamError(f"{path}: |a|^2 exceeds 1")
    return complex(max(rest, 0.0) ** 0.5, 0.0)


def _amplitudes(value, path: str) -> list[complex]:
    """Eight state amplitudes, the length checked before the entries."""
    if not isinstance(value, list) or len(value) != 8:
        raise ParamError(f"{path}: expected a list of 8 entries")
    return [parse_complex(v, path, i) for i, v in enumerate(value)]


def _checked(build: Callable, path: str, *values):
    """build(*values) on values from outside the program. A constructor
    error is a ParamError at path (the parent path, such as `params` or
    `state`, when several values share a check), below it at the field
    a RangeError names."""
    try:
        return build(*values)
    except RangeError as exc:
        where = path if exc.field is None else f"{path}.{exc.field}"
        raise ParamError(f"{where}: {exc}") from None
    except FinegamesError as exc:
        raise ParamError(f"{path}: {exc}") from None


def _pd_params(value, path: str) -> PdParams:
    """Six dilemma levels; a non-finite one is PdParams' error, at path."""
    if not isinstance(value, (list, tuple)) or len(value) != 6:
        raise ParamError(f"{path}: expected a list of 6 payoff levels")
    return _checked(PdParams, path, *[_number(v, path, i) for i, v in enumerate(value)])


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def load_state(descriptor, path: str = "state"):
    """Build a state object from its JSON descriptor.

    Returns a PureState for the pure families and a DiagonalMixedState
    for the "mixed" kind.
    """
    d = _ensure_dict(descriptor, path)
    kind = d.get("kind")
    if kind not in STATE_KINDS:
        raise ParamError(f"{path}.kind: expected one of {list(STATE_KINDS)}")
    if kind == "pure":
        _reject_unknown(d, path, ("kind", "amplitudes"))
        where = f"{path}.amplitudes"
        return _checked(PureState, where, _amplitudes(d.get("amplitudes"), where))
    if kind == "mixed":
        _reject_unknown(d, path, ("kind", "weights"))
        weights = _finite_list(d.get("weights"), 8, f"{path}.weights")
        return _checked(DiagonalMixedState, f"{path}.weights", weights)
    if kind == "product":
        _reject_unknown(d, path, ("kind", "theta", "phi", "delta"))
        theta = _finite_list(d.get("theta"), 3, f"{path}.theta")
        phi = _finite_list(d.get("phi", [0.0, 0.0, 0.0]), 3, f"{path}.phi")
        delta = _finite_list(d.get("delta", [0.0, 0.0, 0.0]), 3, f"{path}.delta")
        return product_state(_checked(ProductStateAngles, path, theta, phi, delta))
    if kind == "ghz":
        _reject_unknown(d, path, ("kind", "a", "b"))
        a = parse_complex(d.get("a", [2.0 ** -0.5, 0.0]), path, "a")
        if "b" in d:
            b = parse_complex(d["b"], path, "b")
        else:
            b = complementary_amplitude(a, f"{path}.a")
        return _checked(ghz, path, a, b)
    keys = ("c2", "c3", "c5") if kind == "w" else ("c4", "c6", "c7")
    _reject_unknown(d, path, ("kind", *keys))
    build = w_state if kind == "w" else pd_state
    return _checked(build, path, *[parse_complex(d.get(k), path, k) for k in keys])


def state_density(state) -> DensityMatrix:
    if isinstance(state, PureState):
        return density_from_pure(state)
    if isinstance(state, DiagonalMixedState):
        return density_from_mixed(state)
    raise ParamError("state: expected a PureState or DiagonalMixedState")


def load_game(descriptor, path: str = "game") -> PayoffTable:
    """Build a payoff table from its JSON descriptor."""
    d = _ensure_dict(descriptor, path)
    kind = d.get("kind")
    if kind not in GAME_KINDS:
        raise ParamError(f"{path}.kind: expected one of {list(GAME_KINDS)}")
    if kind == "pd3":
        _reject_unknown(d, path, ("kind", "params"))
        return pd3(_pd_params(d["params"], f"{path}.params")) if "params" in d else pd3()
    if kind == "coop":
        _reject_unknown(d, path, ("kind",))
        return coop_game()
    _reject_unknown(d, path, ("kind", "rows"))
    rows = d.get("rows")
    if not isinstance(rows, list) or len(rows) != 8:
        raise ParamError(f"{path}.rows: expected 8 rows of 3 numbers")
    entries = [_finite_list(r, 3, f"{path}.rows[{i}]") for i, r in enumerate(rows)]
    return _checked(PayoffTable, f"{path}.rows", np.array(entries))


def parse_convention(value, path: str = "convention") -> MarginalConvention:
    try:
        return MarginalConvention(value)
    except ValueError:
        raise ParamError(f"{path}: expected 'parity' or 'conjunction'") from None


MARGINAL_KEYS = ("lambda", "mu", "nu", "p_ab", "p_bc", "p_ac", "xi")


def load_marginals(descriptor, path: str = "marginals") -> MarginalSet:
    """Build a MarginalSet from its JSON descriptor."""
    d = _ensure_dict(descriptor, path)
    _reject_unknown(d, path, ("convention",) + MARGINAL_KEYS)
    convention = parse_convention(d.get("convention"), f"{path}.convention")
    values = []
    for key in MARGINAL_KEYS:
        if key not in d:
            raise ParamError(f"{path}.{key}: missing")
        values.append(_finite_number(d[key], path, key))
    return _checked(MarginalSet, path, *values, convention)


def marginals_to_dict(m: MarginalSet) -> dict:
    return {"convention": m.convention.value, **dict(zip(MARGINAL_KEYS, m.values()))}


def bell_to_dict(report: BellReport) -> dict:
    return {
        "slack": list(report.slack),
        "satisfied": report.satisfied,
        "convention_note": report.convention_note,
    }


def interval_to_dict(interval: XiInterval) -> dict:
    return {
        "lower": interval.lower,
        "upper": interval.upper,
        "empty": interval.is_empty,
    }


def joint_to_dict(joint: JointDistribution) -> dict:
    return {"prob": list(joint.prob)}


def inversion_to_dict(inv: WeightInversion) -> dict:
    return {
        "weights": list(inv.weights),
        "negative_indices": list(inv.negative_indices),
        "feasible": inv.feasible,
    }


def triple_to_list(s: StrategyTriple) -> list[float]:
    return [s.lam, s.mu, s.nu]


def certificate_to_dict(cert: NeCertificate) -> dict:
    return {
        "kind": "certificate",
        "triple": triple_to_list(cert.triple),
        "player_slack": list(cert.player_slack),
        "is_ne": cert.is_ne,
        "note": cert.note,
    }


def structural_note(text: str) -> dict:
    return {"kind": "note", "text": text}


def coalition_reduction_to_dict(red: CoalitionReduction) -> dict:
    return {
        "odd_player": red.odd_player,
        "members": list(red.members),
        "full_matrix": [list(row) for row in red.full_matrix],
        "kept_rows": list(red.kept_rows),
        "reduced": [list(row) for row in red.reduced],
        "value": red.value,
        "member_mix": list(red.member_mix),
        "odd_mix": list(red.odd_mix),
    }


# The one JSON form of each library type, the same in every report and
# CLI payload: to_wire looks up a value's exact type here.
_WRITERS: dict[type, Callable] = {
    MarginalSet: marginals_to_dict,
    BellReport: bell_to_dict,
    XiInterval: interval_to_dict,
    JointDistribution: joint_to_dict,
    WeightInversion: inversion_to_dict,
    NeCertificate: certificate_to_dict,
    CoalitionReduction: coalition_reduction_to_dict,
    StrategyTriple: triple_to_list,
    CoalitionValue: lambda v: {"members": list(v.members), "value": v.value},
    PdParams: lambda p: list(p.as_tuple()),
    complex: complex_pair,
    np.ndarray: np.ndarray.tolist,
}


def to_wire(value):
    """value with each library object in it replaced by its JSON form.

    Dicts and lists are walked item by item; any other value without a
    writer, tuples included, is returned unchanged."""
    t = type(value)
    if t is dict:
        return {k: to_wire(v) for k, v in value.items()}
    if t is list:
        return [to_wire(v) for v in value]
    writer = _WRITERS.get(t)
    return value if writer is None else writer(value)


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schema files by bare name."""
    text = (
        resources.files(__package__).joinpath("schemas").joinpath(f"{name}.schema.json")
    ).read_text(encoding="utf-8")
    return json.loads(text)


def render_markdown(title: str, payload: dict) -> str:
    """Generic markdown rendering of a report dictionary."""
    lines = [f"# {title}", ""]
    _md_block(lines, payload, 2)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


# Exact types that markdown renders as scalars; _SCALAR_CLASSES decides
# for every other type, subclasses and numpy scalars included.
_SCALAR_TYPES = frozenset((float, str, bool, int, type(None)))
_SCALAR_CLASSES = (bool, np.bool_, int, np.integer, float, np.floating, str)


def _md_scalar(value) -> str:
    t = type(value)
    if t is float:
        if isfinite(value):
            return "%.17g" % value
        raise ValueError(f"cannot render non-finite value {value!r}")
    if t is str:
        return value
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return str(value)
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    return str(value)


def _is_scalar(value) -> bool:
    return type(value) in _SCALAR_TYPES or isinstance(value, _SCALAR_CLASSES)


def _md_inline(value) -> str:
    # No container is a scalar, and _md_scalar renders every other
    # non-container as str() does.
    if type(value) in _SCALAR_TYPES:
        return _md_scalar(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join([_md_inline(v) for v in value]) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join([f"{k}: {_md_inline(v)}" for k, v in value.items()]) + "}"
    return _md_scalar(value)


def _md_block(lines: list[str], payload, level: int):
    if isinstance(payload, dict):
        nested = []
        for key, value in payload.items():
            if _is_scalar(value):
                lines.append(f"- {key}: {_md_scalar(value)}")
            else:
                nested.append((key, value))
        if len(nested) < len(payload):
            lines.append("")
        for key, value in nested:
            lines.append(f"{'#' * level} {key}")
            lines.append("")
            _md_block(lines, value, min(level + 1, 6))
    elif isinstance(payload, (list, tuple)):
        if payload and all(isinstance(v, dict) for v in payload):
            keys = list(dict.fromkeys(k for item in payload for k in item))
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
