#!/usr/bin/env python3
"""Command-line front end.

Subcommands:
    scenario          run a named case study and emit its report
    marginals         extract marginal probabilities from a state file
    fine              joint-distribution existence check for marginals
    ne                equilibrium verification, lattice search, or the
                      symmetric interior stationary point
    invert-marginals  signed inversion of a marginal set to outcome weights

Inputs are JSON descriptor files; every report is emitted as
deterministic JSON (default) or markdown. Exit codes: 0 on success with
a positive verdict, 1 on a negative verdict (no joint distribution,
infeasible inversion, not an equilibrium, no interior root), 2 on
invalid input or usage, 3 on an internal failure (any unexpected
exception, one "error:" line), so a crash never reads as a verdict.

Each command imports the modules it runs when it runs: `fine`,
`marginals` and `invert-marginals` never load `games`, `equilibrium` or
`scenarios`, and `ne` never loads `scenarios`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DEFAULT_NE_TOL, DEFAULT_RESOLUTION, FinegamesError, ParamError
from .fine import XiRule, _joint_or_terms, bell_slacks, xi_interval
from .measurement import MarginalConvention, extract_marginals, weights_from_marginals
from .serialize import (
    _bounded_int,
    _checked,
    _finite,
    load_game,
    load_marginals,
    load_state,
    parse_convention,
    render_json,
    render_markdown,
    state_density,
    to_wire,
)

# What decoding raises on bad input: a JSONDecodeError, a UnicodeDecodeError
# from a file that is not UTF-8, a ValueError from an integer literal past
# the interpreter's digit limit, a RecursionError from too deep a nesting.
_BAD_JSON = (ValueError, RecursionError)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParamError(f"{what}: cannot read {path!r}: {err}") from None
    except _BAD_JSON as err:
        raise ParamError(f"{what}: {path!r} is not valid JSON: {err}") from None


def _parse_params(raw: str | None) -> dict | None:
    if raw is None:
        return None
    if raw.startswith("@"):
        value = _read_json(raw[1:], "--params")
    else:
        try:
            value = json.loads(raw)
        except _BAD_JSON as err:
            raise ParamError(f"--params: not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise ParamError("--params: expected a JSON object")
    return value


def _parse_triple(raw: str):
    from .games import StrategyTriple

    parts = raw.split(",")
    if len(parts) != 3:
        raise ParamError('--triple: expected "lam,mu,nu"')
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParamError('--triple: expected "lam,mu,nu" with numeric entries') from None
    return _checked(StrategyTriple, "--triple", *values)


def _emit(payload, args: argparse.Namespace, title: str):
    """Write payload, a library object or a dict holding some, in its
    wire form."""
    payload = to_wire(payload)
    if args.format == "md":
        text = render_markdown(title, payload)
    else:
        text = render_json(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ParamError(f"--out: cannot write {args.out!r}: {err}") from None
    else:
        sys.stdout.write(text)


def cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import run_scenario

    params = _parse_params(args.params) or {}
    for name in ("tol", "resolution", "seed"):
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    report = run_scenario(args.id, params or None)
    _emit(report.to_dict(), args, f"scenario {args.id}")
    return 0


def cmd_marginals(args: argparse.Namespace) -> int:
    state = load_state(_read_json(args.state, "--state"))
    convention = parse_convention(args.convention)
    m = _checked(extract_marginals, "state", state_density(state), convention)
    _emit(m, args, "marginals")
    return 0


def cmd_fine(args: argparse.Namespace) -> int:
    m = load_marginals(_read_json(args.marginals, "--marginals"))
    payload = {
        "bell": bell_slacks(m),
        "xi_interval": xi_interval(m) if m.convention is MarginalConvention.CONJUNCTION else None,
    }
    joint, violated = _joint_or_terms(m, XiRule(args.xi))
    payload.update(joint=joint, violated_terms=violated, exists=joint is not None)
    _emit(payload, args, "joint existence")
    return 0 if joint is not None else 1


def cmd_ne(args: argparse.Namespace) -> int:
    from .equilibrium import (
        MAX_RESOLUTION,
        grid_ne_search,
        parity_product_gradient,
        product_state_interior_solve,
        verify_ne_factorizable,
    )

    table = load_game(_read_json(args.game, "--game"))
    tol = _finite(args.tol, "--tol", True)

    if args.mode == "verify":
        if args.triple is None:
            raise ParamError("--triple is required with --mode verify")
        cert = verify_ne_factorizable(table, _parse_triple(args.triple), tol)
        _emit(cert, args, "equilibrium check")
        return 0 if cert.is_ne else 1

    if args.mode == "grid":
        resolution = _bounded_int(args.resolution, "--resolution", 2, MAX_RESOLUTION)
        found = grid_ne_search(table, resolution, tol)
        payload = {
            "resolution": resolution,
            "count": len(found),
            "equilibria": found,
        }
        _emit(payload, args, "lattice equilibria")
        return 0

    solution = _checked(product_state_interior_solve, "game", table)
    if solution is None:
        payload = {"triple": None, "note": "no isolated symmetric stationary point in [0, 1]"}
    else:
        payload = {"triple": solution, "own_gradient": parity_product_gradient(table, solution)}
    _emit(payload, args, "interior stationary point")
    return 0 if solution is not None else 1


def cmd_invert(args: argparse.Namespace) -> int:
    m = load_marginals(_read_json(args.marginals, "--marginals"))
    inversion = weights_from_marginals(m)
    _emit(inversion, args, "weight inversion")
    return 0 if inversion.feasible else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage faults are ParamErrors, one line
    each; its subparsers are built from the same class."""

    def error(self, message: str):
        raise ParamError(" ".join(message.split()))


class _ScenarioIds:
    """The scenario ids, read from the scenarios module only when an
    --id is checked (`in` iterates them) or the help names them, so
    that building the parser does not load it."""

    def __iter__(self):
        from .scenarios import SCENARIO_IDS

        return iter(SCENARIO_IDS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finegames",
        description="three-player quantum games and joint-distribution existence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "md"),
            default="json",
            help="output format (default json)",
        )

    p = sub.add_parser("scenario", help="run a named case study")
    # A metavar keeps add_argument from listing the choices.
    p.add_argument("--id", required=True, choices=_ScenarioIds(), metavar="ID",
                   help="scenario to run: %(choices)s")
    p.add_argument(
        "--params",
        help="inline JSON object of overrides, or @path to a JSON file",
    )
    p.add_argument("--tol", type=float, help="override the params tol entry")
    p.add_argument(
        "--resolution", type=int, help="override the params resolution entry"
    )
    p.add_argument("--seed", type=int, help="override the params seed entry")
    add_output(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("marginals", help="marginal probabilities of a state")
    p.add_argument("--state", required=True, help="JSON state descriptor file")
    p.add_argument(
        "--convention",
        required=True,
        choices=tuple(c.value for c in MarginalConvention),
        help="pair/triple marginal reading",
    )
    add_output(p)
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("fine", help="joint-distribution existence for marginals")
    p.add_argument("--marginals", required=True, help="JSON marginal set file")
    p.add_argument(
        "--xi",
        choices=tuple(r.value for r in XiRule),
        default="given",
        help="triple-probability rule for the reconstruction (default given)",
    )
    add_output(p)
    p.set_defaults(func=cmd_fine)

    p = sub.add_parser("ne", help="equilibrium analysis of a payoff table")
    p.add_argument("--game", required=True, help="JSON game descriptor file")
    p.add_argument(
        "--mode", required=True, choices=("verify", "grid", "interior")
    )
    p.add_argument("--triple", help='strategy triple "lam,mu,nu" for verify')
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help=f"lattice points per axis for grid (default {DEFAULT_RESOLUTION})")
    p.add_argument("--tol", type=float, default=DEFAULT_NE_TOL,
                   help=f"equilibrium tolerance (default {DEFAULT_NE_TOL:g})")
    add_output(p)
    p.set_defaults(func=cmd_ne)

    p = sub.add_parser(
        "invert-marginals", help="signed outcome weights reproducing a marginal set"
    )
    p.add_argument("--marginals", required=True, help="JSON marginal set file")
    add_output(p)
    p.set_defaults(func=cmd_invert)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FinegamesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # any other failure is a defect, not a verdict
        detail = " ".join(str(err).split())
        print(f"error: internal failure: {type(err).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
