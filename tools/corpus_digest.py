"""Digest a fixed, seeded corpus of outputs: equal totals, equal bytes.

Runs the corpus below through the public API and the command line
(`finegames.cli.main`) and prints one SHA-256 per part and one total.
It reads no private name, so the same file digests any checkout's
source, and a change that must leave every byte as it was shows it by
printing the same total on both:

    PYTHONPATH=src python tools/corpus_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/corpus_digest.py

Parts:
    scenarios  each scenario at its defaults, with the defaults spelled
               out, and at 20 seeded param sets off them, in JSON and
               markdown, with exit codes and error lines;
    ne         `ne` grid at resolutions 5 and 61, verify at five
               triples, and interior, in both formats with exit codes,
               on seeded perturbed pd3, normal and own-choice-blind
               games;
    payoffs    payoff_factorizable, factorizable_gradient,
               parity_product_gradient, product_state_interior_solve
               and coop_best_response_solve on seeded tables, values by
               repr and errors by their message only (their types may
               change while the bytes a user sees stay);
    states     seeded descriptors of all six state kinds, edge cases
               (mixed weights of -0.0 and -1e-13, norms either side of
               the tolerance) and bad descriptors, through load_state,
               state_density and, under both conventions,
               extract_marginals, bell_slacks, xi_interval,
               reconstruct_joint under every XiRule,
               weights_from_marginals, convert_marginals to both
               conventions, correlations() and payoff_marginal_form;
               values and errors recorded as in payoffs;
    coalitions coalition_reduction for each odd player, and
               coalition_analysis, on coop_game(), its negation and
               seeded zero-sum tables (small integers with ties and
               zeros of both signs, and normal draws), plus normal
               tables that are not zero-sum; zero_sum_2x2_value on
               every 2x2 matrix of -1, -0.0, 0.0 and 1 and on bad
               matrices; values and errors recorded as in payoffs;
    screens    grid_ne_search at resolutions 2, 3, 11, 101 and 290 and
               tolerances 0, 1e-9 and 1e-3 on seeded perturbed pd3
               tables, seeded tables whose own slopes keep one sign
               (magnitudes 1e-300 to 1e149), tables whose extreme slope
               corners sit at the band's bound, a few ulps either side
               of the corner margin and at the subnormal floor,
               coop_game(), and an own-choice-blind table (at 2, 3 and
               11 only); and at resolutions 2, 3 and 11 and
               tolerances 0, 5e-324, 1e-9 and 0.5, tables whose
               players' |slope coefficient| sums sit one float under,
               at and one float over the flat limit, tables of signed
               zeros and subnormals, a slope cancelling to a ninth
               of its coefficient sum, and tables whose players' slope
               corner ranges sit one float inside, at and one float
               outside +-tol; values and errors recorded as in payoffs.

A dataclass is recorded by its fields and properties together, sorted
by name, so a value that moves from a stored field to a derived
property leaves the digest as it was. tests/test_corpus_digest.py pins
the six part digests.

Takes about 3 s on a 2-vCPU VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

import finegames as fg
from finegames.cli import main

SCENARIO_DRAWS = 20
PD_LEVELS = (7.0, 9.0, 3.0, 0.0, 1.0, 5.0)
SCREEN_RESOLUTIONS = (2, 3, 11, 101, 290)
SCREEN_TOLS = (0.0, 1e-9, 1e-3)
# The flat-boundary tables' tolerances and resolutions. Below 8 tiny no
# slope is flat. A flat table passes every lattice point, so it is read
# at 11 at most, as the own-choice-blind table is.
FLAT_TOLS = (0.0, 5e-324, 1e-9, 0.5)
FLAT_RESOLUTIONS = (2, 3, 11)
# Each player's slope corners, as corner_table takes them, per unit of
# scale: constant for A, mixed signs for B, and for C the slope
# a (1 - 2 x_q)(1 - 2 x_r), whose coefficients sum to 9 a.
FLAT_SHAPES = (
    ((1.0, 1.0), (1.0, 1.0)), ((-1.0, -0.5), (0.25, -1.0)), ((1.0, -1.0), (-1.0, 1.0)),
)
EPS, TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# Player p's opponents q < r, and the rows of marginal_form_coefficients
# that hold p's own-slope coefficients of 1, x_q, x_r and x_q x_r.
OPPONENTS = ((1, 2), (0, 2), (0, 1))
SLOPE_ROWS = ([4, 1, 3, 0], [5, 1, 2, 0], [6, 3, 2, 0])


def both_formats(label: str, *argv: str):
    """Each format's exit code, stdout and stderr of one command-line
    run, as text headed by label (argv may name a temporary file)."""
    for fmt in ("json", "md"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        yield f"{label} {fmt}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def seeded_params(scenario_id: str, rng) -> dict:
    """A param set off the defaults for the params the scenario takes."""
    def unit_triple():
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        return [[float(c.real), float(c.imag)] for c in z / np.linalg.norm(z)]

    a = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    q1, u, v, _ = rng.dirichlet(np.ones(4)) / (1.0, 3.0, 3.0, 1.0)
    draws = {
        "pd_params": [float(x) for x in PD_LEVELS + rng.uniform(-0.25, 0.25, 6)],
        "resolution": int(rng.integers(2, 12)),
        "tol": float(10.0 ** rng.uniform(-12, -3)),
        "a": [float(a.real), float(a.imag)],
        "grid": int(rng.integers(2, 300)),
        **dict(zip(("c2", "c3", "c5"), unit_triple())),
        **dict(zip(("c4", "c6", "c7"), unit_triple())),
        "q1": float(q1), "u": float(u), "v": float(v),
        "seed": int(rng.integers(0, 1000)),
    }
    return {k: v for k, v in draws.items() if k in fg.SCENARIOS[scenario_id].params}


def scenarios():
    rng = np.random.default_rng(20261019)
    for scenario_id in fg.SCENARIO_IDS:
        run = ("scenario", "--id", scenario_id)
        yield from both_formats(repr(run), *run)
        draws = [fg.run_scenario(scenario_id).inputs]
        draws += [seeded_params(scenario_id, rng) for _ in range(SCENARIO_DRAWS)]
        for params in map(json.dumps, draws):
            yield from both_formats(f"{run!r} {params}", *run, "--params", params)


def games(rng) -> list[tuple[dict, tuple[str, ...]]]:
    """Game descriptors and their grid resolutions: perturbed pd3, normal
    tables, and tables where the first one, two or three players ignore
    their own choice."""
    both = ("5", "61")
    out = [({"kind": "pd3"}, both), ({"kind": "coop"}, both)]
    for _ in range(4):
        levels = np.array(PD_LEVELS) + rng.uniform(-0.2, 0.2, 6)
        out.append(({"kind": "pd3", "params": levels.tolist()}, both))
        out.append(({"kind": "custom", "rows": rng.normal(size=(8, 3)).tolist()}, both))
    for blind in (1, 2, 3, 1, 2, 3):
        t = rng.normal(size=(2, 2, 2, 3))
        for p in range(blind):
            t[..., p] = np.take(t[..., p], [0], axis=p)
        # A table that every player ignores passes every lattice point: at
        # 61 it renders 226,981 certificates (2 s and 480 MB ru_maxrss per
        # format on a 2-vCPU VM), so it is read at 5 only.
        out.append(({"kind": "custom", "rows": t.reshape(8, 3).tolist()}, both[: 4 - blind]))
    return out


def ne(workdir: str):
    rng = np.random.default_rng(20261020)
    for n, (game, resolutions) in enumerate(games(rng)):
        path = os.path.join(workdir, f"game{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(game, fh)
        triples = ["0,0,0", "1,1,1", "0.5,0.5,0.5"]
        triples += [",".join(repr(float(x)) for x in rng.uniform(size=3)) for _ in range(2)]
        modes = [("grid", "--resolution", r) for r in resolutions]
        modes += [("verify", "--triple", triple) for triple in triples] + [("interior",)]
        for mode, *rest in modes:
            argv = ("--mode", mode, *rest)
            yield from both_formats(f"{game} {argv}", "ne", "--game", path, *argv)


def plain(value):
    """value with arrays as lists and dataclasses as their type name and
    the values of their fields and properties, sorted by name, so that
    its repr shows every float's bits whichever of the values are stored."""
    if isinstance(value, fg.StrategyTriple):
        return value.as_tuple()
    if dataclasses.is_dataclass(value):
        cls = type(value)
        names = {f.name for f in dataclasses.fields(cls)}
        names.update(n for n in dir(cls) if isinstance(getattr(cls, n), property))
        return cls.__name__, {n: plain(getattr(value, n)) for n in sorted(names)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def outcome(f, *args):
    """f's value, None if it raised, and its record: the repr of the
    value as plain floats, or the message of the error."""
    try:
        value = f(*args)
    except Exception as err:  # recorded by message, whatever its type
        return None, f"error: {err}\n"
    return value, f"{plain(value)!r}\n"


def call(f, *args) -> str:
    return outcome(f, *args)[1]


def payoffs():
    rng = np.random.default_rng(20261021)
    tables = [fg.pd3(), fg.coop_game(), fg.PayoffTable(-np.zeros((8, 3)))]
    tables += [fg.PayoffTable(rng.normal(size=(8, 3))) for _ in range(100)]
    tables += [fg.PayoffTable(rng.integers(-2, 3, size=(8, 3))) for _ in range(50)]
    for _ in range(50):
        levels = np.array(PD_LEVELS) + rng.uniform(-0.25, 0.25, 6)
        tables.append(fg.pd3(fg.PdParams(*levels)))
    for table in tables:
        yield call(fg.product_state_interior_solve, table)
        yield call(fg.coop_best_response_solve, table)
        x = rng.uniform(size=(4, 3))
        at_end = rng.random(x.shape) < 0.3
        x[at_end] = rng.choice([0.0, -0.0, 1.0, 0.5], size=at_end.sum())
        for row in [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), *x.tolist()]:
            s = fg.StrategyTriple(*row)
            for f in (fg.payoff_factorizable, fg.factorizable_gradient, fg.parity_product_gradient):
                yield call(f, table, s)


def pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def unit(rng, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def state_descriptors(rng) -> list:
    """Seeded descriptors of the six kinds, edge cases and bad ones."""
    below = float(np.nextafter(2.0 * np.pi, 0.0))
    basis = [1.0] + [0.0] * 7
    out = [
        {"kind": "ghz"}, {"kind": "ghz", "a": 1.0, "b": 0.0}, {"kind": "ghz", "a": [0.6, 0.0]},
        {"kind": "product", "theta": [0.0, np.pi, np.pi / 2]},
        {"kind": "product", "theta": [np.pi, 0.0, np.pi], "phi": [below] * 3, "delta": [below] * 3},
        {"kind": "mixed", "weights": basis},
        {"kind": "mixed", "weights": [0.5, -0.0, 0.25, -1e-13, 0.25 + 1e-13, 0.0, -0.0, 0.0]},
        {"kind": "mixed", "weights": [-1e-13, 0.125, 0.125, 0.25, 0.25, 0.125, 0.125, 1e-13]},
        {"kind": "pure", "amplitudes": [[0.0, -1.0]] + [-0.0] * 7},
        {"kind": "pure", "amplitudes": [1, 0, 0, 0, 0, 0, 0, [0, 0]]},
        {"kind": "w", "c2": [3 ** -0.5, 0.0], "c3": 3 ** -0.5, "c5": [0.0, -(3 ** -0.5)]},
        {"kind": "pd", "c4": 1.0, "c6": 0.0, "c7": -0.0},
    ]
    for scale in (1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9):  # norms squared about 1 +- 1e-9
        amps = unit(rng, 8) * scale ** 0.5
        out.append({"kind": "pure", "amplitudes": [pair(z) for z in amps]})
    out += [
        None, {"kind": "qutrit"}, {"kind": "pure"}, {"kind": "pure", "amplitudes": basis[:7]},
        {"kind": "pure", "amplitudes": [True] + basis[1:]},
        {"kind": "pure", "amplitudes": [[1.0, 0.0, 0.0]] + basis[1:]},
        {"kind": "pure", "amplitudes": [float("nan")] + basis[1:]},
        {"kind": "pure", "amplitudes": [10 ** 400] + basis[1:]},
        {"kind": "pure", "amplitudes": [1.5] + basis[1:]},
        {"kind": "pure", "amplitudes": [[0.8, 0.0], [0.8, 0.0]] + basis[2:]},
        {"kind": "pure", "amplitudes": basis, "extra": 1},
        {"kind": "mixed", "weights": [0.5] * 8},
        {"kind": "mixed", "weights": [1.5, -0.5] + basis[2:]},
        {"kind": "mixed", "weights": [float("inf")] + basis[1:]},
        {"kind": "product", "theta": [4.0, 0.0, 0.0]},
        {"kind": "product", "theta": [0.0] * 3, "phi": [7.0, 0.0, 0.0]},
        {"kind": "product", "theta": [0.0] * 2},
        {"kind": "ghz", "a": [0.9, 0.9]},
        {"kind": "ghz", "a": 0.6, "b": 0.6},
        {"kind": "w", "c2": 1.0, "c3": 1.0, "c5": 0.0},
        {"kind": "pd", "c4": "1", "c6": 0.0, "c7": 0.0},
    ]
    for _ in range(20):
        theta, phi, delta = rng.uniform(0.0, (np.pi, 2 * np.pi, 2 * np.pi), (3, 3)).T
        out += [
            {"kind": "pure", "amplitudes": [pair(z) for z in unit(rng, 8)]},
            {"kind": "mixed", "weights": rng.dirichlet(np.ones(8)).tolist()},
            {"kind": "product", "theta": theta.tolist(), "phi": phi.tolist(), "delta": delta.tolist()},
            {"kind": "ghz", **dict(zip("ab", map(pair, unit(rng, 2))))},
            {"kind": "w", **dict(zip(("c2", "c3", "c5"), map(pair, unit(rng, 3))))},
            {"kind": "pd", **dict(zip(("c4", "c6", "c7"), map(pair, unit(rng, 3))))},
        ]
    return out


def states():
    table = fg.pd3()
    conventions = list(fg.MarginalConvention)
    for desc in state_descriptors(np.random.default_rng(20261022)):
        state, record = outcome(fg.load_state, desc)
        yield f"{desc!r}\n{record}"
        if state is None:
            continue
        rho, record = outcome(fg.state_density, state)
        yield record
        if rho is None:
            continue
        for convention in conventions:
            m, record = outcome(fg.extract_marginals, rho, convention)
            yield record
            if m is None:
                continue
            yield call(fg.bell_slacks, m)
            yield call(fg.xi_interval, m)
            for rule in fg.XiRule:
                yield call(fg.reconstruct_joint, m, rule)
            yield call(fg.weights_from_marginals, m)
            for target in conventions:
                yield call(fg.convert_marginals, m, target)
            yield call(m.correlations)
            yield call(fg.payoff_marginal_form, table, m)


def coalition_tables(rng) -> list:
    """coop_game(), its negation, seeded zero-sum tables whose derived
    column (minus the others' sum) moves among players, with zeros of
    both signs, and normal tables that are not zero-sum."""
    tables = [fg.coop_game(), fg.PayoffTable(-fg.coop_game().entries)]
    for _ in range(100):
        ints = rng.integers(-2, 3, size=(8, 2)).astype(float)
        ints[(ints == 0.0) & (rng.random(ints.shape) < 0.5)] = -0.0
        for free in (ints, rng.normal(size=(8, 2))):
            entries = np.column_stack([free, -(free[:, 0] + free[:, 1])])
            tables.append(fg.PayoffTable(entries[:, rng.permutation(3)]))
    tables += [fg.PayoffTable(rng.normal(size=(8, 3))) for _ in range(20)]
    return tables


def coalitions():
    for table in coalition_tables(np.random.default_rng(20261023)):
        for odd in (*fg.PLAYERS, "D"):
            yield call(fg.coalition_reduction, table, odd)
        yield call(fg.coalition_analysis, table)
    for entries in itertools.product((-1.0, -0.0, 0.0, 1.0), repeat=4):
        yield call(fg.zero_sum_2x2_value, np.reshape(entries, (2, 2)).tolist())
    for bad in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [[1.0, float("inf")], [0.0, 1.0]]):
        yield call(fg.zero_sum_2x2_value, bad)


def corner_table(corners) -> fg.PayoffTable:
    """The table where player p gains corners[p][i][j] by cooperating
    while its opponents q < r play i and j (1 cooperates) and gets 0 by
    defecting: p's own slope takes those values at the four corners."""
    rows = itertools.product((1, 0), repeat=3)
    return fg.PayoffTable(np.array([
        [b[p] * corners[p][b[q]][b[r]] for p, (q, r) in enumerate(OPPONENTS)] for b in rows
    ], dtype=float))


def band_bound(resolution: int, tol: float) -> float:
    """The screen's slope band |g| <= 2 (n - 1) max(tol, tiny)."""
    return 2.0 * (resolution - 1) * max(tol, TINY)


def corner_margin(table, p: int, resolution: int, tol: float) -> float:
    """bound + 16 eps sum|c| + 8 tiny over player p's slope coefficients
    c: four corners past it on one side put no lattice slope of p in the
    band."""
    c = fg.marginal_form_coefficients(table)[SLOPE_ROWS[p], p].tolist()
    return band_bound(resolution, tol) + 16.0 * EPS * sum(map(abs, c)) + 8.0 * TINY


def ulps(x: float, k: int) -> float:
    """x moved k floats up (down if k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def least_clearing(scale: float, p: int, resolution: int, tol: float) -> float:
    """The least m past player p's corner margin when p's slope has the
    corners m, m, m and m + scale."""
    def margin(m):
        return corner_margin(corner_table([[[m, m], [m, m + scale]]] * 3), p, resolution, tol)

    m = margin(0.0)
    while m <= margin(m):
        m = ulps(m, 1)
    while ulps(m, -1) > margin(ulps(m, -1)):
        m = ulps(m, -1)
    return m


def margin_tables(resolution: int, tol: float):
    """Tables whose players' least slope corners sit at the corner margin
    and up to two floats either side of it; and tables where one player
    sits at the band's bound or at the subnormal floor while the others
    sit at the margin. Constant and bilinear slopes, player B's negated."""
    for i, scales in enumerate(((0.0, 1e-300, 1e149), (1e-12, 1.0, 1e100))):
        at = [least_clearing(s, p, resolution, tol) for p, s in enumerate(scales)]
        places = [[ulps(m, k) for m in at] for k in (-2, -1, 0, 1)]
        places.append(at[:i] + [band_bound(resolution, tol)] + at[i + 1:])
        places.append(at[: i + 1] + [5e-324] + at[i + 2:])
        for place in places:
            yield corner_table([
                [[sign * m, sign * m], [sign * m, sign * (m + s)]]
                for m, s, sign in zip(place, scales, (1.0, -1.0, 1.0))
            ])


def flat_margin(table, p: int) -> float:
    """sum|c| (1 + 16 eps) + 8 tiny over player p's slope coefficients c:
    at most tol, it puts every lattice slope of p within tol."""
    c = fg.marginal_form_coefficients(table)[SLOPE_ROWS[p], p].tolist()
    return sum(map(abs, c)) * (1.0 + 16.0 * EPS) + 8.0 * TINY


def flat_table(scales) -> fg.PayoffTable:
    """The corner table of FLAT_SHAPES, player p's scaled by scales[p]."""
    return corner_table([
        [[m * w for w in row] for row in shape] for m, shape in zip(scales, FLAT_SHAPES)
    ])


def corner_reach(table, p: int) -> float:
    """The larger magnitude of the ends of player p's slope corner range
    [min - m, max + m], m = 16 eps sum|c| + 8 tiny over p's slope
    coefficients c and the four float corners as the screen takes them:
    at most tol, it puts every lattice slope of p within tol."""
    c = fg.marginal_form_coefficients(table)[SLOPE_ROWS[p], p].tolist()
    corners = [
        c[3] * xq * xr + c[1] * xq + c[2] * xr + c[0] for xq in (0.0, 1.0) for xr in (0.0, 1.0)
    ]
    m = 16.0 * EPS * sum(map(abs, c)) + 8.0 * TINY
    return max(m - min(corners), max(corners) + m)


def flat_limit(p: int, tol: float, reach) -> float:
    """The greatest scale of player p's flat shape whose reach(table, p)
    is at most tol, or 0 when no scale's is."""
    def flat(m):
        return reach(flat_table([m if q == p else 0.0 for q in range(3)]), p) <= tol

    if not flat(0.0):
        return 0.0
    m = (tol - 8.0 * TINY) / reach(flat_table([1.0] * 3), p)
    while not flat(m):
        m = ulps(m, -1)
    while flat(ulps(m, 1)):
        m = ulps(m, 1)
    return m


def flat_tables(tol: float):
    """Tables whose players' scales sit one float under, at and one
    float over the limit of their |slope coefficient| sums, mixed one
    way and the other; signed zeros and subnormals; C's cancelling slope
    at an eighth of tol, whose coefficient sum is 9/8 tol; and scales one
    float under, at and one float over the limit of their corner ranges."""
    at = [flat_limit(p, tol, flat_margin) for p in range(3)]
    for k in (-1, 0, 1):
        yield flat_table([ulps(m, k) for m in at])
    yield flat_table([ulps(at[0], -1), at[1], ulps(at[2], 1)])
    yield flat_table([ulps(at[0], 1), at[1], ulps(at[2], -1)])
    yield corner_table([
        [[-0.0, 5e-324], [0.0, -5e-324]],
        [[TINY / 2.0, -0.0], [-TINY, 0.0]],
        [[-0.0, -0.0], [0.0, 0.0]],
    ])
    yield flat_table([0.0, 0.0, tol / 8.0])
    at = [flat_limit(p, tol, corner_reach) for p in range(3)]
    for k in (-1, 0, 1):
        yield flat_table([ulps(m, k) for m in at])


def screen_tables(rng) -> list:
    """Perturbed pd3 tables; tables whose own slopes keep one sign, B's
    and C's far from the band and A's at magnitudes from 1e-300 to 1e149;
    coop_game()."""
    tables = []
    for _ in range(4):
        levels = np.array(PD_LEVELS) + rng.uniform(-0.2, 0.2, 6)
        tables.append(fg.pd3(fg.PdParams(*levels)))
    for exponent in np.linspace(-300.0, 149.0, 8):
        exponents = [exponent, *rng.uniform(1.0, 149.0, 2)]
        scales = rng.choice([-1.0, 1.0], 3) * 10.0 ** np.array(exponents)
        corners = scales[:, None, None] * rng.uniform(0.5, 1.0, (3, 2, 2))
        tables.append(corner_table(corners.tolist()))
    return tables + [fg.coop_game()]


def lattice(table, resolution: int, tol: float) -> list:
    return [plain(c) for c in fg.grid_ne_search(table, resolution, tol)]


def screens():
    rng = np.random.default_rng(20261024)
    tables = screen_tables(rng)
    blind = rng.normal(size=(2, 2, 2, 3))
    for p in range(3):
        blind[..., p] = np.take(blind[..., p], [0], axis=p)
    blind = fg.PayoffTable(blind.reshape(8, 3))
    for resolution in SCREEN_RESOLUTIONS:
        for tol in SCREEN_TOLS:
            cases = tables + list(margin_tables(resolution, tol))
            cases += [blind] if resolution <= 61 else []
            for k, table in enumerate(cases):
                yield f"{k} {resolution} {tol!r}\n" + call(lattice, table, resolution, tol)
    for resolution in FLAT_RESOLUTIONS:
        for tol in FLAT_TOLS:
            for k, table in enumerate(flat_tables(tol)):
                yield f"flat {k} {resolution} {tol!r}\n" + call(lattice, table, resolution, tol)


def part_digests() -> dict[str, tuple[int, str]]:
    """Each part's number of records and SHA-256, in part order."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        parts = {
            "scenarios": scenarios(), "ne": ne(workdir), "payoffs": payoffs(), "states": states(),
            "coalitions": coalitions(), "screens": screens(),
        }
        for name, records in parts.items():
            digest, count = hashlib.sha256(), 0
            for record in records:
                digest.update(record.encode("utf-8"))
                count += 1
            out[name] = count, digest.hexdigest()
    return out


def main_digest() -> int:
    total = hashlib.sha256()
    for name, (count, digest) in part_digests().items():
        total.update(f"{name} {digest}\n".encode("utf-8"))
        print(f"{name:<10} {count:>5} cases  {digest}")
    print(f"{'total':<10} {'':>5}        {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
