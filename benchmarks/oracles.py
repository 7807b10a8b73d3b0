"""Independent correctness oracles for the benchmark workloads.

Nothing here calls a finegames function: every expected value is
re-derived from the generated inputs with plain numpy, so a check
cannot pass because the library agrees with itself.

Basis and outcome index i has bits (a, b, c) = ((i >> 2) & 1,
(i >> 1) & 1, i & 1); bit 0 is the +1 outcome ("cooperate").
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

# Verdict threshold of the seed library (its SLACK_TOL); a verdict is
# only compared when the benchmark's own value is clear of it.
VERDICT_TOL = 1e-12
VERDICT_MARGIN = 1e-13
VALUE_TOL = 1e-9
REFERENCE_TOL = 1e-9
NE_TOL = 1e-9

PLAYER_BITS = (2, 1, 0)  # shift of player A, B, C inside an index
SUBSETS = [s for r in range(4) for s in itertools.combinations(range(3), r)]


def bit(index: int, player: int) -> int:
    return (index >> PLAYER_BITS[player]) & 1


# ---------------------------------------------------------------- states


def _kron3(f0, f1, f2) -> np.ndarray:
    return (f0[:, None, None] * f1[None, :, None] * f2[None, None, :]).reshape(8)


def descriptor_diagonal(desc: dict) -> np.ndarray:
    """Basis-outcome distribution diag(rho) of a state descriptor."""
    kind = desc["kind"]
    if kind == "mixed":
        return np.array(desc["weights"], dtype=float)
    amps = np.zeros(8, dtype=complex)
    if kind == "pure":
        amps[:] = [complex(re, im) for re, im in desc["amplitudes"]]
    elif kind == "product":
        factors = [
            np.exp(1j * d)
            * np.array([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)])
            for t, p, d in zip(desc["theta"], desc["phi"], desc["delta"])
        ]
        amps[:] = _kron3(*factors)
    else:
        slots = {"ghz": ("a", "b"), "w": ("c2", "c3", "c5"), "pd": ("c4", "c6", "c7")}
        indices = {"ghz": (0, 7), "w": (1, 2, 4), "pd": (3, 5, 6)}
        for key, idx in zip(slots[kind], indices[kind]):
            re, im = desc[key]
            amps[idx] = complex(re, im)
    return np.abs(amps) ** 2


def event_sums(q: np.ndarray) -> dict[str, np.ndarray]:
    """Seven marginal values of a distribution under both readings.

    Each value is a plain sum of q over the outcomes in its event, in
    the order (lam, mu, nu, p_ab, p_bc, p_ac, xi).
    """
    groups = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))
    conj, par = [], []
    for g in groups:
        all_plus = [i for i in range(8) if all(bit(i, p) == 0 for p in g)]
        even = [i for i in range(8) if sum(bit(i, p) for p in g) % 2 == 0]
        conj.append(q[all_plus].sum())
        par.append(q[even].sum())
    return {"conjunction": np.array(conj), "parity": np.array(par)}


def literal_terms(values) -> np.ndarray:
    """Outcome weights implied by seven values read as conjunction events.

    Moebius inversion over the subsets of players: the weight of the
    outcome whose +1 players are exactly T is the alternating sum of the
    "all of S are +1" values over the supersets S of T.
    """
    lam, mu, nu, p_ab, p_bc, p_ac, xi = (float(v) for v in values)
    v = {(): 1.0, (0,): lam, (1,): mu, (2,): nu, (0, 1): p_ab, (1, 2): p_bc,
         (0, 2): p_ac, (0, 1, 2): xi}
    terms = np.zeros(8)
    for i in range(8):
        plus = {p for p in range(3) if bit(i, p) == 0}
        terms[i] = sum(
            (-1) ** (len(s) - len(plus)) * v[s] for s in SUBSETS if plus <= set(s)
        )
    return terms


def bell_min_slack(values) -> float:
    """Smallest slack of the four joint-existence inequalities."""
    lam, mu, nu, p_ab, p_bc, p_ac, _ = (float(v) for v in values)
    return min(
        1.0 + p_ab + p_ac + p_bc - (lam + mu + nu),
        lam + p_bc - (p_ab + p_ac),
        mu + p_ac - (p_ab + p_bc),
        nu + p_ab - (p_ac + p_bc),
    )


def near_threshold(value: float) -> bool:
    """Is `value` too close to -VERDICT_TOL for rounding to settle its side?"""
    return abs(value + VERDICT_TOL) <= VERDICT_MARGIN


def verdict_agrees(value: float, verdict: bool) -> bool:
    """Does `verdict` equal value >= -VERDICT_TOL, where that is clear-cut?"""
    return near_threshold(value) or verdict == (value >= -VERDICT_TOL)


# ------------------------------------------------------------- lattices


def _lattice_slice(t: np.ndarray, w: np.ndarray, i: int) -> np.ndarray:
    """Payoffs (j, k, player) with A at lattice point i, by broadcasting."""
    weights = (
        w[i][None, None, :, None, None]
        * w[:, None, None, :, None]
        * w[None, :, None, None, :]
    )
    return (weights[..., None] * t[None, None]).sum(axis=(2, 3, 4))


def lattice_equilibria(entries, resolution: int) -> list[tuple[float, float, float]]:
    """Sorted lattice triples where no player gains by moving to an endpoint.

    Builds the payoffs one slice of the first player's axis at a time,
    so memory stays at one resolution^2 slice per player.
    """
    grid = np.linspace(0.0, 1.0, resolution)
    w = np.stack([grid, 1.0 - grid], axis=1)
    t = np.asarray(entries, dtype=float).reshape(2, 2, 2, 3)
    first = _lattice_slice(t, w, 0)[:, :, 0]
    last = _lattice_slice(t, w, resolution - 1)[:, :, 0]
    dev_a = np.maximum(first, last)
    found = []
    for i in range(resolution):
        s = _lattice_slice(t, w, i)
        dev_b = np.maximum(s[0, :, 1], s[-1, :, 1])[None, :]
        dev_c = np.maximum(s[:, 0, 2], s[:, -1, 2])[:, None]
        ok = (
            (s[:, :, 0] - dev_a >= -NE_TOL)
            & (s[:, :, 1] - dev_b >= -NE_TOL)
            & (s[:, :, 2] - dev_c >= -NE_TOL)
        )
        found.extend(
            (float(grid[i]), float(grid[j]), float(grid[k])) for j, k in zip(*np.nonzero(ok))
        )
    return sorted(found)


# --------------------------------------------------------------- reports


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


VERDICT_LISTS = ("ne_findings", "lattice_equilibria", "parity_violated_terms", "reference")


def verdicts(report: dict) -> dict[str, object]:
    """Verdict fingerprint of a report: every boolean leaf by path,
    the lengths of the finding lists, and whether paper_deviation is set."""
    found: dict[str, object] = {
        "paper_deviation_present": report.get("paper_deviation") is not None
    }

    def walk(value, path):
        if isinstance(value, bool):
            found[path] = value
        elif isinstance(value, dict):
            for key, item in value.items():
                if key in VERDICT_LISTS and isinstance(item, list):
                    found[f"{path}/{key}#len"] = len(item)
                walk(item, f"{path}/{key}")
        elif isinstance(value, list):
            for n, item in enumerate(value):
                walk(item, f"{path}/{n}")

    walk(report, "")
    return found


def reference_rows_ok(report: dict) -> bool:
    """Every reference row is within REFERENCE_TOL and states its delta."""
    for row in report["reference"]:
        delta = abs(row["expected"] - row["computed"])
        if delta > REFERENCE_TOL or abs(delta - row["abs_delta"]) > 1e-15:
            return False
    return True
