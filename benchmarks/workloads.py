"""The four benchmark workloads: seeded inputs, one timed op, its check.

Each workload is built from the finegames package module `fg` and a
seed. `make_input()` draws the next op's inputs (untimed), `run()` is
the timed op and `check()` compares its outputs with the oracles in
`oracles.py`. Library functions are looked up on the package modules
at call time, so a tracer that rebinds them sees every call.

`cli_args()` writes the input file of the workload's command-line
equivalent under the given directory and returns its arguments; the
runner launches it to measure set-up time and `check_cli()` verifies
what it wrote.
"""

from __future__ import annotations

import json

import numpy as np

import oracles

STATE_KINDS = ("pure", "mixed", "product", "ghz", "w", "pd")
DEFAULT_PD_LEVELS = (7.0, 9.0, 3.0, 0.0, 1.0, 5.0)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unit_complex(rng, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def state_descriptor(rng, kind: str) -> dict:
    """One seeded state descriptor of the given kind."""
    if kind == "pure":
        return {"kind": "pure", "amplitudes": [_pair(z) for z in _unit_complex(rng, 8)]}
    if kind == "mixed":
        return {"kind": "mixed", "weights": [float(x) for x in rng.dirichlet(np.ones(8))]}
    if kind == "product":
        return {
            "kind": "product",
            "theta": [float(x) for x in rng.uniform(0.0, np.pi, 3)],
            "phi": [float(x) for x in rng.uniform(0.0, 2 * np.pi, 3)],
            "delta": [float(x) for x in rng.uniform(0.0, 2 * np.pi, 3)],
        }
    if kind == "ghz":
        t = rng.uniform(0.0, np.pi / 2)
        phases = rng.uniform(0.0, 2 * np.pi, 2)
        return {
            "kind": "ghz",
            "a": _pair(np.cos(t) * np.exp(1j * phases[0])),
            "b": _pair(np.sin(t) * np.exp(1j * phases[1])),
        }
    keys = ("c2", "c3", "c5") if kind == "w" else ("c4", "c6", "c7")
    return {"kind": kind, **{k: _pair(z) for k, z in zip(keys, _unit_complex(rng, 3))}}


def _values(m) -> tuple[float, ...]:
    """The seven values of a MarginalSet, read from its fields (checks
    call no package code, so a traced run counts only the op's calls)."""
    return (m.lam, m.mu, m.nu, m.p_ab, m.p_bc, m.p_ac, m.xi)


def _close(a, b, tol: float = oracles.VALUE_TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= tol)


class Reproduce:
    """All eight scenarios at their published defaults, rendered both ways."""

    name = "reproduce"

    def __init__(self, fg, expected: dict, schema: dict):
        import jsonschema

        self.fg = fg
        self.expected = expected
        self.ids = list(expected)
        self.validator = jsonschema.Draft7Validator(schema)
        self.valid_digests: set[str] = set()  # reports already validated
        self.drift = 0

    def make_input(self):
        return None

    def run(self, _inp):
        fg = self.fg
        out = []
        for sid in self.ids:
            report = fg.run_scenario(sid).to_dict()
            out.append((sid, fg.render_json(report), fg.render_markdown(f"scenario {sid}", report)))
        return out

    def check(self, _inp, out) -> bool:
        ok = [sid for sid, _, _ in out] == self.ids
        for sid, text, md in out:
            seed = self.expected[sid]
            report = json.loads(text)
            digest = oracles.report_digest(text)
            if digest != seed["sha256"]:
                self.drift += 1
            if digest not in self.valid_digests and self.validator.is_valid(report):
                self.valid_digests.add(digest)
            now = oracles.verdicts(report)
            ok = (
                ok
                and digest in self.valid_digests
                and oracles.reference_rows_ok(report)
                and all(now.get(path) == value for path, value in seed["verdicts"].items())
                and md.startswith(f"# scenario {sid}\n")
            )
        return ok

    def cli_args(self, _work) -> list[str]:
        return ["scenario", "--id", "pd-ghz"]

    def check_cli(self, text: str) -> bool:
        return text == self.fg.render_json(self.fg.run_scenario("pd-ghz").to_dict())


class StateSweep:
    """64 seeded states per op through marginals, existence and payoffs."""

    name = "state-sweep"
    states_per_op = 64

    def __init__(self, fg, seed: int):
        self.fg = fg
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.table = fg.pd3()
        self.no_joint = 0

    def make_input(self):
        return [
            state_descriptor(self.rng, STATE_KINDS[n % len(STATE_KINDS)])
            for n in range(self.states_per_op)
        ]

    def run(self, descriptors):
        fg = self.fg
        conj, par = fg.MarginalConvention.CONJUNCTION, fg.MarginalConvention.PARITY
        out = []
        for desc in descriptors:
            rho = fg.state_density(fg.load_state(desc))
            m_conj = fg.extract_marginals(rho, conj)
            m_par = fg.extract_marginals(rho, par)
            bell_conj = fg.bell_slacks(m_conj)
            bell_par = fg.bell_slacks(m_par)
            interval = fg.xi_interval(m_conj)
            joint = fg.reconstruct_joint(m_conj)
            try:
                par_joint = fg.reconstruct_joint(m_par)
            except fg.NoJointError as err:
                par_joint = err
            inversion = fg.weights_from_marginals(m_par)
            payoffs = fg.payoff_marginal_form(self.table, m_par)
            out.append(
                (m_conj, m_par, bell_conj, bell_par, interval, joint, par_joint, inversion, payoffs)
            )
        return out

    def check(self, descriptors, out) -> bool:
        ok = len(out) == len(descriptors)
        for desc, res in zip(descriptors, out):
            m_conj, m_par, bell_conj, bell_par, interval, joint, par_joint, inversion, payoffs = res
            q = oracles.descriptor_diagonal(desc)
            sums = oracles.event_sums(q)
            par_values = _values(m_par)
            terms = oracles.literal_terms(par_values)
            min_term = float(terms.min())
            no_joint = isinstance(par_joint, self.fg.NoJointError)
            self.no_joint += no_joint
            if no_joint:
                bad = tuple(int(i) for i in np.nonzero(terms < -oracles.VERDICT_TOL)[0])
                par_ok = bad == par_joint.violated_terms or any(
                    oracles.near_threshold(t) for t in terms
                )
            else:
                par_ok = _close(par_joint.prob, np.clip(terms, 0.0, None))
            ok = (
                ok
                and par_ok
                and _close(_values(m_conj), sums["conjunction"])
                and _close(par_values, sums["parity"])
                and _close(joint.prob, q)
                and inversion.feasible
                and _close(inversion.weights, q)
                and interval.lower - oracles.VERDICT_TOL <= m_conj.xi <= interval.upper + oracles.VERDICT_TOL
                and oracles.verdict_agrees(min_term, not no_joint)
                and oracles.verdict_agrees(oracles.bell_min_slack(par_values), bell_par.satisfied)
                and oracles.verdict_agrees(oracles.bell_min_slack(_values(m_conj)), bell_conj.satisfied)
                and bell_conj.satisfied
                and _close(payoffs, terms @ self.table.entries)
            )
        return ok

    def cli_args(self, work) -> list[str]:
        rng = np.random.default_rng([self.seed, 1])
        self.cli_q = oracles.descriptor_diagonal(state_descriptor(rng, "mixed"))
        path = work / "marginals.json"
        values = oracles.event_sums(self.cli_q)["conjunction"]
        keys = ("lambda", "mu", "nu", "p_ab", "p_bc", "p_ac", "xi")
        path.write_text(json.dumps({"convention": "conjunction", **dict(zip(keys, values.tolist()))}))
        return ["fine", "--marginals", str(path)]

    def check_cli(self, text: str) -> bool:
        payload = json.loads(text)
        return payload["exists"] is True and _close(payload["joint"]["prob"], self.cli_q)


class Lattice:
    """grid_ne_search over a pool of seeded games, certificates rendered."""

    pool_size = 16

    def __init__(self, fg, name: str, resolution: int, games):
        self.fg = fg
        self.name = name
        self.resolution = resolution
        self.descriptors = games
        self.tables = [fg.load_game(d) for d in games]
        self.expected = [
            oracles.lattice_equilibria(t.entries, resolution) for t in self.tables
        ]
        self.next = 0

    def make_input(self):
        n = self.next
        self.next = (n + 1) % len(self.tables)
        return n

    def run(self, n):
        fg = self.fg
        found = fg.grid_ne_search(self.tables[n], self.resolution)
        payload = {
            "resolution": self.resolution,
            "count": len(found),
            "equilibria": [fg.serialize.certificate_to_dict(c) for c in found],
        }
        return found, fg.render_json(payload)

    def check(self, n, out) -> bool:
        found, text = out
        expected = self.expected[n]
        return (
            [(c.triple.lam, c.triple.mu, c.triple.nu) for c in found] == expected
            and all(c.is_ne for c in found)
            and self._check_payload(json.loads(text), expected)
        )

    def _check_payload(self, payload: dict, expected) -> bool:
        return (
            payload["count"] == len(expected)
            and [tuple(e["triple"]) for e in payload["equilibria"]] == expected
            and all(e["is_ne"] for e in payload["equilibria"])
        )

    def cli_args(self, work) -> list[str]:
        path = work / "game.json"
        path.write_text(json.dumps(self.descriptors[0]))
        return ["ne", "--mode", "grid", "--resolution", str(self.resolution), "--game", str(path)]

    def check_cli(self, text: str) -> bool:
        return self._check_payload(json.loads(text), self.expected[0])


def sparse_games(seed: int, count: int) -> list[dict]:
    """Alternating perturbed dilemmas and generic normal payoff tables."""
    rng = np.random.default_rng(seed)
    games = []
    for n in range(count):
        if n % 2 == 0:
            levels = np.array(DEFAULT_PD_LEVELS) + rng.uniform(-0.2, 0.2, 6)
            games.append({"kind": "pd3", "params": [float(x) for x in levels]})
        else:
            rows = rng.normal(size=(8, 3))
            games.append({"kind": "custom", "rows": rows.tolist()})
    return games


def dense_games(seed: int, count: int) -> list[dict]:
    """Tables where each player's payoff ignores their own choice."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        others = rng.normal(size=(3, 4))
        rows = []
        for i in range(8):
            bits = [oracles.bit(i, p) for p in range(3)]
            row = []
            for p in range(3):
                rest = [b for q, b in enumerate(bits) if q != p]
                row.append(float(others[p, 2 * rest[0] + rest[1]]))
            rows.append(row)
        games.append({"kind": "custom", "rows": rows})
    return games


def build(name: str, fg, seed: int, expected_reports: dict, schema: dict):
    if name == "reproduce":
        return Reproduce(fg, expected_reports, schema)
    if name == "state-sweep":
        return StateSweep(fg, seed)
    if name == "lattice-sparse":
        return Lattice(fg, name, 61, sparse_games(seed, Lattice.pool_size))
    if name == "lattice-dense":
        return Lattice(fg, name, 5, dense_games(seed, Lattice.pool_size))
    raise ValueError(f"unknown workload {name!r}")
