"""Validate once: objects the library builds from values it has already
checked equal what the public constructors build, bit for bit; the
pipeline runs no second check; every public constructor keeps its
checks and messages."""

import collections
import dataclasses
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

import finegames.equilibrium as equilibrium
import finegames.fine as fine
import finegames.games as games
import finegames.measurement as measurement
import finegames.qstates as qstates
from finegames import (
    BellReport,
    CoalitionReduction,
    DensityMatrix,
    DiagonalMixedState,
    InvalidDensityError,
    JointDistribution,
    MarginalConvention,
    MarginalSet,
    NeCertificate,
    NoJointError,
    NormalizationError,
    PayoffTable,
    PdParams,
    PovmElement,
    ProductStateAngles,
    PureState,
    RangeError,
    SCENARIO_IDS,
    ScenarioReport,
    ShapeError,
    StrategyTriple,
    WeightInversion,
    XiRule,
    bell_slack_values,
    bell_slacks,
    coalition_analysis,
    coalition_reduction,
    convert_marginals,
    coop_game,
    extract_marginals,
    grid_ne_search,
    load_state,
    marginal_values,
    marginals_from_joint,
    payoff_marginal_form,
    pd3,
    product_state,
    reconstruct_joint,
    run_scenario,
    state_density,
    verify_ne_factorizable,
    weights_from_marginals,
    xi_interval,
)
from finegames.errors import NORMALIZATION_TOL

CONJ, PAR = MarginalConvention.CONJUNCTION, MarginalConvention.PARITY


# Verdicts and copies that result types derive from their fields.
DERIVED = ("satisfied", "negative_indices", "feasible", "is_empty", "members", "reduced")


def assert_same(a, b):
    """Equal types and bits, derived values included; zeros must agree in sign."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
        for name in DERIVED:
            if isinstance(getattr(type(a), name, None), property):
                assert_same(getattr(a, name), getattr(b, name))
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
        for part in ("real", "imag") if np.iscomplexobj(a) else ("real",):
            x, y = getattr(a, part), getattr(b, part)
            assert (x == y).all() and (np.signbit(x) == np.signbit(y)).all()
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, float):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    else:
        assert a == b


def _pair(z):
    return [float(z.real), float(z.imag)]


def _unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def state_descriptors(seed, per_kind=6):
    """Seeded descriptors of all six state kinds, plus sparse edge cases."""
    rng = np.random.default_rng(seed)
    out = [
        {"kind": "ghz", "a": 1.0, "b": 0.0},
        {"kind": "product", "theta": [0.0, np.pi, np.pi / 2]},
        {"kind": "mixed", "weights": [1.0, 0, 0, 0, 0, 0, 0, 0]},
        {"kind": "pure", "amplitudes": [[0.0, -1.0]] + [0.0] * 7},
    ]
    for _ in range(per_kind):
        out += [
            {"kind": "pure", "amplitudes": [_pair(z) for z in _unit(rng, 8)]},
            {"kind": "mixed", "weights": rng.dirichlet(np.ones(8)).tolist()},
            {
                "kind": "product",
                "theta": rng.uniform(0.0, np.pi, 3).tolist(),
                "phi": rng.uniform(0.0, 2 * np.pi, 3).tolist(),
                "delta": rng.uniform(0.0, 2 * np.pi, 3).tolist(),
            },
            {"kind": "ghz", **dict(zip("ab", map(_pair, _unit(rng, 2))))},
            {"kind": "w", **dict(zip(("c2", "c3", "c5"), map(_pair, _unit(rng, 3))))},
            {"kind": "pd", **dict(zip(("c4", "c6", "c7"), map(_pair, _unit(rng, 3))))},
        ]
    return out


def public_density(state):
    if isinstance(state, PureState):
        amps = state.amplitudes
        return DensityMatrix(np.outer(amps, amps.conj()))
    return DensityMatrix(np.diag(state.weights.astype(np.complex128)))


def public_marginals(diagonal, convention):
    return MarginalSet(*marginal_values(diagonal, convention).tolist(), convention)


def public_bell(m):
    note = f"evaluated on {m.convention.value}-convention values"
    return BellReport(tuple(bell_slack_values(m.values())), note)


def outcome(build):
    """The object a build returns, or the type and text of its error."""
    try:
        return build()
    except (RangeError, NoJointError) as err:
        return type(err), str(err)


def assert_same_outcome(trusted, public):
    a, b = outcome(trusted), outcome(public)
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
    else:
        assert_same(a, b)


def blind_table(seed):
    """Each player's payoff ignores their own choice."""
    others = np.random.default_rng(seed).normal(size=(3, 2, 2))
    rows = [
        [float(others[p][tuple(np.delete(bits, p))]) for p in range(3)]
        for bits in itertools.product((0, 1), repeat=3)
    ]
    return PayoffTable(np.array(rows))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trusted_states_and_marginals_equal_public_ones(seed):
    for desc in state_descriptors(seed):
        state = load_state(desc)
        rho = state_density(state)
        assert_same(rho, public_density(state))
        for conv in (CONJ, PAR):
            m = extract_marginals(rho, conv)
            assert_same(m, public_marginals(rho.diagonal(), conv))
            assert_same(bell_slacks(m), public_bell(m))
            inversion = weights_from_marginals(m)
            assert_same(inversion, WeightInversion(inversion.weights))
            other = PAR if conv is CONJ else CONJ
            converted = marginal_values(inversion.weights, other)
            assert_same_outcome(
                lambda: convert_marginals(m, other),
                lambda: MarginalSet(m.lam, m.mu, m.nu, *converted[3:].tolist(), other),
            )


def test_trusted_product_states_equal_public_ones():
    rng = np.random.default_rng(11)
    below = np.nextafter(2 * np.pi, 0.0)  # phi and delta just below 2*pi
    draws = [rng.uniform(0.0, (np.pi, 2 * np.pi, 2 * np.pi), (3, 3)).T for _ in range(200)]
    draws += [
        (np.array(theta), np.full(3, phase), np.full(3, phase))
        for theta in itertools.product((0.0, np.pi), repeat=3)
        for phase in (0.0, below)
    ]
    for theta, phi, delta in draws:
        state = product_state(ProductStateAngles(theta, phi, delta))
        assert_same(state, PureState(state.amplitudes))
        norm = float((np.abs(state.amplitudes) ** 2).sum())
        assert abs(norm - 1.0) <= NORMALIZATION_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trusted_joints_and_reports_equal_public_ones(seed):
    rng = np.random.default_rng(seed)
    sets = [extract_marginals(state_density(load_state(d)), c)
            for d in state_descriptors(seed) for c in (CONJ, PAR)]
    joints = [JointDistribution(np.eye(8)[3])]
    for _ in range(5):
        p = rng.dirichlet(np.ones(8)) * (rng.random(8) < 0.7)
        if p.sum() > 0:
            joints.append(JointDistribution(p / p.sum()))
    raised = 0
    for m in sets:
        for rule in XiRule:
            try:
                joint = reconstruct_joint(m, rule)
            except NoJointError:
                raised += 1
                continue
            assert_same(joint, JointDistribution(joint.prob))
            joints.append(joint)
    assert raised  # parity sets of entangled states have no literal joint
    for joint in joints:
        for conv in (CONJ, PAR):
            assert_same_outcome(
                lambda: marginals_from_joint(joint, conv),
                lambda: public_marginals(joint.prob, conv),
            )


@pytest.mark.parametrize("resolution", [5, 11])
@pytest.mark.parametrize("table", [pd3(), coop_game(), blind_table(3)], ids=["pd3", "coop", "blind"])
def test_trusted_certificates_equal_public_ones(table, resolution):
    certs = grid_ne_search(table, resolution)
    assert certs
    for cert in certs:
        triple = StrategyTriple(*cert.triple.as_tuple())
        public = NeCertificate(triple, cert.player_slack, cert.is_ne, cert.note)
        assert_same(cert, public)
        assert_same(cert, verify_ne_factorizable(table, triple))


def test_frechet_check_still_guards_library_built_sets():
    # Values that pass marginal_values' range check can still break a
    # Frechet bound by more than ZERO_TOL: a density accepted with
    # diagonal entries down to EIGENVALUE_FLOOR, a joint with entries
    # down to -SLACK_TOL, or a parity set with no joint behind it.
    rho = DensityMatrix(np.diag([0.3, 0.2, -5e-11, 0.2, 0.1, 0.1, 0.05, 0.05 + 5e-11]))
    with pytest.raises(RangeError, match=r"^xi = .* exceeds smallest pair probability$"):
        extract_marginals(rho, CONJ)
    joint = JointDistribution(np.array([0.5, 0.25 + 2e-12, -1e-12, -1e-12, 0.0, 0.0, 0.25, 0.0]))
    with pytest.raises(RangeError, match=r"^p_ab = .* exceeds min of its singles 0\.75$"):
        marginals_from_joint(joint, CONJ)
    m = MarginalSet(0.7294965609839984, 0.5436249914654229, 0.9350724237877682,
                    0.8158535541215322, 0.002738500170148095, 0.8574042765875693,
                    0.033585575305464355, PAR)
    with pytest.raises(RangeError, match=r"^p_ab = 0\.5444875532854767 exceeds min "
                                         r"of its singles 0\.5436249914654229$"):
        convert_marginals(m, CONJ)


WATCHED = [(qstates, "validate_densities"), (np.linalg, "eigvalsh")] + [
    (cls, "__post_init__")
    for cls in (DensityMatrix, MarginalSet, BellReport, JointDistribution, WeightInversion,
                StrategyTriple, NeCertificate, PayoffTable, PdParams, CoalitionReduction)
]


@pytest.fixture
def check_calls(monkeypatch):
    """Counts the calls of every density check and watched __post_init__."""
    counts = collections.Counter()

    def counted(key, inner):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)
        return wrapper

    for owner, name in WATCHED:
        key = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return counts


def run_state_pipeline(table, descriptors):
    """Every state through both readings, existence and payoffs, as the
    state-sweep benchmark runs them; returns the last joint and set."""
    for desc in descriptors:
        rho = state_density(load_state(desc))
        m_conj, m_par = extract_marginals(rho, CONJ), extract_marginals(rho, PAR)
        bell_slacks(m_conj), bell_slacks(m_par)
        xi_interval(m_conj)
        joint = reconstruct_joint(m_conj)
        for rule in (XiRule.GIVEN, XiRule.MIDPOINT):
            try:
                reconstruct_joint(m_par, rule)
            except NoJointError:
                pass
        marginals_from_joint(joint, PAR)
        convert_marginals(m_par, CONJ)
        weights_from_marginals(m_par)
        payoff_marginal_form(table, m_par)
    return joint, m_par


def test_pipeline_runs_no_second_check(request):
    blind = blind_table(4)  # a public table: built before the counters start
    check_calls = request.getfixturevalue("check_calls")
    table = pd3()
    joint, m_par = run_state_pipeline(table, state_descriptors(5, per_kind=2))
    assert len(grid_ne_search(blind, 5)) == 125
    grid_ne_search(table, 11)
    coalition_analysis(coop_game())
    assert check_calls == {}
    # The counters see every public constructor's checks.
    DensityMatrix(np.eye(8) / 8)
    MarginalSet(*m_par.values(), PAR)
    BellReport((0.0,) * 4, "n")
    JointDistribution(joint.prob)
    WeightInversion(joint.prob)
    NeCertificate(StrategyTriple(0, 0, 0), (0.0,) * 3, True, "n")
    PayoffTable(np.zeros((8, 3)))
    PdParams(7.0, 9.0, 3.0, 0.0, 1.0, 5.0)
    CoalitionReduction("A", np.zeros((4, 2)), (0, 1), 0.0, (0.5, 0.5), (0.5, 0.5))
    assert set(check_calls) == {f"{o.__name__}.{n}" for o, n in WATCHED}
    assert set(check_calls.values()) == {1}


def test_default_reproduction_runs_no_table_check(request):
    for scenario_id in SCENARIO_IDS:  # the first run of each parses its defaults
        run_scenario(scenario_id)
    check_calls = request.getfixturevalue("check_calls")
    for scenario_id in SCENARIO_IDS:
        run_scenario(scenario_id)
    tables = ("PayoffTable.__post_init__", "PdParams.__post_init__")
    assert [check_calls[key] for key in tables] == [0, 0]
    # Supplied levels are parsed and checked; pd3 builds their table unchecked.
    run_scenario("pd-product", {"pd_params": [7.0, 9.0, 3.0, 0.0, 1.0, 5.0]})
    assert [check_calls[key] for key in tables] == [0, 1]


# numpy's module-level wrappers: each costs a Python-level dispatch that
# the matching ndarray method or broadcast does without.
NUMPY_WRAPPERS = ("any", "all", "sum", "nonzero", "outer")


def test_state_pipeline_calls_no_numpy_wrapper(monkeypatch):
    table, descriptors = pd3(), state_descriptors(5, per_kind=2)
    counts = collections.Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in NUMPY_WRAPPERS:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    run_state_pipeline(table, descriptors)
    assert counts == {}
    # The counters see a call made through the module.
    np.sum(np.ones(2))
    assert counts == {"sum": 1}


@pytest.fixture
def trusted_objects(monkeypatch):
    """Records every object the library builds through _trusted."""
    built = []
    original = qstates._trusted

    def recording(cls, **fields):
        obj = original(cls, **fields)
        built.append(obj)
        return obj

    for module in (qstates, measurement, fine, games, equilibrium):
        monkeypatch.setattr(module, "_trusted", recording)
    return built


def outcome_of(op):
    """What op() returns, or the type of what it raises."""
    try:
        return op()
    except (TypeError, ValueError) as err:
        return type(err)


def test_trusted_objects_behave_as_public_ones(trusted_objects):
    run_state_pipeline(pd3(), state_descriptors(5, per_kind=2))
    grid_ne_search(blind_table(4), 3)
    coalition_analysis(coop_game())
    kinds = {type(obj) for obj in trusted_objects}
    assert kinds == {PureState, DensityMatrix, MarginalSet, BellReport, JointDistribution,
                     NeCertificate, StrategyTriple, PayoffTable, CoalitionReduction}
    for cls in kinds:
        # One __dict__.update stands for per-field setattr only without slots.
        assert not hasattr(cls, "__slots__")
    for obj in trusted_objects:
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
        public, again = type(obj)(**fields), type(obj)(**fields)
        assert outcome_of(lambda: obj == public) == outcome_of(lambda: again == public)
        assert outcome_of(lambda: hash(obj)) == outcome_of(lambda: hash(public))
        assert repr(obj) == repr(public)
        assert_same(dataclasses.asdict(obj), dataclasses.asdict(public))
        # Unpickled arrays come back writeable, the public ones' too.
        assert_same(pickle.loads(pickle.dumps(obj)), pickle.loads(pickle.dumps(public)))


def _nan_diagonal():
    return np.where(np.eye(8) == 1, np.nan, 0.0)


def _off_hermitian():
    rho = np.diag(np.full(8, 1 / 8)).astype(np.complex128)
    rho[0, 1] = 0.25
    return rho


def _diag(*head):
    return np.diag(np.array(head + (0.0,) * (8 - len(head))))


def _ms(*values, convention=PAR):
    return lambda: MarginalSet(*values, convention)


NAN, INF = float("nan"), float("inf")

# Error type and message of each public constructor on bad input,
# captured before library-built objects skipped their constructors.
CONSTRUCTOR_ERRORS = [
    (lambda: DensityMatrix(np.eye(4)), ShapeError, "density matrix must be 8x8, got (4, 4)"),
    (lambda: DensityMatrix(np.ones(8)), ShapeError, "density matrix must be 8x8, got (8,)"),
    (lambda: DensityMatrix(_nan_diagonal()), ShapeError, "density matrix contains non-finite entries"),
    (lambda: DensityMatrix(_off_hermitian()), InvalidDensityError, "matrix is not hermitian: max defect 0.25"),
    (lambda: DensityMatrix(_diag(2.0)), InvalidDensityError, "trace is (2+0j), not 1"),
    (lambda: DensityMatrix(_diag(1.5, -0.5)), InvalidDensityError,
     "matrix is not positive semidefinite: min eigenvalue -0.5"),
    (lambda: MarginalSet(0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, "parity"), ShapeError,
     "convention must be a MarginalConvention"),
    (_ms(0.5, NAN, 0.5, 0.25, 0.25, 0.25, 0.125), RangeError, "mu is not finite"),
    (_ms(0.5, 0.5, 0.5, 0.25, 0.25, 0.25, INF), RangeError, "xi is not finite"),
    (_ms(1.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125), RangeError, "lam = 1.5 outside [0, 1]"),
    (_ms(0.5, 0.5, 0.5, 0.25, -0.25, 0.25, 0.125), RangeError, "p_bc = -0.25 outside [0, 1]"),
    (_ms(0.5, 0.4, 0.5, 0.45, 0.2, 0.25, 0.1, convention=CONJ), RangeError,
     "p_ab = 0.45 exceeds min of its singles 0.4"),
    (_ms(0.9, 0.8, 0.5, 0.6, 0.4, 0.45, 0.3, convention=CONJ), RangeError,
     "p_ab = 0.6 below singles overlap bound 0.7000000000000002"),
    (_ms(0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.3, convention=CONJ), RangeError,
     "xi = 0.3 exceeds smallest pair probability"),
    (lambda: BellReport((0.0, 0.0, 0.0), "n"), ShapeError, "slack must be four finite reals"),
    (lambda: BellReport((0.0, 0.0, NAN, 0.0), "n"), ShapeError, "slack must be four finite reals"),
    (lambda: JointDistribution(np.full(7, 1 / 7)), ShapeError,
     "joint distribution must have 8 entries, got (7,)"),
    (lambda: JointDistribution(np.array([NAN] + [1 / 7] * 7)), RangeError,
     "joint distribution contains non-finite entries"),
    (lambda: JointDistribution(np.diag(_diag(-0.25, 0.5, 0.75))), RangeError,
     "joint distribution has negative entries: min -0.25"),
    (lambda: JointDistribution(np.diag(_diag(0.5, 0.25))), RangeError,
     "joint distribution sums to 0.75, not 1"),
    (lambda: StrategyTriple(1.5, 0.5, 0.5), RangeError, "strategy lam = 1.5 outside [0, 1]"),
    (lambda: StrategyTriple(0.5, NAN, 0.5), RangeError, "strategy mu = nan outside [0, 1]"),
    (lambda: StrategyTriple(0.5, 0.5, -0.25), RangeError, "strategy nu = -0.25 outside [0, 1]"),
    (lambda: NeCertificate(StrategyTriple(0, 0, 0), (0.0, 0.0), True, "n"), ShapeError,
     "player_slack must be three finite reals"),
    (lambda: NeCertificate(StrategyTriple(0, 0, 0), (0.0, -INF, 0.0), True, "n"), ShapeError,
     "player_slack must be three finite reals"),
    (lambda: PureState(np.ones(7)), ShapeError, "amplitudes must have shape (8,), got (7,)"),
    (lambda: PureState(np.diag(_diag(NAN))), ShapeError, "amplitudes contains non-finite entries"),
    # The norm is tested first: a non-finite entry fails it, and then
    # the non-finite error wins, unnormalized or not.
    pytest.param(lambda: PureState(np.diag(_diag(INF))), ShapeError,
                 "amplitudes contains non-finite entries", id="amplitudes-inf"),
    pytest.param(lambda: PureState(np.diag(_diag(1.0, 1.0, INF))), ShapeError,
                 "amplitudes contains non-finite entries", id="amplitudes-unnormalized-inf"),
    (lambda: PureState(np.diag(_diag(1.0, 1.0))), NormalizationError,
     "amplitude norm squared is 2.0, not 1 within 1e-09"),
    (lambda: DiagonalMixedState(np.ones(3) / 3), ShapeError, "weights must have shape (8,), got (3,)"),
    (lambda: DiagonalMixedState(np.diag(_diag(INF))), ShapeError,
     "weights contains non-finite entries"),
    (lambda: DiagonalMixedState(np.diag(_diag(1.5, -0.5))), RangeError,
     "mixture weights must lie in [0, 1]"),
    (lambda: DiagonalMixedState(np.diag(_diag(0.5))), NormalizationError,
     "mixture weights sum to 0.5, not 1 within 1e-09"),
    (lambda: WeightInversion(np.ones((1, 2))), ShapeError,
     "weights must have shape (8,), got (1, 2)"),
    (lambda: WeightInversion([0.5] * 7), ShapeError, "weights must have shape (8,), got (7,)"),
    (lambda: WeightInversion([NAN] + [0.125] * 7), ShapeError,
     "weights contains non-finite entries"),
    (lambda: CoalitionReduction("A", np.zeros((2, 2)), (0, 1), 0.0, (1.0, 0.0), (1.0, 0.0)),
     ShapeError, "full_matrix must be 4x2, got (2, 2)"),
    (lambda: CoalitionReduction("A", np.full((4, 2), INF), (0, 1), 0.0, (1.0, 0.0), (1.0, 0.0)),
     ShapeError, "full_matrix contains non-finite entries"),
    (lambda: CoalitionReduction("Z", np.zeros((4, 2)), (0, 7), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "odd_player must be one of ('A', 'B', 'C'), got 'Z'"),
    # coalition_reduction refuses an odd player with the same message.
    (lambda: coalition_reduction(coop_game(), "Z"), ShapeError,
     "odd_player must be one of ('A', 'B', 'C'), got 'Z'"),
    (lambda: CoalitionReduction("C", np.zeros((4, 2)), (0, 7), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "kept_rows must be two distinct indices in 0..3, got (0, 7)"),
    (lambda: CoalitionReduction("C", np.zeros((4, 2)), (2, 2), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "kept_rows must be two distinct indices in 0..3, got (2, 2)"),
    (lambda: CoalitionReduction("C", np.zeros((4, 2)), (1, 2, 3), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "kept_rows must be two distinct indices in 0..3, got (1, 2, 3)"),
    (lambda: CoalitionReduction("C", np.zeros((4, 2)), (-1, 2), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "kept_rows must be two distinct indices in 0..3, got (-1, 2)"),
    (lambda: CoalitionReduction("C", np.zeros((4, 2)), (0.0, 1.0), 1.0, (0.5, 0.5), (0.5, 0.5)),
     ShapeError, "kept_rows must be two distinct indices in 0..3, got (0.0, 1.0)"),
    (lambda: PovmElement(np.diag([NAN] + [0.5] * 7)), ShapeError,
     "POVM element contains non-finite entries"),
    # An infinite diagonal once passed after a RuntimeWarning from the
    # hermiticity subtraction, and an all-NaN matrix failed in eigvalsh.
    (lambda: PovmElement(np.diag([INF] + [0.5] * 7)), ShapeError,
     "POVM element contains non-finite entries"),
    (lambda: PovmElement(np.full((8, 8), NAN)), ShapeError,
     "POVM element contains non-finite entries"),
]


@pytest.mark.parametrize("build, kind, message", CONSTRUCTOR_ERRORS)
def test_public_constructors_keep_their_checks(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert type(info.value) is kind and str(info.value) == message


# Each value a constructor once took and then overwrote, or that could
# contradict the fields it is derived from.
DERIVED_ARGUMENTS = [
    (BellReport, "satisfied"),
    (WeightInversion, "negative_indices"),
    (CoalitionReduction, "members"),
    (CoalitionReduction, "reduced"),
    (ScenarioReport, "scenario_id"),
    (ScenarioReport, "inputs"),
    (NoJointError, "message"),
    (NoJointError, "bell_report"),
]


@pytest.mark.parametrize("cls, name", DERIVED_ARGUMENTS)
def test_constructors_take_no_derived_value(cls, name):
    assert name not in inspect.signature(cls).parameters
