"""Joint-distribution existence: slacks, intervals, reconstruction."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from finegames import (
    BellReport,
    ConventionError,
    JointDistribution,
    MarginalConvention,
    MarginalSet,
    NoJointError,
    OUTCOME_LABELS,
    PLAYERS,
    RangeError,
    ShapeError,
    XiRule,
    bell_slack_values,
    bell_slacks,
    marginal_values,
    marginals_from_joint,
    reconstruct_joint,
    run_scenario,
    weights_from_marginals,
    xi_interval,
    StrategyTriple,
    basis_bit,
    WeightInversion,
    SCENARIO_IDS,
)
from finegames.errors import SLACK_TOL, holds
from finegames.fine import _condition_terms, _joint_or_terms, _slack_terms, _xi_bounds
from finegames.measurement import _INCIDENCE, MARGINAL_FIELDS, MOBIUS, WALSH, ZETA
from finegames.qstates import _trusted
from oracles import (
    LITERAL, exact_bell_slacks, joint_exists_oracle, strategy_weights, xi_elimination,
)
from conftest import conjunction_set_of_joint, random_conjunction_set, random_joint

GHZ_PARITY = MarginalSet(
    0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, MarginalConvention.PARITY
)
GHZ_CONJUNCTION = MarginalSet(
    0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, MarginalConvention.CONJUNCTION
)


def test_outcome_labels_spell_the_basis_bits():
    assert len(OUTCOME_LABELS) == 8
    for i, label in enumerate(OUTCOME_LABELS):
        assert label == "(" + ",".join("+-"[basis_bit(i, p)] for p in PLAYERS) + ")"


def test_ghz_parity_slacks_exact():
    report = bell_slacks(GHZ_PARITY)
    assert report.slack == pytest.approx((2.5, -0.5, -0.5, -0.5), abs=1e-15)
    assert not report.satisfied
    assert "parity" in report.convention_note


def test_ghz_conjunction_slacks_exact():
    report = bell_slacks(GHZ_CONJUNCTION)
    assert report.slack == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)
    assert report.satisfied


def test_weight_inversion_stores_a_read_only_float_vector():
    inversion = WeightInversion([0.5] * 8)
    assert inversion.feasible and inversion.negative_indices == ()
    assert inversion.weights.dtype == np.float64 and inversion.weights.shape == (8,)
    assert not inversion.weights.flags.writeable


def test_report_and_inversion_verdicts_follow_holds():
    # satisfied, negative_indices and feasible are read from the stored
    # slacks and weights: on seeded values and on values at the floor
    # (either side of -SLACK_TOL, signed zeros) each agrees with holds.
    rng = np.random.default_rng(27)
    floor = [-2 * SLACK_TOL, np.nextafter(-SLACK_TOL, -1.0), -SLACK_TOL,
             np.nextafter(-SLACK_TOL, 0.0), -0.0, 0.0, SLACK_TOL, 0.5]
    draws = [rng.choice(floor, size=8) for _ in range(500)]
    draws += [rng.normal(scale=10.0 ** rng.uniform(-14, 0), size=8) for _ in range(500)]
    draws += [np.full(8, x) for x in floor]
    for values in draws:
        listed = values.tolist()
        report = BellReport(tuple(listed[:4]), "n")
        assert report.satisfied is all(holds(s) for s in listed[:4])
        inversion = WeightInversion(values)
        negative = tuple(i for i, w in enumerate(listed) if not holds(w))
        assert inversion.negative_indices == negative
        assert inversion.feasible is all(holds(w) for w in listed)


def test_xi_interval_requires_conjunction():
    with pytest.raises(ConventionError):
        xi_interval(GHZ_PARITY)


def test_ghz_conjunction_interval_is_a_point():
    interval = xi_interval(GHZ_CONJUNCTION)
    assert interval.lower == pytest.approx(0.5, abs=1e-15)
    assert interval.upper == pytest.approx(0.5, abs=1e-15)
    assert not interval.is_empty


def test_fair_coin_interval():
    m = MarginalSet(
        0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, MarginalConvention.CONJUNCTION
    )
    interval = xi_interval(m)
    assert interval.lower == pytest.approx(0.0, abs=1e-15)
    assert interval.upper == pytest.approx(0.25, abs=1e-15)
    assert interval.midpoint() == pytest.approx(0.125, abs=1e-15)


def test_reconstruct_recovers_product_weights():
    s = StrategyTriple(0.3, 0.65, 0.8)
    weights = strategy_weights(s)
    m = marginals_from_joint(
        JointDistribution(weights), MarginalConvention.CONJUNCTION
    )
    joint = reconstruct_joint(m, XiRule.GIVEN)
    assert joint.prob == pytest.approx(weights, abs=1e-12)


def test_reconstruct_ghz_conjunction():
    joint = reconstruct_joint(GHZ_CONJUNCTION, XiRule.GIVEN)
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert joint.prob == pytest.approx(expected, abs=1e-15)


def test_literal_reading_of_parity_values_fails():
    with pytest.raises(NoJointError) as exc_info:
        reconstruct_joint(GHZ_PARITY, XiRule.GIVEN)
    err = exc_info.value
    assert err.violated_terms == (3, 5, 6)
    assert not bell_slacks(GHZ_PARITY).satisfied
    assert "negative" in str(err)


def test_interval_rules(rng):
    m = conjunction_set_of_joint(rng)
    lower = reconstruct_joint(m, XiRule.LOWER)
    mid = reconstruct_joint(m, XiRule.MIDPOINT)
    interval = xi_interval(m)
    assert lower.prob[0] == pytest.approx(interval.lower, abs=1e-12)
    assert mid.prob[0] == pytest.approx(interval.midpoint(), abs=1e-12)


def test_round_trip_marginals(rng):
    for _ in range(300):
        joint = random_joint(rng)
        m = marginals_from_joint(joint, MarginalConvention.CONJUNCTION)
        rebuilt = reconstruct_joint(m, XiRule.GIVEN)
        assert rebuilt.prob == pytest.approx(joint.prob, abs=1e-12)


def test_oracle_rejects_coarse_grids():
    with pytest.raises(ValueError):
        joint_exists_oracle(GHZ_CONJUNCTION, grid_n=100)


def test_oracle_agrees_with_slacks(rng):
    agreements = 0
    violations = 0
    for _ in range(300):
        m = random_conjunction_set(rng)
        satisfied = bell_slacks(m).satisfied
        assert joint_exists_oracle(m) == satisfied
        assert (not xi_interval(m).is_empty) == satisfied
        agreements += 1
        violations += 0 if satisfied else 1
    assert agreements == 300
    assert violations > 10  # the free sampler must exercise both verdicts


def test_given_rule_depends_on_supplied_xi():
    # slacks hold, but the stated triple probability is outside the window
    m = MarginalSet(
        0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.24, MarginalConvention.CONJUNCTION
    )
    joint = reconstruct_joint(m, XiRule.GIVEN)
    assert joint.prob[0] == pytest.approx(0.24, abs=1e-15)
    bad = MarginalSet(
        0.9, 0.5, 0.5, 0.45, 0.45, 0.45, 0.0, MarginalConvention.CONJUNCTION
    )
    assert bell_slacks(bad).satisfied
    with pytest.raises(NoJointError):
        reconstruct_joint(bad, XiRule.GIVEN)
    assert reconstruct_joint(bad, XiRule.MIDPOINT).prob.min() >= -1e-12


def test_joint_distribution_validation():
    with pytest.raises(RangeError):
        JointDistribution(np.full(8, 0.2))
    with pytest.raises(RangeError):
        JointDistribution(np.array([0.5, 0.6, -0.1, 0, 0, 0, 0, 0]))


def test_bell_slack_values_batch_matches_bell_slacks(rng):
    sets = [random_conjunction_set(rng) for _ in range(50)]
    batch = bell_slack_values(np.array([m.values() for m in sets]))
    assert batch.shape == (50, 4)
    for row, m in zip(batch, sets):
        assert tuple(row.tolist()) == bell_slacks(m).slack
    grid = bell_slack_values(np.array([m.values() for m in sets]).reshape(5, 10, 7))
    assert np.array_equal(grid.reshape(50, 4), batch)
    assert bell_slack_values(GHZ_PARITY.values()).tolist() == [2.5, -0.5, -0.5, -0.5]


def test_bell_slack_values_need_seven_values():
    message = r"^marginal values must have shape \(\.\.\., 7\), got \(2, 8\)$"
    with pytest.raises(ShapeError, match=message):
        bell_slack_values(np.zeros((2, 8)))


def test_reconstruction_equals_inversion_on_conjunction_sets(rng):
    checked = 0
    for k in range(400):
        m = random_conjunction_set(rng) if k % 2 else conjunction_set_of_joint(rng)
        weights = weights_from_marginals(m).weights
        if weights.min() < 0.0:
            continue
        assert np.array_equal(reconstruct_joint(m, XiRule.GIVEN).prob, weights)
        checked += 1
    assert checked > 200


def boundary_sets(seed: int, count: int, convention=MarginalConvention.CONJUNCTION):
    """Sets of joints with one to three zero entries, each value moved
    by +-1e-13 to 1e-8 with probability one half; draws that break the
    convention's bounds are skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.dirichlet(np.ones(8))
        p[rng.choice(8, size=rng.integers(1, 4), replace=False)] = 0.0
        values = np.array(
            marginals_from_joint(JointDistribution(p / p.sum()), convention).values()
        )
        moved = rng.random(7) < 0.5
        values += moved * rng.choice([-1.0, 1.0], 7) * 10.0 ** rng.uniform(-13, -8, 7)
        try:
            yield MarginalSet(*values, convention)
        except RangeError:
            continue


def test_reconstruction_verdict_matches_inversion_on_boundary_sets():
    # A term within the floor below zero is clipped to 0; before the
    # clipped terms were rescaled, their total could leave 1 by more
    # than the floor and JointDistribution raised RangeError.
    outcomes = {"joint": 0, "none": 0}
    for m in boundary_sets(seed=7, count=6000):
        negative = weights_from_marginals(m).negative_indices
        try:
            joint = reconstruct_joint(m, XiRule.GIVEN)
        except NoJointError as err:
            assert err.violated_terms == negative
            outcomes["none"] += 1
        else:
            assert negative == ()
            assert joint.prob.min() >= 0.0
            outcomes["joint"] += 1
    assert min(outcomes.values()) > 500


def _near(rng) -> Fraction:
    """A signed offset 10^U(-17, -11), exact."""
    return Fraction(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -11))


def floor_sets(seed: int, count: int):
    """Free conjunction sets moved to the verdict floor. The smallest
    exact Bell slack goes to -SLACK_TOL plus a _near offset, and the
    largest gives up the difference: raising single k by d raises slack
    k + 1 and lowers the singles-sum slack by d. xi is the exact
    midpoint of the new xi window plus another _near offset. Each value
    is rounded once to a float; draws that break the Frechet bounds are
    skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = random_conjunction_set(rng)
        slack = exact_bell_slacks(m)
        low, high = slack.index(min(slack)), slack.index(max(slack))
        shift = -Fraction(SLACK_TOL) + _near(rng) - slack[low]
        lam, mu, nu, p_ab, p_bc, p_ac, _ = map(Fraction, m.values())
        singles = [lam, mu, nu]
        if low:
            singles[low - 1] += shift
        if high:
            singles[high - 1] -= shift
        lam, mu, nu = singles
        lower = max(0, p_ab + p_ac - lam, p_ab + p_bc - mu, p_ac + p_bc - nu)
        upper = min(p_ab, p_bc, p_ac, 1 - lam - mu - nu + p_ab + p_bc + p_ac)
        xi = (lower + upper) / 2 + _near(rng)
        values = (*singles, p_ab, p_bc, p_ac, xi)
        try:
            yield MarginalSet(*map(float, values), MarginalConvention.CONJUNCTION)
        except RangeError:
            continue


def test_verdicts_match_the_exact_sign_at_the_floor():
    # Outside a 1e-15 band around the floor the Bell verdict and the xi
    # window agree with the exact sign of the smallest slack; inside it
    # the two float sums may round to opposite sides. Reconstruction
    # and inversion compute the same terms and agree on every set.
    floor, band = -Fraction(SLACK_TOL), Fraction(1e-15)
    seen = Counter()
    for m in floor_sets(seed=11, count=6000):
        try:
            reconstruct_joint(m)
        except NoJointError:
            built = False
        else:
            built = True
        assert built == weights_from_marginals(m).feasible
        seen["joint" if built else "none"] += 1
        margin = min(exact_bell_slacks(m)) - floor
        assert abs(margin) < Fraction(1e-11) + band  # the draw sits at the floor
        if abs(margin) <= band:
            seen["band"] += 1
            continue
        assert bell_slacks(m).satisfied == (margin > 0)
        assert (not xi_interval(m).is_empty) == (margin > 0)
        seen["holds" if margin > 0 else "fails"] += 1
    assert min(seen.values()) > 400, seen


def term_floor_sets(seed: int, count: int):
    """Conjunction sets, free and of joints in turn, whose xi is moved
    so that one MOBIUS term, drawn at random, sits exactly at -SLACK_TOL
    plus a _near offset; xi is then rounded once to a float. Draws that
    break the Frechet bounds are skipped."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        m = random_conjunction_set(rng) if n % 2 else conjunction_set_of_joint(rng)
        row = MOBIUS[rng.integers(8)].astype(int).tolist()
        rest = sum(c * Fraction(v) for c, v in zip(row, (1.0, *m.values()[:6])))
        xi = (-Fraction(SLACK_TOL) + _near(rng) - rest) / row[7]
        try:
            yield MarginalSet(*m.values()[:6], float(xi), MarginalConvention.CONJUNCTION)
        except RangeError:
            continue


def exact_terms_and_bounds(m: MarginalSet):
    """m's eight MOBIUS terms at its own xi, and the xi window's two
    ends from the eliminated rows, in exact rationals."""
    plus, minus, _ = xi_elimination()
    rows = MOBIUS.astype(int).tolist()
    x = (1, *map(Fraction, m.values()))
    terms = [sum(c * v for c, v in zip(row, x)) for row in rows]
    lower = max(-sum(c * v for c, v in zip(rows[i][:7], x)) for i in plus)
    upper = min(sum(c * v for c, v in zip(rows[j][:7], x)) for j in minus)
    return terms, lower, upper


def _default_conjunction_sets():
    return [
        m
        for scenario_id in SCENARIO_IDS
        for m in run_scenario(scenario_id).marginals.values()
        if m.convention is MarginalConvention.CONJUNCTION
    ]


@lru_cache(maxsize=None)
def _replay_floor_sets() -> tuple[MarginalSet, ...]:
    """floor_sets(seed=11, count=2000), built once for the tests that read it."""
    return tuple(floor_sets(seed=11, count=2000))


# Rounding band of the reconstruction verdicts. A term is seven float
# additions of partial sums within 4 in size, so it lies within 28 ulps
# (2^-53 each) of its exact value; a window end takes at most six
# additions within 2, 12 ulps, and is_empty adds SLACK_TOL to the upper
# end, one rounding more. So outside 2^-48 (32 ulps) of the floor every
# float verdict has the exact sign; inside it the disagreements are
# counted and pinned, per source as (sets, terms in the band, of them
# wrong, windows in the band, of them wrong).
ULP = Fraction(2) ** -53
REPLAY_BAND = 32 * ULP
REPLAY_SOURCES = {
    "floor_sets": (_replay_floor_sets, (923, 105, 11, 452, 28)),
    "term_floor_sets": (lambda: term_floor_sets(seed=12, count=2000), (663, 224, 18, 0, 0)),
    "default_scenarios": (_default_conjunction_sets, (4, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("source", REPLAY_SOURCES)
def test_reconstruction_verdicts_match_the_exact_sign(source):
    sets, pinned = REPLAY_SOURCES[source]
    floor = -Fraction(SLACK_TOL)
    seen = Counter()
    for m in sets():
        terms, lower, upper = exact_terms_and_bounds(m)
        floats = _condition_terms(m, m.xi).tolist()
        float_lower, float_upper = _xi_bounds(m)
        assert all(abs(Fraction(v) - t) <= 28 * ULP for v, t in zip(floats, terms))
        assert abs(Fraction(float_lower) - lower) <= 12 * ULP
        assert abs(Fraction(float_upper) - upper) <= 12 * ULP
        for value, exact in zip(floats, terms):
            wrong = holds(value) != (exact >= floor)
            if abs(exact - floor) <= REPLAY_BAND:
                seen["terms in band"] += 1
                seen["terms wrong"] += wrong
            else:
                assert not wrong, (m, terms)
        margin = upper - lower - floor  # is_empty exactly when negative
        wrong = xi_interval(m).is_empty != (margin < 0)
        if abs(margin) <= REPLAY_BAND:
            seen["windows in band"] += 1
            seen["windows wrong"] += wrong
        else:
            assert not wrong, (m, lower, upper)
        seen["sets"] += 1
    counts = ("sets", "terms in band", "terms wrong", "windows in band", "windows wrong")
    assert tuple(seen[k] for k in counts) == pinned


def test_floor_verdicts_contradict_on_pinned_counts():
    # Pins of known defects. Each verdict holds its own sums to the
    # -SLACK_TOL floor: the four slacks, the xi window's width and the
    # eight terms at the chosen xi. At the floor they disagree: the window
    # against the slacks on 36 sets, and under every xi rule some sets
    # get no joint beside satisfied slacks, and others a joint the slacks
    # refuse. Verdicts that agree drive every count to 0.
    sets = _replay_floor_sets()
    window = 0
    missing, refused = Counter(), Counter()
    for m in sets:
        satisfied = bell_slacks(m).satisfied
        window += satisfied == xi_interval(m).is_empty
        for rule in XiRule:
            try:
                reconstruct_joint(m, rule)
            except NoJointError:
                missing[rule] += satisfied
                continue
            refused[rule] += not satisfied
    assert (len(sets), window) == (923, 36)
    assert {rule: (missing[rule], refused[rule]) for rule in XiRule} == {
        XiRule.GIVEN: (52, 256), XiRule.MIDPOINT: (14, 22), XiRule.LOWER: (20, 19),
    }


def test_joint_or_terms_equals_a_try_except_reference():
    built = Counter()
    for m in (*_replay_floor_sets(), GHZ_PARITY, GHZ_CONJUNCTION):
        for rule in XiRule:
            try:
                expected, expected_terms = reconstruct_joint(m, rule), []
            except NoJointError as err:
                expected, expected_terms = None, list(err.violated_terms)
            joint, terms = _joint_or_terms(m, rule)
            assert type(terms) is list and terms == expected_terms
            if expected is None:
                assert joint is None
            else:
                assert np.array_equal(joint.prob, expected.prob)
            built[joint is not None] += 1
    assert built[True] and built[False]


def _default_parity_sets():
    return [
        m
        for scenario_id in SCENARIO_IDS
        for m in run_scenario(scenario_id).marginals.values()
        if m.convention is MarginalConvention.PARITY
    ]


def inversion_floor_sets(seed: int, count: int):
    """Parity sets of joints whose triple value is moved so that one
    weight, drawn at random, sits at -SLACK_TOL plus a _near offset: a
    step d in the triple moves weight i by WALSH[i, 7] d / 4. The value
    is then rounded once to a float; draws that leave [0, 1] are
    skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = marginals_from_joint(random_joint(rng), MarginalConvention.PARITY)
        i = rng.integers(8)
        weight = Fraction(weights_from_marginals(m).weights[i])
        xi = Fraction(m.xi) + 4 * int(WALSH[i, 7]) * (-Fraction(SLACK_TOL) + _near(rng) - weight)
        try:
            yield MarginalSet(*m.values()[:6], float(xi), MarginalConvention.PARITY)
        except RangeError:
            continue


_WALSH_ROWS = WALSH.astype(int).tolist()
_DYADIC = 2**1074  # every float in [0, 1] is an integer multiple of 1 / _DYADIC


def exact_parity_weights(m: MarginalSet) -> list[Fraction]:
    """(WALSH @ (2 x - 1)) / 8 of m's values x, exact; summed as integers
    in units of 1 / _DYADIC, six times faster than in Fraction."""
    units = [n * (_DYADIC // d) for n, d in (v.as_integer_ratio() for v in (1.0, *m.values()))]
    e = [2 * u - _DYADIC for u in units]
    return [Fraction(sum(c * v for c, v in zip(row, e)), 8 * _DYADIC) for row in _WALSH_ROWS]


# Rounding band of the parity inversion, (WALSH @ e) / 8 with e = 2 x - 1.
# Each |e| <= 1 rounds by at most 2^-54, and `@` adds the eight +-e in
# an order that depends on the BLAS build: seven additions of partial
# sums below 8 in size, each rounding by at most 2^-51. So the sum lies
# within 8 * 2^-54 + 7 * 2^-51 = 2^-48 of its exact value in any order,
# and each weight, the sum over 8, within 2^-51. Outside that band
# around -SLACK_TOL every verdict has the exact sign; inside it the
# disagreements are counted and pinned, per source as (sets, weights in
# the band, of them wrong, feasibility verdicts in the band, of them wrong).
INVERSION_BAND = 4 * ULP
INVERSION_SOURCES = {
    "boundary_sets": (
        lambda: boundary_sets(seed=13, count=2000, convention=MarginalConvention.PARITY),
        (2000, 0, 0, 0, 0),
    ),
    "inversion_floor_sets": (
        lambda: inversion_floor_sets(seed=14, count=2000),
        (1154, 282, 8, 125, 0),
    ),
    "default_scenarios": (_default_parity_sets, (6, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("source", INVERSION_SOURCES)
def test_parity_inversion_verdicts_match_the_exact_sign(source):
    sets, pinned = INVERSION_SOURCES[source]
    floor = -Fraction(SLACK_TOL)
    seen = Counter()
    for m in sets():
        inversion = weights_from_marginals(m)
        exact = exact_parity_weights(m)
        assert all(abs(Fraction(w) - x) <= INVERSION_BAND for w, x in zip(inversion.weights, exact))
        for i, x in enumerate(exact):
            wrong = (i in inversion.negative_indices) != (x < floor)
            if abs(x - floor) <= INVERSION_BAND:
                seen["weights in band"] += 1
                seen["weights wrong"] += wrong
            else:
                assert not wrong, (m, i, x)
        margin = min(exact) - floor  # feasible exactly when non-negative
        wrong = inversion.feasible != (margin >= 0)
        if abs(margin) <= INVERSION_BAND:
            seen["verdicts in band"] += 1
            seen["verdicts wrong"] += wrong
        else:
            assert not wrong, (m, exact)
        seen["sets"] += 1
    counts = ("sets", "weights in band", "weights wrong", "verdicts in band", "verdicts wrong")
    assert tuple(seen[k] for k in counts) == pinned, seen


# The (i, j) sums of xi_elimination that are bell_slacks' four rows, in
# its order; each pairs complementary outcomes, as exact_bell_slacks does.
BELL_PAIRS = [(0, 7), (3, 4), (5, 2), (6, 1)]
# MarginalSet._check_frechet's boxes: (pair, single, single) as columns
# of (1, lam, mu, nu, p_ab, p_bc, p_ac).
FRECHET_BOXES = [(4, 1, 2), (5, 2, 3), (6, 1, 3)]


def _unit(*terms) -> tuple[int, ...]:
    """The integer row sum of (sign, column) terms over the 7 columns."""
    row = [0] * 7
    for sign, column in terms:
        row[column] += sign
    return tuple(row)


FRECHET_ROWS = [
    row
    for pair, s1, s2 in FRECHET_BOXES
    for row in (
        _unit((1, s1), (-1, pair)),  # pair <= each single
        _unit((1, s2), (-1, pair)),
        _unit((1, 0), (1, pair), (-1, s1), (-1, s2)),  # pair >= s1 + s2 - 1
    )
]


def _dyadic_set(values) -> MarginalSet:
    """A conjunction set of the values as given, unchecked."""
    fields = dict(zip(MARGINAL_FIELDS, values))
    return _trusted(MarginalSet, **fields, convention=MarginalConvention.CONJUNCTION)


def test_fine_theorem_is_the_xi_elimination_of_mobius():
    plus, minus, sums = xi_elimination()
    assert (plus, minus) == ((0, 3, 5, 6), (1, 2, 4, 7))
    # _slack_terms' coefficient rows, read at zero and at each unit
    # vector of (lam, ..., p_ac): every sum there is exact.
    zero = _slack_terms(*[0.0] * 6)
    at_unit = [_slack_terms(*np.eye(6)[k].tolist()) for k in range(6)]
    bell_rows = [(zero[r], *(col[r] - zero[r] for col in at_unit)) for r in range(4)]
    assert bell_rows == [sums[pair] for pair in BELL_PAIRS]
    # The other twelve: p >= 0 for each pair value, and the nine boxes.
    rest = sorted(row for key, row in sums.items() if key not in BELL_PAIRS)
    nonnegative = [_unit((1, pair)) for pair, _, _ in FRECHET_BOXES]
    assert rest == sorted(nonnegative + FRECHET_ROWS)


def test_literal_read_is_mobius_over_the_parity_rows():
    rows = np.vstack([np.ones(8), _INCIDENCE[MarginalConvention.PARITY]])
    assert np.array_equal(LITERAL, MOBIUS @ rows)


def test_parity_bell_slacks_are_literal_row_pairs():
    # On unit diagonals every value and slack is a small integer, so
    # the comparison is exact.
    slacks = bell_slack_values(marginal_values(np.eye(8), MarginalConvention.PARITY))
    pair_sums = np.array([LITERAL[i] + LITERAL[j] for i, j in BELL_PAIRS])
    assert np.array_equal(slacks, pair_sums.T)
    # The ghz-bell weight scan's two ends: |111> at x = 0, |000> at x = 1.
    ends = bell_slack_values(marginal_values(np.eye(8)[[7, 0]], MarginalConvention.PARITY))
    assert ends.tolist() == [[4.0, -1.0, -1.0, -1.0], [1.0, 0.0, 0.0, 0.0]]


def test_xi_bounds_are_the_eliminated_rows_on_dyadic_sets():
    # Values k/64: every sum below is exact, so `==` compares verdicts
    # and bounds, not rounding.
    plus, minus, _ = xi_elimination()
    rng = np.random.default_rng(20261021)
    for _ in range(2000):
        values = (rng.integers(0, 65, 7) / 64).tolist()
        x = np.array([1.0, *values[:6]])
        lower = max(-float(MOBIUS[i, :7] @ x) for i in plus)
        upper = min(float(MOBIUS[j, :7] @ x) for j in minus)
        assert _xi_bounds(_dyadic_set(values)) == (lower, upper), values


def test_frechet_check_rejects_exactly_on_the_eliminated_rows():
    # Joints of weights k/64 give exact conjunction values that pass
    # every check; moving one value by 1/64 within [0, 1] must make
    # MarginalSet reject the set exactly when a box row or xi <= min
    # pair goes negative.
    rng = np.random.default_rng(20261022)
    verdicts = Counter()
    for _ in range(300):
        weights = rng.multinomial(64, rng.dirichlet(np.ones(8))) / 64
        base = (ZETA @ weights)[1:].tolist()
        MarginalSet(*base, MarginalConvention.CONJUNCTION)
        for k in range(7):
            for step in (-1 / 64, 1 / 64):
                values = list(base)
                values[k] += step
                if not 0.0 <= values[k] <= 1.0:
                    continue
                x = (1.0, *values[:6])
                expected = any(
                    sum(c * v for c, v in zip(row, x)) < 0 for row in FRECHET_ROWS
                ) or values[6] > min(values[3:6])
                try:
                    MarginalSet(*values, MarginalConvention.CONJUNCTION)
                    rejected = False
                except RangeError:
                    rejected = True
                assert rejected == expected, (values, k, step)
                verdicts[rejected] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100
