"""Joint-distribution existence: slacks, intervals, reconstruction."""

import numpy as np
import pytest

from finegames import (
    ConventionError,
    JointDistribution,
    MarginalConvention,
    MarginalSet,
    NoJointError,
    RangeError,
    XiRule,
    bell_slack_values,
    bell_slacks,
    marginals_from_joint,
    reconstruct_joint,
    weights_from_marginals,
    strategy_weights,
    xi_interval,
    StrategyTriple,
)
from oracles import joint_exists_oracle
from conftest import conjunction_set_of_joint, random_conjunction_set, random_joint

GHZ_PARITY = MarginalSet(
    0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, MarginalConvention.PARITY
)
GHZ_CONJUNCTION = MarginalSet(
    0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, MarginalConvention.CONJUNCTION
)


def test_ghz_parity_slacks_exact():
    report = bell_slacks(GHZ_PARITY)
    assert report.slack == pytest.approx((2.5, -0.5, -0.5, -0.5), abs=1e-15)
    assert not report.satisfied
    assert "parity" in report.convention_note


def test_ghz_conjunction_slacks_exact():
    report = bell_slacks(GHZ_CONJUNCTION)
    assert report.slack == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)
    assert report.satisfied


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
    assert not err.bell_report.satisfied
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


def boundary_sets(seed: int, count: int):
    """Conjunction sets of joints with one to three zero entries, each
    value moved by +-1e-13 to 1e-8 with probability one half; draws
    that break the pair bounds are skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.dirichlet(np.ones(8))
        p[rng.choice(8, size=rng.integers(1, 4), replace=False)] = 0.0
        values = np.array(
            marginals_from_joint(
                JointDistribution(p / p.sum()), MarginalConvention.CONJUNCTION
            ).values()
        )
        moved = rng.random(7) < 0.5
        values += moved * rng.choice([-1.0, 1.0], 7) * 10.0 ** rng.uniform(-13, -8, 7)
        try:
            yield MarginalSet(*values, MarginalConvention.CONJUNCTION)
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
