"""POVM construction, marginal extraction, and convention conversion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finegames import (
    DensityMatrix,
    MarginalConvention,
    MarginalSet,
    RangeError,
    ShapeError,
    basis_bit,
    bell_slacks,
    convert_marginals,
    density_from_pure,
    extract_marginals,
    ghz,
    marginal_values,
    marginals_from_joint,
    pair_povm,
    reconstruct_joint,
    single_povm,
    strategy_marginals,
    triple_povm,
    validate_densities,
    weights_from_marginals,
    xi_interval,
    JointDistribution,
    StrategyTriple,
)
from finegames.measurement import (
    _CONJ_SIGNED, _INCIDENCE, _SUBSETS, MOBIUS, WALSH, ZETA, PovmElement, _apply, _signed,
)
from oracles import pure_state_marginals, reference_marginal_sums, strategy_weights
from conftest import random_conjunction_set, random_joint, random_pure_state

CONVENTIONS = (MarginalConvention.CONJUNCTION, MarginalConvention.PARITY)


def test_povm_completeness():
    for player in "ABC":
        plus, minus = single_povm(player)
        assert np.max(np.abs(plus.matrix + minus.matrix - np.eye(8))) < 1e-14
    for convention in CONVENTIONS:
        for pair in ("AB", "BC", "AC"):
            hit, miss = pair_povm(pair, convention)
            assert np.max(np.abs(hit.matrix + miss.matrix - np.eye(8))) < 1e-14
        hit, miss = triple_povm(convention)
        assert np.max(np.abs(hit.matrix + miss.matrix - np.eye(8))) < 1e-14


def test_povm_elements_are_diagonal_projectors():
    for player in "ABC":
        m = single_povm(player)[0].matrix
        assert np.allclose(m, np.diag(np.diag(m)))
        assert set(np.diag(m).real) <= {0.0, 1.0}
    diag = np.diag(single_povm("A")[0].matrix).real
    assert [int(v) for v in diag] == [1 - basis_bit(i, "A") for i in range(8)]


def test_povm_elements_and_names_are_checked():
    with pytest.raises(ShapeError, match=r"^POVM element must be 8x8, got \(4, 4\)$"):
        PovmElement(np.eye(4))
    skew = np.eye(8, dtype=complex)
    skew[0, 1] = 1j
    with pytest.raises(ShapeError, match="^POVM element must be hermitian$"):
        PovmElement(skew)
    for diagonal in ([-0.5] + [0.0] * 7, [1.5] + [0.0] * 7):
        with pytest.raises(ShapeError, match=r"^POVM element eigenvalues must lie in \[0, 1\]$"):
            PovmElement(np.diag(diagonal))
    with pytest.raises(ShapeError, match="^player must be 'A', 'B' or 'C', got 'D'$"):
        single_povm("D")
    with pytest.raises(ShapeError, match=r"^pair must be one of \('AB', 'BC', 'AC'\), got 'AD'"):
        pair_povm("AD", MarginalConvention.PARITY)


BAD_CONVENTIONS = ("parity", None, ["parity"])
CONVENTION_READERS = {
    "marginal_values": lambda c: marginal_values(np.eye(8)[0], c),
    "extract_marginals": lambda c: extract_marginals(density_from_pure(ghz(1.0, 0.0)), c),
    "marginals_from_joint": lambda c: marginals_from_joint(JointDistribution(np.eye(8)[0]), c),
    "convert_marginals": lambda c: convert_marginals(
        strategy_marginals(StrategyTriple(0.5, 0.5, 0.5), MarginalConvention.CONJUNCTION), c
    ),
    "strategy_marginals": lambda c: strategy_marginals(StrategyTriple(0.5, 0.5, 0.5), c),
    "pair_povm": lambda c: pair_povm("AB", c),
    "triple_povm": triple_povm,
    "MarginalSet": lambda c: MarginalSet(0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, c),
}


@pytest.mark.parametrize("convention", BAD_CONVENTIONS, ids=repr)
@pytest.mark.parametrize("reader", CONVENTION_READERS)
def test_every_convention_reader_refuses_a_non_convention(reader, convention):
    with pytest.raises(ShapeError) as info:
        CONVENTION_READERS[reader](convention)
    assert str(info.value) == "convention must be a MarginalConvention"


def test_povm_builders_check_unhashable_labels():
    with pytest.raises(ShapeError, match="player must be"):
        single_povm(["A"])
    with pytest.raises(ShapeError, match="pair must be one of"):
        pair_povm(["AB"], MarginalConvention.PARITY)


def test_parity_pair_povm_selects_equal_bits():
    diag = np.diag(pair_povm("AB", MarginalConvention.PARITY)[0].matrix).real
    expected = [
        1.0 if basis_bit(i, "A") == basis_bit(i, "B") else 0.0 for i in range(8)
    ]
    assert list(diag) == expected


def test_conjunction_pair_povm_selects_double_cooperation():
    diag = np.diag(pair_povm("AB", MarginalConvention.CONJUNCTION)[0].matrix).real
    expected = [
        1.0 if basis_bit(i, "A") == 0 and basis_bit(i, "B") == 0 else 0.0
        for i in range(8)
    ]
    assert list(diag) == expected


def test_lattice_matrices_are_exact_inverses():
    assert np.array_equal(MOBIUS @ ZETA, np.eye(8))
    assert np.array_equal(ZETA @ MOBIUS, np.eye(8))
    assert np.array_equal(WALSH @ WALSH.T, 8.0 * np.eye(8))
    for matrix in (ZETA, MOBIUS, WALSH):
        assert not matrix.flags.writeable
    assert WALSH.flags.c_contiguous


def test_zeta_rows_mark_their_subsets_cooperating():
    for s, subset in enumerate(_SUBSETS):
        want = [float(all(basis_bit(k, p) == 0 for p in subset)) for k in range(8)]
        assert ZETA[s].tolist() == want, subset


def test_incidence_rows_are_lattice_rows():
    assert np.array_equal(_INCIDENCE[MarginalConvention.CONJUNCTION], ZETA[1:])
    assert np.array_equal(_INCIDENCE[MarginalConvention.PARITY], (1.0 + WALSH.T[1:]) / 2.0)
    for rows in _INCIDENCE.values():
        assert not rows.flags.writeable


@pytest.mark.parametrize(
    "matrix", [ZETA, MOBIUS, WALSH, WALSH.T, MOBIUS.T],
    ids=["ZETA", "MOBIUS", "WALSH", "WALSH.T", "MOBIUS.T"],
)
def test_apply_batches_match_row_calls(rng, matrix):
    rows = rng.normal(size=(12, 8))
    singles = np.stack([_apply(matrix, row) for row in rows])
    assert np.allclose(singles, rows @ matrix.T, rtol=0.0, atol=1e-14)
    assert np.array_equal(_apply(matrix, rows), singles)
    assert np.array_equal(_apply(matrix, rows.reshape(3, 4, 8)), singles.reshape(3, 4, 8))


def test_extracted_marginals_match_closed_form(rng):
    for _ in range(50):
        state = random_pure_state(rng)
        rho = density_from_pure(state)
        traced = extract_marginals(rho, MarginalConvention.PARITY)
        closed = pure_state_marginals(state)
        assert traced.values() == pytest.approx(closed.values(), abs=1e-12)


def test_conjunction_extraction_matches_diagonal_sums(rng):
    state = random_pure_state(rng)
    q = state.probabilities()
    m = extract_marginals(density_from_pure(state), MarginalConvention.CONJUNCTION)
    assert m.lam == pytest.approx(q[:4].sum(), abs=1e-12)
    assert m.p_ab == pytest.approx(q[0] + q[1], abs=1e-12)
    assert m.p_bc == pytest.approx(q[0] + q[4], abs=1e-12)
    assert m.p_ac == pytest.approx(q[0] + q[2], abs=1e-12)
    assert m.xi == pytest.approx(q[0], abs=1e-12)


def test_ghz_parity_marginals():
    rho = density_from_pure(ghz(complex(2 ** -0.5), complex(2 ** -0.5)))
    m = extract_marginals(rho, MarginalConvention.PARITY)
    assert m.values() == pytest.approx((0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5), abs=1e-12)


def test_marginal_set_rejects_out_of_range():
    with pytest.raises(RangeError):
        MarginalSet(1.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.1, MarginalConvention.PARITY)


def test_marginal_set_rejects_inconsistent_conjunction_pairs():
    with pytest.raises(RangeError):
        MarginalSet(0.2, 0.2, 0.2, 0.5, 0.1, 0.1, 0.05, MarginalConvention.CONJUNCTION)
    with pytest.raises(RangeError):
        MarginalSet(0.9, 0.9, 0.9, 0.7, 0.7, 0.7, 0.75, MarginalConvention.CONJUNCTION)


def test_fair_coin_correlations():
    m = strategy_marginals(StrategyTriple(0.5, 0.5, 0.5), MarginalConvention.CONJUNCTION)
    corr = m.correlations()
    assert corr == pytest.approx((0.0,) * 7, abs=1e-12)


def test_conjunction_signed_values_sum_python_rows_as_array_rows(rng):
    # _signed sums the rows of the (8, 8) product as Python floats; the
    # numpy rows it replaced hold the same floats, so fsum gives the
    # same bits, the signs of zeros included.
    sets = [random_conjunction_set(rng) for _ in range(2000)]
    sets += [marginals_from_joint(JointDistribution(np.eye(8)[i]), CONVENTIONS[0]) for i in range(8)]
    sets += [MarginalSet(*values, CONVENTIONS[0]) for values in (
        (-0.0,) * 7, (0.5, -0.0, 0.5, -0.0, -0.0, 0.25, -0.0), (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    )]
    for m in sets:
        rows = _CONJ_SIGNED * np.array((1.0, *m.values()))
        want = np.array([math.fsum(row) for row in rows])
        assert _signed(m).tobytes() == want.tobytes()


def test_convention_conversion_round_trip(rng):
    for _ in range(200):
        joint = random_joint(rng)
        conj = marginals_from_joint(joint, MarginalConvention.CONJUNCTION)
        parity = marginals_from_joint(joint, MarginalConvention.PARITY)
        to_parity = convert_marginals(conj, MarginalConvention.PARITY)
        back = convert_marginals(to_parity, MarginalConvention.CONJUNCTION)
        assert to_parity.values() == pytest.approx(parity.values(), abs=1e-12)
        assert back.values() == pytest.approx(conj.values(), abs=1e-12)


def test_convert_to_same_convention_is_identity(rng):
    conj = marginals_from_joint(random_joint(rng), MarginalConvention.CONJUNCTION)
    again = convert_marginals(conj, MarginalConvention.CONJUNCTION)
    assert again.values() == pytest.approx(conj.values(), abs=0.0)


def test_weight_inversion_recovers_joint(rng):
    for _ in range(100):
        joint = random_joint(rng)
        for convention in CONVENTIONS:
            m = marginals_from_joint(joint, convention)
            inv = weights_from_marginals(m)
            assert inv.feasible
            assert inv.weights == pytest.approx(joint.prob, abs=1e-12)


def test_weight_inversion_detects_impossible_anticorrelation():
    m = MarginalSet(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, MarginalConvention.PARITY)
    inv = weights_from_marginals(m)
    assert not inv.feasible
    assert inv.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert min(inv.weights) < -0.1
    assert 0 in inv.negative_indices


def test_strategy_weights_factorize():
    s = StrategyTriple(0.2, 0.6, 0.9)
    w = strategy_weights(s)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] == pytest.approx(0.2 * 0.6 * 0.9, abs=1e-15)
    assert w[7] == pytest.approx(0.8 * 0.4 * 0.1, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1.0), mu=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0))
def test_strategy_weights_match_kronecker_products(lam, mu, nu):
    expected = np.kron(np.kron([lam, 1.0 - lam], [mu, 1.0 - mu]), [nu, 1.0 - nu])
    assert np.array_equal(strategy_weights(StrategyTriple(lam, mu, nu)), expected)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    mu=st.floats(0.0, 1.0),
    nu=st.floats(0.0, 1.0),
)
def test_product_marginals_always_consistent(lam, mu, nu):
    s = StrategyTriple(lam, mu, nu)
    joint = JointDistribution(strategy_weights(s))
    for convention in CONVENTIONS:
        m = marginals_from_joint(joint, convention)
        values = np.array(m.values())
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)
        inv = weights_from_marginals(m)
        assert inv.feasible


def trace_values(rho: np.ndarray, convention: MarginalConvention) -> list[float]:
    """The seven marginals as np.trace(P @ rho).real of the "+1" POVM
    elements, clamped into [0, 1] as every marginal is."""
    elements = (
        single_povm("A")[0],
        single_povm("B")[0],
        single_povm("C")[0],
        pair_povm("AB", convention)[0],
        pair_povm("BC", convention)[0],
        pair_povm("AC", convention)[0],
        triple_povm(convention)[0],
    )
    return [min(max(np.trace(e.matrix @ rho).real, 0.0), 1.0) for e in elements]


component = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def densities(draw) -> np.ndarray:
    """Validated density matrices: pure, mixed (a weighted sum of two to
    four pure projectors), sparse (a pure state on a random support, so
    the diagonal holds exact zeros) or diagonal (a basis mixture with
    zero weights allowed)."""
    kind = draw(st.sampled_from(("pure", "mixed", "sparse", "diagonal")))
    if kind == "diagonal":
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)))
        assume(weights.sum() > 1e-3)
        return DensityMatrix(np.diag(weights / weights.sum()).astype(complex)).matrix
    rho = np.zeros((8, 8), dtype=complex)
    for _ in range(draw(st.integers(2, 4)) if kind == "mixed" else 1):
        amps = np.array(draw(st.lists(component, min_size=16, max_size=16))).view(complex)
        if kind == "sparse":
            support = draw(st.lists(st.booleans(), min_size=8, max_size=8))
            amps[~np.array(support)] = 0.0
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        amps = amps / norm
        rho += draw(st.floats(0.05, 1.0)) * np.outer(amps, amps.conj())
    return DensityMatrix(rho / np.trace(rho).real).matrix


@settings(max_examples=400, deadline=None)
@given(rho=densities(), convention=st.sampled_from(CONVENTIONS))
def test_marginal_values_equal_povm_traces_exactly(rho, convention):
    values = marginal_values(rho.diagonal().real, convention)
    assert values.tolist() == trace_values(rho, convention)
    m = extract_marginals(DensityMatrix(rho), convention)
    assert list(m.values()) == trace_values(rho, convention)


@settings(max_examples=100, deadline=None)
@given(
    stack=st.lists(densities(), min_size=1, max_size=6),
    convention=st.sampled_from(CONVENTIONS),
)
def test_marginal_values_batch_matches_single_calls(stack, convention):
    rho = validate_densities(np.stack(stack))
    batch = marginal_values(rho.diagonal(0, -2, -1).real, convention)
    assert batch.shape == (len(stack), 7)
    singles = [marginal_values(r.diagonal().real, convention) for r in stack]
    assert np.array_equal(batch, np.stack(singles))
    grid = marginal_values(rho.diagonal(0, -2, -1).real.reshape(len(stack), 1, 8), convention)
    assert np.array_equal(grid[:, 0], batch)


def test_marginal_values_clamp_and_range_check():
    diag = np.zeros(8)
    diag[0] = 1.0 + 5e-13
    assert marginal_values(diag, MarginalConvention.CONJUNCTION).tolist() == [1.0] * 7
    diag[0] = -5e-13
    assert marginal_values(diag, MarginalConvention.PARITY).tolist() == [0.0] * 7
    diag[0] = 1.5
    with pytest.raises(RangeError, match=r"^lam = 1\.5 outside \[0, 1\]$"):
        marginal_values(diag, MarginalConvention.PARITY)
    batch = np.full((3, 8), 0.125)
    batch[2, 6] = -0.5
    with pytest.raises(RangeError, match=r"^nu = "):
        marginal_values(batch, MarginalConvention.PARITY)
    with pytest.raises(ShapeError):
        marginal_values(np.zeros(7), MarginalConvention.PARITY)
    diag[0] = np.nan
    with pytest.raises(RangeError, match=r"^lam = nan outside \[0, 1\]$"):
        marginal_values(diag, MarginalConvention.PARITY)
    assert marginal_values(np.zeros((0, 8)), MarginalConvention.PARITY).shape == (0, 7)


@pytest.mark.parametrize("convention", list(MarginalConvention))
def test_marginal_values_accept_keeps_the_clipped_bits(convention):
    # Rows in range, with -0.0 entries, and rows within ZERO_TOL beyond
    # it: the result equals np.clip of the summed traces, signs of zero
    # included, whether or not the row needed clipping.
    rng = np.random.default_rng(11)
    diags = rng.dirichlet(np.ones(8), size=300) * (rng.random((300, 8)) < 0.6)
    diags /= diags.sum(axis=1, keepdims=True)
    diags[:100] = np.where(rng.random((100, 8)) < 0.5, -0.0, 0.0)
    diags[0] = -0.0
    diags[200:] += rng.choice([-1e-13, 0.0, 1e-13], size=(100, 8))
    s = diags[..., None, :] * _INCIDENCE[convention]
    t = s[..., :4] + s[..., 4:]
    expected = np.clip((t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3]), 0.0, 1.0)
    for got in (marginal_values(diags, convention), [marginal_values(d, convention) for d in diags]):
        got = np.asarray(got)
        assert (got == expected).all() and (np.signbit(got) == np.signbit(expected)).all()


def _traced(build):
    """build()'s result and the peak bytes numpy and Python allocate in it."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_marginal_values_sum_in_place(convention):
    diagonals = np.random.default_rng(11).dirichlet(np.ones(8), size=20_001)
    old, old_peak = _traced(lambda: reference_marginal_sums(diagonals, _INCIDENCE[convention]))
    new, new_peak = _traced(lambda: marginal_values(diagonals, convention))
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert new_peak <= 0.75 * old_peak


@pytest.fixture(scope="module")
def seeded_densities() -> list[DensityMatrix]:
    """2,000 densities G G^+ / tr(G G^+), G complex normal of shape
    (8, r), with the rank r cycling through 1-8 (seed 3)."""
    rng = np.random.default_rng(3)
    densities = []
    for i in range(2000):
        g = rng.normal(size=(8, 1 + i % 8)) + 1j * rng.normal(size=(8, 1 + i % 8))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2.0
        densities.append(DensityMatrix(rho / rho.trace().real))
    return densities


def test_seeded_densities_cover_every_rank(seeded_densities):
    ranks = [np.linalg.matrix_rank(rho.matrix, tol=1e-9) for rho in seeded_densities[:8]]
    assert ranks == list(range(1, 9))


def test_every_read_sees_only_the_diagonal(seeded_densities):
    # Every POVM element is diagonal, so a density and its dephased copy
    # diag(diag(rho)) give equal marginals under both reads.
    for rho in seeded_densities:
        dephased = DensityMatrix(np.diag(rho.matrix.diagonal()))
        for convention in CONVENTIONS:
            assert extract_marginals(rho, convention) == extract_marginals(dephased, convention)


def test_the_conjunction_read_always_has_a_joint(seeded_densities):
    # The conjunction read is the Born distribution diag(rho), so all
    # three existence tests pass; the parity read fails Fine on most.
    smallest, parity_fails = math.inf, 0
    for rho in seeded_densities:
        m = extract_marginals(rho, MarginalConvention.CONJUNCTION)
        report = bell_slacks(m)
        assert report.satisfied and not xi_interval(m).is_empty
        reconstruct_joint(m)
        smallest = min(smallest, *report.slack)
        parity = extract_marginals(rho, MarginalConvention.PARITY)
        parity_fails += not bell_slacks(parity).satisfied
    assert 0.0068 < smallest < 0.0069
    assert parity_fails == 1893
