import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.qstate import (
    CapacityError,
    DensityOperator,
    PureState,
    check_normalized,
    check_density,
    random_states,
    trace_site,
)
from puritynet.separability import all_subset_purities

from conftest import (
    maximally_mixed,
    random_pure_state,
    ref_partial_trace,
    ref_purity,
    ref_random_state,
    ref_reduced,
    tensor,
)

I2 = maximally_mixed(1)
KET0 = DensityOperator(1, np.diag([1.0, 0.0]).astype(complex))
KET1 = DensityOperator(1, np.diag([0.0, 1.0]).astype(complex))
BELL = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()


def test_tensor_maximally_mixed():
    out = tensor([I2, I2])
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)


def test_tensor_basis_product():
    out = tensor([KET0, KET1])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01>
    np.testing.assert_allclose(out.matrix, expected, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_tensor_purity_multiplicative(seed):
    a = ref_random_state(1, 2, seed)
    b = ref_random_state(1, 2, seed + 100)
    prod = tensor([a, b])
    # oracle: direct matrix multiplication on each factor
    assert all_subset_purities(prod).values[-1] == pytest.approx(ref_purity(a.matrix) * ref_purity(b.matrix), abs=1e-12)


def test_tensor_capacity():
    with pytest.raises(CapacityError):
        tensor([I2] * 15)
    # explicit cap override
    tensor([I2] * 3, cap=3)
    with pytest.raises(CapacityError):
        tensor([I2] * 4, cap=3)


def trace_to(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Reduce an n-site operator to ``keep`` with ``trace_site``, highest
    traced site first, so the sites below it keep their positions."""
    for site in range(n, 0, -1):
        if site not in keep:
            mat = trace_site(mat, site - 1)
    return mat


def test_partial_trace_bell():
    for position in (0, 1):
        np.testing.assert_allclose(trace_site(BELL.matrix, position), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rho01 = tensor([KET0, KET1])
    np.testing.assert_allclose(trace_site(rho01.matrix, 0), KET1.matrix, atol=1e-14)
    np.testing.assert_allclose(trace_site(rho01.matrix, 1), KET0.matrix, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_partial_trace_matches_reference(seed):
    for n in range(1, 6):
        rho = ref_random_state(n, min(4, 2**n), seed)
        for k in range(1, n + 1):
            for keep in itertools.combinations(range(1, n + 1), k):
                got = trace_to(rho.matrix, n, keep)
                want = ref_partial_trace(rho.matrix, n, keep)
                np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_trace_site_reduces_each_member_of_a_stack_alone(seed):
    # a (2, 3) stack of random 4-site operators of ranks 1..3, traced at every position
    n = 4
    states = [ref_random_state(n, 1 + k % 3, 6 * seed + k) for k in range(6)]
    stack = np.stack([rho.matrix for rho in states]).reshape(2, 3, 2**n, 2**n)
    for position in range(n):
        got = trace_site(stack, position)
        assert got.shape == (2, 3, 2 ** (n - 1), 2 ** (n - 1))
        for k, rho in enumerate(states):
            alone = trace_site(rho.matrix, position)
            assert got[divmod(k, 3)].tobytes() == alone.tobytes()
            keep = [site for site in range(1, n + 1) if site != position + 1]
            np.testing.assert_allclose(alone, ref_reduced(rho, keep).matrix, rtol=0, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_partial_trace_nesting(seed):
    # tracing site 3 then site 2 equals tracing site 2 then site 3
    mat = ref_random_state(3, 3, seed).matrix
    via = trace_site(trace_site(mat, 2), 1)
    other = trace_site(trace_site(mat, 1), 1)
    np.testing.assert_allclose(via, other, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tensor_partial_trace_round_trip(seed):
    a = ref_random_state(1, 2, seed)
    b = ref_random_state(2, 2, seed + 1)
    back = trace_to(tensor([a, b]).matrix, 3, [1])
    np.testing.assert_allclose(back, a.matrix, atol=1e-12)


def test_purity_trivial_values():
    # the full set's entry of the table, tr(rho^2) of the whole state
    assert all_subset_purities(I2).values[-1] == pytest.approx(0.5, abs=1e-15)
    assert all_subset_purities(maximally_mixed(2)).values[-1] == pytest.approx(0.25, abs=1e-15)
    assert all_subset_purities(KET0).values[-1] == pytest.approx(1.0, abs=1e-15)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_purity_bounds_and_reference(seed, n):
    rank = 1 + seed % (2**n)
    rho = ref_random_state(n, rank, seed)
    p = all_subset_purities(rho).values[-1]
    assert 1 / 2**n - 1e-12 <= p <= 1 + 1e-12
    assert p == pytest.approx(ref_purity(rho.matrix), abs=1e-12)


def test_random_state_determinism_and_rank():
    a = random_states(2, [3], [42])
    b = random_states(2, [3], [42])
    assert np.array_equal(a, b)
    assert ref_purity(random_states(1, [1], [5])[0]) == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(random_states(2, [2], [11])[0])
    assert np.sum(eigs > 1e-10) == 2
    assert np.linalg.eigvalsh(random_states(2, [1], [7])[0]).min() > -1e-12


def test_random_state_rank_out_of_range():
    with pytest.raises(ValueError):
        random_states(1, [3], [0])
    with pytest.raises(ValueError):
        random_states(1, [0], [0])
    with pytest.raises(ValueError, match="rank must be in 1..2, got 3"):
        random_states(1, [1, 3], [0, 1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_states_match_the_per_seed_oracle(n):
    # every rank, each at several seeds, in one stack of mixed ranks: the
    # zero columns that pad the smaller ranks change nothing
    ranks = [rank for rank in range(1, 2**n + 1) for _ in range(3)]
    seeds = [1000 * n + 17 * k for k in range(len(ranks))]
    stack = random_states(n, ranks, seeds)
    assert stack.shape == (len(ranks), 2**n, 2**n)
    for matrix, rank, seed in zip(stack, ranks, seeds):
        want = ref_random_state(n, rank, seed).matrix
        np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-15)
        assert np.linalg.matrix_rank(matrix, tol=1e-10) == rank


def test_check_density_checks_every_member_of_a_stack():
    good = random_states(1, [1, 2], [3, 4])
    check_density(good)
    skewed = good.copy()
    skewed[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"not Hermitian: max \|rho - rho\^dag\| = 1.000e-06"):
        check_density(skewed)
    scaled = good * [[[1.0]], [[1.5]]]
    with pytest.raises(ValueError, match="trace deviates from 1 by 5.000e-01"):
        check_density(scaled)
    with pytest.raises(ValueError, match="non-finite"):
        check_density(good + [[[0.0]], [[np.nan]]])


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))
    for length in (0, 3, 6):
        with pytest.raises(ValueError, match=rf"shape \({length},\) does not match 2 qubits"):
            PureState(2, np.ones(length))
    psi = random_pure_state(2, 3)
    assert ref_purity(psi.to_density().matrix) == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(1, np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityOperator(1, np.eye(2, dtype=complex))  # trace 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite(bad):
    # a NaN passes every tolerance comparison, so it needs its own check
    with pytest.raises(ValueError, match="non-finite"):
        PureState(1, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator(1, np.array([[0.5, bad], [bad, 0.5]], dtype=complex))


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ([1e200, 0.0], r"not normalized: \|norm-1\| = inf"),
        ([np.nan, 0.0], "non-finite amplitudes"),
        ([np.inf, 0.0], "non-finite amplitudes"),
        ([1j * np.inf, 0.0], "non-finite amplitudes"),
    ],
    ids=["overflowing-norm", "nan", "inf", "imaginary-inf"],
)
def test_bad_amplitudes_raise_without_warning(amplitudes, message):
    # the norm of [1e200, 0] overflows float64; it must fail as unnormalized,
    # for one vector and for a stack, without numpy's RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            PureState(1, amplitudes)
        with pytest.raises(ValueError, match=message):
            check_normalized(np.array([[1.0, 0.0], amplitudes], dtype=complex))


def test_check_normalized_accepts_unit_vectors_and_stacks():
    check_normalized(np.array([0.6, 0.8j]))
    check_normalized(np.array([[0.6, 0.8j], [1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"\|norm-1\| = 1.000e-06"):
        check_normalized(np.array([[1.0, 0.0], [1.0 + 1e-6, 0.0]]))


def test_immutability():
    rho = ref_random_state(1, 1, 0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0
