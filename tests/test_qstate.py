import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.qstate import (
    CapacityError,
    DensityOperator,
    PureState,
    partial_trace,
    purity,
    random_pure_state,
    random_state,
    subset_index,
    validate,
)

from conftest import ref_partial_trace, ref_purity, tensor

I2 = DensityOperator.maximally_mixed(1)
KET0 = DensityOperator(1, np.diag([1.0, 0.0]).astype(complex))
KET1 = DensityOperator(1, np.diag([0.0, 1.0]).astype(complex))
BELL = PureState.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()


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
    a = random_state(1, 2, seed)
    b = random_state(1, 2, seed + 100)
    prod = tensor([a, b])
    # oracle: direct matrix multiplication on each factor
    assert purity(prod) == pytest.approx(ref_purity(a.matrix) * ref_purity(b.matrix), abs=1e-12)


def test_tensor_capacity():
    with pytest.raises(CapacityError):
        tensor([I2] * 15)
    # explicit cap override
    tensor([I2] * 3, cap=3)
    with pytest.raises(CapacityError):
        tensor([I2] * 4, cap=3)


def test_partial_trace_bell():
    np.testing.assert_allclose(partial_trace(BELL, [1]).matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rho01 = tensor([KET0, KET1])
    np.testing.assert_allclose(partial_trace(rho01, [2]).matrix, KET1.matrix, atol=1e-14)


def test_partial_trace_rejects_bad_subsets():
    with pytest.raises(ValueError):
        partial_trace(BELL, [])
    with pytest.raises(ValueError):
        partial_trace(BELL, [3])
    with pytest.raises(ValueError):
        partial_trace(BELL, [1, 1])
    with pytest.raises(ValueError):
        subset_index([0], 2)


@pytest.mark.parametrize("seed", range(8))
def test_partial_trace_matches_reference(seed):
    for n in range(1, 6):
        rho = random_state(n, min(4, 2**n), seed)
        for k in range(1, n + 1):
            for keep in itertools.combinations(range(1, n + 1), k):
                got = partial_trace(rho, keep).matrix
                want = ref_partial_trace(rho.matrix, n, keep)
                np.testing.assert_allclose(got, want, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_partial_trace_nesting(seed):
    # tracing to {1,2} then to {1} equals tracing directly to {1}
    rho = random_state(3, 3, seed)
    via = partial_trace(partial_trace(rho, [1, 2]), [1])
    direct = partial_trace(rho, [1])
    np.testing.assert_allclose(via.matrix, direct.matrix, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tensor_partial_trace_round_trip(seed):
    a = random_state(1, 2, seed)
    b = random_state(2, 2, seed + 1)
    back = partial_trace(tensor([a, b]), [1])
    np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-12)


def test_purity_trivial_values():
    assert purity(I2) == pytest.approx(0.5, abs=1e-15)
    assert purity(DensityOperator.maximally_mixed(2)) == pytest.approx(0.25, abs=1e-15)
    assert purity(KET0) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_purity_bounds_and_reference(seed, n):
    rank = 1 + seed % (2**n)
    rho = random_state(n, rank, seed)
    p = purity(rho)
    assert 1 / 2**n - 1e-12 <= p <= 1 + 1e-12
    assert p == pytest.approx(ref_purity(rho.matrix), abs=1e-12)


def test_validate_passes_clean_states():
    assert validate(I2).passed
    assert validate(np.eye(2) / 2).passed
    rep = validate(random_state(2, 1, 7))
    assert rep.passed and rep.min_eigenvalue > -1e-12


def test_validate_flags_non_hermitian():
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = 1e-6
    rep = validate(mat)
    assert not rep.passed
    assert rep.hermiticity_deviation == pytest.approx(1e-6, rel=1e-6)


def test_validate_flags_negative_eigenvalue():
    rep = validate(np.diag([1.2, -0.2]).astype(complex))
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)


def test_random_state_determinism_and_rank():
    a = random_state(2, 3, 42)
    b = random_state(2, 3, 42)
    assert np.array_equal(a.matrix, b.matrix)
    assert purity(random_state(1, 1, 5)) == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(random_state(2, 2, 11).matrix)
    assert np.sum(eigs > 1e-10) == 2


def test_random_state_rank_out_of_range():
    with pytest.raises(ValueError):
        random_state(1, 3, 0)
    with pytest.raises(ValueError):
        random_state(1, 0, 0)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState.from_amplitudes(np.array([1.0, 0.0, 0.0]))
    psi = random_pure_state(2, 3)
    assert purity(psi.to_density()) == pytest.approx(1.0, abs=1e-12)


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


def test_immutability():
    rho = random_state(1, 1, 0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0
