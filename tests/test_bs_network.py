import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.bs_network import (
    JointSignProbabilityTable,
    pair_projection_probabilities,
    purities_from_probabilities,
    sign_probabilities_from_purities,
    joint_sign_probabilities,
    sign_vectors,
    walsh_hadamard,
)
from puritynet.qstate import (
    CapacityError,
    DensityOperator,
    PureState,
    partial_trace,
    purity,
    random_state,
)
from puritynet.separability import SubsetPurityMap, all_subset_purities
from puritynet.states import ghz

from conftest import projector_expectation_oracle, triplet_singlet_weights

SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def all_zero(n):
    amps = np.zeros(2**n)
    amps[0] = 1.0
    return PureState(n, amps).to_density()


class TestPairProjection:
    def test_pure_state_never_antisymmetrizes(self):
        out = pair_projection_probabilities(all_zero(1))
        assert out.p_plus == pytest.approx(1.0, abs=1e-12)
        assert out.p_minus == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        out = pair_projection_probabilities(DensityOperator.maximally_mixed(1))
        assert (out.p_plus, out.p_minus) == pytest.approx((0.75, 0.25), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_swap_matrix_oracle(self, seed):
        # oracle: tr[(I +- V)/2 (rho x rho)] with the explicit 4x4 swap
        rho = random_state(1, 2, seed)
        two = np.kron(rho.matrix, rho.matrix)
        p_plus = np.trace((np.eye(4) + SWAP4) / 2 @ two).real
        out = pair_projection_probabilities(rho)
        assert out.p_plus == pytest.approx(p_plus, abs=1e-12)
        assert out.p_plus + out.p_minus == pytest.approx(1.0, abs=1e-12)


class TestTripletSingletWeights:
    def test_all_in_a(self):
        w = triplet_singlet_weights(all_zero(1))
        assert w.w_aa == pytest.approx(1.0, abs=1e-12)
        assert (w.w_ab, w.w_bb, w.w_singlet) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_maximally_mixed_singlet_quarter(self):
        w = triplet_singlet_weights(DensityOperator.maximally_mixed(1))
        assert w.w_singlet == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_projector_oracle_and_sums_to_one(self, seed):
        rho = random_state(1, 2, seed)
        w = triplet_singlet_weights(rho)
        two = np.kron(rho.matrix, rho.matrix)
        vecs = {
            "aa": np.array([1, 0, 0, 0]),
            "ab": np.array([0, 1, 1, 0]) / math.sqrt(2),
            "bb": np.array([0, 0, 0, 1]),
            "singlet": np.array([0, 1, -1, 0]) / math.sqrt(2),
        }
        for name, vec in vecs.items():
            expected = np.vdot(vec, two @ vec).real
            assert getattr(w, f"w_{name}") == pytest.approx(expected, abs=1e-12)
        assert w.total() == pytest.approx(1.0, abs=1e-10)
        assert w.w_singlet == pytest.approx(pair_projection_probabilities(rho).p_minus, abs=1e-10)


class TestJointSignProbabilities:
    def test_pure_product_concentrates_on_all_plus(self):
        table = joint_sign_probabilities(all_zero(3))
        assert table.probability((1, 1, 1)) == pytest.approx(1.0, abs=1e-12)
        for signs in sign_vectors(3)[1:]:
            assert table.probability(signs) == pytest.approx(0.0, abs=1e-12)

    def test_single_site_maximally_mixed(self):
        table = joint_sign_probabilities(DensityOperator.maximally_mixed(1))
        assert table.probability((1,)) == pytest.approx(0.75, abs=1e-12)
        assert table.probability((-1,)) == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_entries_form_distribution(self, seed, n):
        table = joint_sign_probabilities(random_state(n, 1 + seed % 2**n, seed))
        for p in table.values:
            assert -1e-12 <= p <= 1 + 1e-12
        assert table.total() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_projector_oracle(self, seed, n):
        rho = random_state(n, 2, seed)
        table = joint_sign_probabilities(rho)
        for signs in sign_vectors(n):
            assert table.probability(signs) == pytest.approx(
                projector_expectation_oracle(rho, signs), abs=1e-10
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_marginal_consistency(self, seed):
        # summing out the sign of site 3 reproduces the table of the
        # 2-site reduction
        rho = random_state(3, 2, seed)
        table3 = joint_sign_probabilities(rho)
        table2 = joint_sign_probabilities(partial_trace(rho, [1, 2]))
        for signs in sign_vectors(2):
            marginal = sum(table3.probability(signs + (s,)) for s in (1, -1))
            assert marginal == pytest.approx(table2.probability(signs), abs=1e-10)


class TestProjectorOracle:
    def test_pure_product_all_plus(self):
        assert projector_expectation_oracle(all_zero(2), (1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_single_site_minus(self):
        val = projector_expectation_oracle(DensityOperator.maximally_mixed(1), (-1,))
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            projector_expectation_oracle(all_zero(5), (1,) * 5)

    def test_sign_length_checked(self):
        with pytest.raises(ValueError):
            projector_expectation_oracle(all_zero(2), (1,))


class TestInversion:
    def test_all_plus_table_gives_unit_purities(self):
        values = {signs: 0.0 for signs in sign_vectors(3)}
        values[(1, 1, 1)] = 1.0
        pm = purities_from_probabilities(JointSignProbabilityTable(3, values))
        for subset in pm.subsets():
            assert pm.purity(subset) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_table_inverts_to_half_purities(self):
        pm = purities_from_probabilities(joint_sign_probabilities(ghz(3).to_density()))
        assert pm.purity((1, 2, 3)) == pytest.approx(1.0, abs=1e-10)
        for subset in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            assert pm.purity(subset) == pytest.approx(0.5, abs=1e-10)

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_on_random_states(self, seed, n):
        rho = random_state(n, 1 + seed % 2**n, seed)
        direct = all_subset_purities(rho)
        recovered = purities_from_probabilities(joint_sign_probabilities(rho))
        for subset in direct.subsets():
            assert recovered.purity(subset) == pytest.approx(direct.purity(subset), abs=1e-10)

    @given(st.lists(st.floats(-2, 2), min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_involution_on_arbitrary_tables(self, values):
        # forward then inverse reproduces any purity table, physical or not
        subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        pm = SubsetPurityMap(3, dict(zip(subsets, values)))
        table = sign_probabilities_from_purities(pm)
        # bypass the normalization gate: the transform preserves the sentinel
        assert table.total() == pytest.approx(1.0, abs=1e-9)
        back = purities_from_probabilities(table, norm_atol=1e-6)
        for subset in subsets:
            assert back.purity(subset) == pytest.approx(pm.purity(subset), abs=1e-12)

    def test_normalization_gate(self):
        values = {signs: 0.0 for signs in sign_vectors(2)}
        values[(1, 1)] = 0.9
        with pytest.raises(ValueError, match="deficit"):
            purities_from_probabilities(JointSignProbabilityTable(2, values))

    def test_pure_state_full_purity_recovered(self):
        from puritynet.qstate import random_pure_state

        rho = random_pure_state(3, 9).to_density()
        pm = purities_from_probabilities(joint_sign_probabilities(rho))
        assert pm.purity((1, 2, 3)) == pytest.approx(1.0, abs=1e-10)


class TestWalshHadamard:
    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_self_inverse(self, values):
        v = np.array(values)
        np.testing.assert_allclose(walsh_hadamard(walsh_hadamard(v)) / 8, v, atol=1e-9)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 4, 8, 16, 32, 64):
            v = rng.standard_normal(size)
            out = walsh_hadamard(v)
            for j in range(size):
                direct = sum((-1) ** bin(j & k).count("1") * v[k] for k in range(size))
                assert out[j] == pytest.approx(direct, abs=1e-12)

    def test_rejects_non_power_of_two(self):
        for size in (0, 3, 6):
            with pytest.raises(ValueError):
                walsh_hadamard(np.ones(size))
