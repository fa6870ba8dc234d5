import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.bs_network import (
    JointSignProbabilityTable,
    purities_from_probabilities,
    sign_probabilities_from_purities,
    site_map,
)
from puritynet.qstate import CapacityError, PureState
from puritynet.separability import SubsetPurityMap, all_subset_purities
from puritynet.states import ghz

from conftest import (
    maximally_mixed,
    projector_expectation_oracle,
    random_pure_state,
    ref_purity,
    ref_random_state,
    ref_reduced,
    ref_walsh_hadamard,
    sign_probability,
    sign_vectors,
    triplet_singlet_weights,
)

def all_zero(n):
    amps = np.zeros(2**n)
    amps[0] = 1.0
    return PureState(n, amps).to_density()


class TestTripletSingletWeights:
    def test_all_in_a(self):
        w = triplet_singlet_weights(all_zero(1))
        assert w.w_aa == pytest.approx(1.0, abs=1e-12)
        assert (w.w_ab, w.w_bb, w.w_singlet) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_maximally_mixed_singlet_quarter(self):
        w = triplet_singlet_weights(maximally_mixed(1))
        assert w.w_singlet == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_projector_oracle_and_sums_to_one(self, seed):
        rho = ref_random_state(1, 2, seed)
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
        assert w.w_singlet == pytest.approx((1 - ref_purity(rho.matrix)) / 2, abs=1e-10)


class TestJointSignProbabilities:
    def test_pure_product_concentrates_on_all_plus(self):
        table = sign_probabilities_from_purities(all_subset_purities(all_zero(3)))
        assert sign_probability(table, (1, 1, 1)) == pytest.approx(1.0, abs=1e-12)
        for signs in sign_vectors(3)[1:]:
            assert sign_probability(table, signs) == pytest.approx(0.0, abs=1e-12)

    def test_single_site_maximally_mixed(self):
        table = sign_probabilities_from_purities(all_subset_purities(maximally_mixed(1)))
        assert sign_probability(table, (1,)) == pytest.approx(0.75, abs=1e-12)
        assert sign_probability(table, (-1,)) == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_entries_form_distribution(self, seed, n):
        table = sign_probabilities_from_purities(all_subset_purities(ref_random_state(n, 1 + seed % 2**n, seed)))
        for p in table.values:
            assert -1e-12 <= p <= 1 + 1e-12
        assert table.total() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_projector_oracle(self, seed, n):
        rho = ref_random_state(n, 2, seed)
        table = sign_probabilities_from_purities(all_subset_purities(rho))
        for signs in sign_vectors(n):
            assert sign_probability(table, signs) == pytest.approx(
                projector_expectation_oracle(rho, signs), abs=1e-10
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_marginal_consistency(self, seed):
        # summing out the sign of site 3 reproduces the table of the
        # 2-site reduction
        rho = ref_random_state(3, 2, seed)
        table3 = sign_probabilities_from_purities(all_subset_purities(rho))
        table2 = sign_probabilities_from_purities(all_subset_purities(ref_reduced(rho, [1, 2])))
        for signs in sign_vectors(2):
            marginal = sum(sign_probability(table3, signs + (s,)) for s in (1, -1))
            assert marginal == pytest.approx(sign_probability(table2, signs), abs=1e-10)


class TestProjectorOracle:
    def test_pure_product_all_plus(self):
        assert projector_expectation_oracle(all_zero(2), (1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_single_site_minus(self):
        val = projector_expectation_oracle(maximally_mixed(1), (-1,))
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
        pm = purities_from_probabilities(sign_probabilities_from_purities(all_subset_purities(ghz(3).to_density())))
        assert pm.purity((1, 2, 3)) == pytest.approx(1.0, abs=1e-10)
        for subset in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            assert pm.purity(subset) == pytest.approx(0.5, abs=1e-10)

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_on_random_states(self, seed, n):
        rho = ref_random_state(n, 1 + seed % 2**n, seed)
        direct = all_subset_purities(rho)
        recovered = purities_from_probabilities(sign_probabilities_from_purities(all_subset_purities(rho)))
        for subset in direct.subsets():
            assert recovered.purity(subset) == pytest.approx(direct.purity(subset), abs=1e-10)

    @given(st.lists(st.floats(-2, 2), min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_involution_on_arbitrary_tables(self, values):
        # forward then inverse reproduces any purity table, physical or not
        subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        pm = SubsetPurityMap(3, dict(zip(subsets, values)))
        table = sign_probabilities_from_purities(pm)
        # the transform preserves the sentinel, so the table passes the normalization gate
        assert table.total() == pytest.approx(1.0, abs=1e-9)
        back = purities_from_probabilities(table)
        for subset in subsets:
            assert back.purity(subset) == pytest.approx(pm.purity(subset), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a NaN total would pass the normalization gate and invert to NaN purities
        with pytest.raises(ValueError, match="non-finite"):
            JointSignProbabilityTable(2, [bad, 0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="non-finite"):
            JointSignProbabilityTable(2, dict(zip(sign_vectors(2), [bad, 0.5, 0.25, 0.25])))

    def test_finite_unphysical_array_tables_round_trip(self):
        pm = SubsetPurityMap(2, [1.0, -3.0, 7.0, 1e6])
        back = purities_from_probabilities(sign_probabilities_from_purities(pm))
        np.testing.assert_allclose(back.values, pm.values, rtol=0, atol=1e-9)

    def test_normalization_gate(self):
        values = {signs: 0.0 for signs in sign_vectors(2)}
        values[(1, 1)] = 0.9
        with pytest.raises(ValueError, match="deficit"):
            purities_from_probabilities(JointSignProbabilityTable(2, values))

    def test_nan_total_fails_the_gate(self):
        # finite entries whose pairwise float sum is inf + -inf = NaN
        table = JointSignProbabilityTable(3, [1e308] * 4 + [-1e308] * 4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="sums to"):
            purities_from_probabilities(table)

    @pytest.mark.parametrize("values", [[1e308] * 4 + [-1e308] * 4, [1e308] * 8], ids=["nan", "inf"])
    def test_overflowing_total_rejected_without_warning(self, values):
        # the sum overflows inside numpy; only the gate's ValueError may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sums to"):
                purities_from_probabilities(JointSignProbabilityTable(3, values))

    def test_pure_state_full_purity_recovered(self):
        rho = random_pure_state(3, 9).to_density()
        pm = purities_from_probabilities(sign_probabilities_from_purities(all_subset_purities(rho)))
        assert pm.purity((1, 2, 3)) == pytest.approx(1.0, abs=1e-10)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def hex_list(values: np.ndarray) -> list[str]:
    return list(map(float.hex, values.tolist()))


class TestWalshHadamard:
    """``site_map`` with the Hadamard matrix is the Walsh-Hadamard transform."""

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_self_inverse(self, values):
        v = np.array(values)
        np.testing.assert_allclose(site_map(site_map(v, HADAMARD), HADAMARD) / 8, v, atol=1e-9)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 4, 8, 16, 32, 64):
            v = rng.standard_normal(size)
            out = site_map(v, HADAMARD)
            for j in range(size):
                direct = sum((-1) ** bin(j & k).count("1") * v[k] for k in range(size))
                assert out[j] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n", range(15))
    def test_bit_identical_to_the_moveaxis_butterfly(self, n):
        # the same pairs in the same order: not one bit may move, nor may
        # the half matrix move one from the butterfly divided by 2^N
        rng = np.random.default_rng(n)
        v = rng.standard_normal(2**n) * 10.0 ** np.random.default_rng(n + 50).uniform(-300, 300, 2**n)
        want = ref_walsh_hadamard(v)
        assert hex_list(site_map(v, HADAMARD)) == hex_list(want)
        assert hex_list(site_map(v, HADAMARD / 2)) == hex_list(want / 2**n)

    def test_rejects_non_power_of_two(self):
        for values in (np.ones(0), np.ones(3), np.ones(6), np.ones((2, 2))):
            with pytest.raises(ValueError, match="power of two"):
                site_map(values, HADAMARD)


def kron_oracle(values: np.ndarray, m) -> np.ndarray:
    """``values`` under the dense 2^N x 2^N matrix kron(m, ..., m)."""
    n = values.size.bit_length() - 1
    return functools.reduce(np.kron, [np.asarray(m, dtype=float)] * n, np.eye(1)) @ values


class TestSiteMap:
    @pytest.mark.parametrize(
        "m",
        [[[1.0, 0.0], [0.83 - 1, 0.83]], [[1.0, -1.0], [0.0, 1.0]], [[0.3, -1.7], [2.2, 0.9]]],
        ids=["contrast", "moebius", "general"],
    )
    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_dense_kron_oracle(self, m, n):
        v = np.random.default_rng(n).standard_normal(2**n)
        np.testing.assert_allclose(site_map(v, m), kron_oracle(v, m), rtol=1e-12, atol=1e-12)

    def test_each_sign_transform_is_one_call(self):
        purities = all_subset_purities(ref_random_state(4, 2, 5))
        table = sign_probabilities_from_purities(purities)
        assert hex_list(table.values) == hex_list(site_map(purities.values, HADAMARD / 2))
        back = purities_from_probabilities(table).values
        want = site_map(table.values, HADAMARD)
        assert back[0] == 1.0 and hex_list(back[1:]) == hex_list(want[1:])

    def test_leaves_its_input_unchanged(self):
        v = np.arange(8.0)
        site_map(v, HADAMARD)
        assert v.tolist() == list(range(8))
