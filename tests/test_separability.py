import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.qstate import (
    DensityOperator,
    PureState,
    purity,
    random_pure_state,
    random_state,
)
from puritynet.separability import (
    SubsetPurityMap,
    all_subset_purities,
    check_chain,
    chsh_max,
    chsh_threshold_phi,
    correlation_matrix,
    fig2a_violations,
    left_to_right_chain,
    maximal_chains,
)
from puritynet.states import ClusterFamilySpec, cluster_family_state, ghz, linear_cluster

from conftest import ref_subset_purity, tensor


def all_zero(n):
    amps = np.zeros(2**n)
    amps[0] = 1.0
    return PureState(n, amps).to_density()


class TestAllSubsetPurities:
    def test_pure_product_all_ones(self):
        pm = all_subset_purities(all_zero(3))
        assert len(pm.entries) == 7
        for v in pm.entries.values():
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_ghz3_profile(self):
        pm = all_subset_purities(ghz(3).to_density())
        assert pm.purity((1, 2, 3)) == pytest.approx(1.0, abs=1e-12)
        for subset in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            assert pm.purity(subset) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_oracle(self, seed):
        # every depth of the depth-first recursion, on mixed and pure states
        for n in range(2, 6):
            for rho in (random_state(n, 3, seed), random_pure_state(n, seed).to_density()):
                pm = all_subset_purities(rho)
                for subset in pm.subsets():
                    assert pm.purity(subset) == pytest.approx(
                        ref_subset_purity(rho.matrix, n, subset), abs=1e-12
                    )

    def test_empty_subset_sentinel(self):
        pm = all_subset_purities(all_zero(2))
        assert pm.purity(()) == 1.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_complement_symmetry_for_pure_states(self, seed):
        # Schmidt symmetry: purity(rho_T) = purity(rho_Tc) for pure rho
        pm = all_subset_purities(random_pure_state(3, seed).to_density())
        full = {1, 2, 3}
        for subset in [(1,), (2,), (3,)]:
            comp = tuple(sorted(full - set(subset)))
            assert pm.purity(subset) == pytest.approx(pm.purity(comp), abs=1e-10)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            SubsetPurityMap(2, {(1,): 1.0})
        with pytest.raises(ValueError):  # (2, 1) and (1, 2) are one subset
            SubsetPurityMap(2, {(1,): 1.0, (1, 2): 1.0, (2, 1): 1.0})
        with pytest.raises(ValueError):
            SubsetPurityMap(2, np.ones(3))
        with pytest.raises(ValueError):  # values[0] is the empty-subset sentinel
            SubsetPurityMap(2, np.array([0.5, 1.0, 1.0, 1.0]))

    def test_mapping_and_array_forms_agree(self):
        # site 1 is the most significant bit of the subset mask
        pm = SubsetPurityMap(2, {(1,): 0.25, (2,): 0.5, (1, 2): 0.75})
        np.testing.assert_array_equal(pm.values, [1.0, 0.5, 0.25, 0.75])
        assert SubsetPurityMap(2, pm.values).entries == pm.entries


class TestCheckChain:
    def test_ghz_chain(self):
        pm = all_subset_purities(ghz(3).to_density())
        rep = check_chain(pm, [(1, 2, 3), (1, 2), (1,)])
        assert rep.links[0].violation == pytest.approx(0.5, abs=1e-12)
        assert rep.links[1].violation == pytest.approx(0.0, abs=1e-12)
        assert rep.entangled
        assert len(rep.violations) == 1

    def test_product_state_no_flag(self):
        pm = all_subset_purities(all_zero(3))
        for chain in maximal_chains(3):
            assert not check_chain(pm, chain).entangled

    def test_cluster_family_pi_first_link(self):
        pm = all_subset_purities(cluster_family_state(ClusterFamilySpec(3, math.pi)).to_density())
        rep = check_chain(pm, [(1, 2, 3), (1, 2)])
        assert rep.links[0].violation == pytest.approx(0.5, abs=1e-10)

    def test_non_nested_rejected(self):
        pm = all_subset_purities(all_zero(3))
        with pytest.raises(ValueError, match="nested"):
            check_chain(pm, [(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            check_chain(pm, [(1, 2)])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_separable_products_never_flagged(self, seed):
        # every product state satisfies the purity chain on every maximal chain
        factors = [random_state(1, 1 + (seed + k) % 2, seed + 10 * k) for k in range(3)]
        pm = all_subset_purities(tensor(factors))
        for chain in maximal_chains(3):
            assert not check_chain(pm, chain).entangled

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_pure_first_link_is_one_minus_reduction(self, seed):
        rho = random_pure_state(3, seed).to_density()
        pm = all_subset_purities(rho)
        rep = check_chain(pm, left_to_right_chain(3))
        assert rep.links[0].violation == pytest.approx(1.0 - pm.purity((1, 2)), abs=1e-10)


class TestFig2aViolations:
    def test_phi_zero_all_zero(self):
        pt = fig2a_violations(0.0)
        assert (pt.v1, pt.v2, pt.v3) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_phi_pi_first_violation_half(self):
        assert fig2a_violations(math.pi).v1 == pytest.approx(0.5, abs=1e-12)

    def test_v2_vanishes_on_grid(self):
        for phi in np.linspace(0, 2 * math.pi, 101):
            assert fig2a_violations(phi).v2 <= 1e-12

    def test_v3_positive_for_collision_family(self):
        vals = [fig2a_violations(phi).v3 for phi in np.linspace(0, 2 * math.pi, 101)]
        assert max(vals) > 0.1

    def test_v3_vanishes_for_superposition_family(self):
        # the two-term formula cannot separate edge from middle reductions
        for phi in np.linspace(0, 2 * math.pi, 21):
            pt = fig2a_violations(phi, family="superposition")
            assert abs(pt.v3) <= 1e-12
            assert abs(pt.v2) <= 1e-12

    def test_only_three_sites(self):
        with pytest.raises(ValueError):
            fig2a_violations(0.3, n_sites=4)


class TestChshMax:
    def test_product_state_classical_bound(self):
        assert chsh_max(all_zero(2)) == pytest.approx(2.0, abs=1e-12)

    def test_bell_state_tsirelson(self):
        bell = PureState.from_amplitudes(np.array([1, 0, 0, 1]) / math.sqrt(2)).to_density()
        assert chsh_max(bell) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_cluster_state_tsirelson(self):
        assert chsh_max(linear_cluster(2).to_density()) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            chsh_max(all_zero(3))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)

        def haar_u2():
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        rho = random_state(2, 2, seed)
        u = np.kron(haar_u2(), haar_u2())
        rotated = DensityOperator(2, u @ rho.matrix @ u.conj().T)
        assert chsh_max(rotated) == pytest.approx(chsh_max(rho), abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_bounded_by_tsirelson(self, seed):
        rho = random_state(2, 1 + seed % 4, seed)
        assert chsh_max(rho) <= 2 * math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_against_settings_search_oracle(self, seed):
        # coarse search over measurement directions can only approach the
        # closed form from below
        rho = random_state(2, 2, seed)
        T = correlation_matrix(rho)
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(4000):
            a, ap = rng.standard_normal((2, 3))
            a /= np.linalg.norm(a)
            ap /= np.linalg.norm(ap)
            # optimal b, b' for fixed a, a' in closed form
            best = max(best, np.linalg.norm(T.T @ (a + ap)) + np.linalg.norm(T.T @ (a - ap)))
        closed = chsh_max(rho)
        assert best <= closed + 1e-9
        assert best == pytest.approx(closed, abs=0.05)

    def test_pure_family_violates_immediately(self):
        # every entangled pure 2-qubit state violates CHSH under optimal
        # settings, so the threshold of the pure family sits at phi ~ 0
        assert chsh_max(cluster_family_state(ClusterFamilySpec(2, 0.05)).to_density()) > 2.0
        assert chsh_threshold_phi("superposition") < 0.01

    def test_purity_detects_wherever_chsh_detects(self):
        for phi in np.linspace(0, 2 * math.pi, 101):
            rho = cluster_family_state(ClusterFamilySpec(2, phi)).to_density()
            pm = all_subset_purities(rho)
            chsh_detects = chsh_max(rho) > 2 + 1e-9
            purity_detects = check_chain(pm, [(1, 2), (1,)]).entangled
            if chsh_detects:
                assert purity_detects
