import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet import states
from puritynet.cli import MAX_ATOMS
from puritynet.qstate import PureState
from puritynet.states import (
    InversionError,
    cat_purity_closed_form,
    cat_state,
    cluster_family_amplitudes,
    cluster_family_state,
    collision_phase_amplitudes,
    estimate_epsilon,
    ghz,
    linear_cluster,
)

from conftest import (
    cat_reduced_purity_brute_force,
    ref_epsilon_resolution,
    ref_estimate_epsilon,
    ref_purity,
    ref_reduced,
    ref_subset_purity,
)

KET0 = PureState(1, [1.0, 0.0])
KET1 = PureState(1, [0.0, 1.0])


def bloch(theta, azim=0.0):
    return PureState(1, [math.cos(theta / 2), np.exp(1j * azim) * math.sin(theta / 2)])


class TestLinearCluster:
    def test_two_sites(self):
        np.testing.assert_allclose(
            linear_cluster(2).amplitudes, np.array([1, 1, 1, -1]) / 2, atol=1e-15
        )

    def test_three_site_signs(self):
        amps = linear_cluster(3).amplitudes
        for x in range(8):
            b = [(x >> (2 - i)) & 1 for i in range(3)]
            expected = (-1) ** (b[0] * b[1] + b[1] * b[2]) / math.sqrt(8)
            assert amps[x] == pytest.approx(expected, abs=1e-15)

    def test_single_qubit_reductions_maximally_mixed(self):
        rho = linear_cluster(3).to_density()
        for site in [1, 2, 3]:
            assert ref_purity(ref_reduced(rho, [site]).matrix) == pytest.approx(0.5, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            linear_cluster(1)


class TestClusterFamily:
    def test_phi_zero_is_all_zeros(self):
        psi = cluster_family_state(3, 0.0)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_phi_pi_is_cluster(self):
        psi = cluster_family_state(4, math.pi)
        np.testing.assert_allclose(psi.amplitudes, linear_cluster(4).amplitudes, atol=1e-15)

    @given(st.floats(0.0, 2 * math.pi), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_normalized_everywhere(self, phi, n):
        psi = cluster_family_state(n, phi)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_all_proper_subset_purities_coincide(self):
        # characteristic of the two-term superposition: every proper
        # reduction has the same purity, so only the full-set link violates
        rho = cluster_family_state(3, 1.3).to_density()
        vals = [ref_subset_purity(rho.matrix, 3, s) for s in ([1], [2], [3], [1, 2], [1, 3], [2, 3])]
        assert max(vals) - min(vals) < 1e-12


class TestCollisionPhaseState:
    def test_phi_zero_is_uniform(self):
        psi = PureState(3, collision_phase_amplitudes(3, 0.0))
        np.testing.assert_allclose(psi.amplitudes, np.full(8, 1 / math.sqrt(8)), atol=1e-15)

    def test_phi_pi_is_cluster(self):
        psi = PureState(3, collision_phase_amplitudes(3, math.pi))
        np.testing.assert_allclose(psi.amplitudes, linear_cluster(3).amplitudes, atol=1e-12)

    def test_middle_qubit_purity_drops_below_pair(self):
        # the collision state distinguishes middle from edge reductions
        rho = PureState(3, collision_phase_amplitudes(3, math.pi / 2)).to_density()
        p12 = ref_purity(ref_reduced(rho, [1, 2]).matrix)
        p2 = ref_purity(ref_reduced(rho, [2]).matrix)
        assert p12 - p2 > 0.1


def test_phase_families_build_each_family_by_name():
    phi = np.array([0.0, 1.1, math.pi])
    assert list(states.PHASE_FAMILIES) == ["collision", "superposition"]
    for family, build in [("collision", collision_phase_amplitudes), ("superposition", cluster_family_amplitudes)]:
        got = states.phase_family_amplitudes(family, 3, phi)
        assert got.shape == (3, 8) and got.tobytes() == build(3, phi).tobytes()


class TestGhz:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_purity_profile(self, n):
        rho = ghz(n).to_density()
        assert ref_purity(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert ref_purity(ref_reduced(rho, [1]).matrix) == pytest.approx(0.5, abs=1e-12)
        if n > 2:
            assert ref_purity(ref_reduced(rho, list(range(1, n))).matrix) == pytest.approx(0.5, abs=1e-12)

    def test_equals_cat_of_orthogonal_branches(self):
        psi, epsilon = cat_state(3, KET0, KET1)
        np.testing.assert_allclose(psi.amplitudes, ghz(3).amplitudes, atol=1e-15)
        assert epsilon == 1.0


class TestCatState:
    def test_identical_branches_are_product(self):
        psi, epsilon = cat_state(4, KET0, KET0)
        assert epsilon == 0.0
        rho = psi.to_density()
        for m in [1, 2, 3]:
            assert ref_purity(ref_reduced(rho, list(range(1, 5 - m))).matrix) == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_from_branch_overlap(self):
        phi1, phi2 = bloch(0.3, 1.1), bloch(2.0, 0.4)
        _, epsilon = cat_state(5, phi1, phi2)
        gamma = abs(np.vdot(phi1.amplitudes, phi2.amplitudes)) ** 2
        assert 0.0 < epsilon < 1.0
        assert epsilon**2 == pytest.approx(1.0 - gamma, abs=1e-12)

    def test_degenerate_superposition_rejected(self):
        # antipodal branches at odd n: |phi2> = -|phi1| up to phase, K ~ 0
        minus0 = PureState(1, [-1.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            cat_state(3, KET0, minus0)

    def test_brute_force_matches_closed_form_n6(self):
        phi2 = bloch(2 * math.acos(0.5))  # real overlap 0.5, gamma 0.25
        for m in range(7):
            bf = cat_reduced_purity_brute_force(6, KET0, phi2, m)
            cf = cat_purity_closed_form(6, 2, 0.25) if m == 2 else cat_purity_closed_form(6, m, 0.25)
            assert bf == pytest.approx(cf, abs=1e-12)


class TestCatPurityClosedForm:
    def test_m_zero_is_one(self):
        for gamma in [0.0, 0.3, 0.77, 1.0]:
            assert cat_purity_closed_form(8, 0, gamma) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_zero_is_half(self):
        assert cat_purity_closed_form(300, 7, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        # brute-force partial-trace oracle value, overlap 0.5 (gamma 0.25)
        assert cat_purity_closed_form(6, 2, 0.25) == pytest.approx(0.5473372781065089, abs=1e-14)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            cat_purity_closed_form(4, 5, 0.5)
        with pytest.raises(ValueError):
            cat_purity_closed_form(4, 2, 1.5)

    def test_monotone_approach_to_half(self):
        # |Pi - 1/2| never increases with the reduction count m
        for gamma in [0.2, 0.5, 0.8, 0.95]:
            gaps = [abs(cat_purity_closed_form(300, m, gamma) - 0.5) for m in range(1, 151)]
            assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))


class TestEstimateEpsilon:
    # The band's ends are exactly Pi(0) = 1/2 and Pi(1) = 1 for every
    # 0 < n < N, so they invert to exactly epsilon = 1 and 0.
    END_CASES = [(20, 1), (300, 7), (300, 7.5), (300, 0.37), (300, 299.5), (10**9, 5 * 10**7)]

    def test_purity_one_gives_zero(self):
        for n_sites, n_lost in self.END_CASES:
            assert estimate_epsilon(1.0, n_sites, n_lost) == 0.0, (n_sites, n_lost)

    def test_purity_half_gives_one(self):
        for n_sites, n_lost in self.END_CASES:
            assert estimate_epsilon(0.5, n_sites, n_lost) == 1.0, (n_sites, n_lost)

    def test_round_trip_spec_example(self):
        pi = cat_purity_closed_form(300, 15, 1 - 0.36)
        assert estimate_epsilon(pi, 300, 15) == pytest.approx(0.6, abs=1e-6)

    def test_round_trip_attainable_region(self):
        # float64 keeps ~1e-6 inversion accuracy only while gamma^n stays
        # well above the representational floor of Pi - 1/2 (~1e-16); pairs
        # below gamma^n = 1e-12 are excluded here and covered by the
        # documented-failure test below.
        for eps in np.arange(0.05, 1.0001, 0.05):
            gamma = 1 - eps**2
            for n in range(1, 21):
                if 0.0 < gamma and gamma**n < 1e-12:
                    continue
                pi = cat_purity_closed_form(300, n, gamma)
                assert estimate_epsilon(pi, 300, n) == pytest.approx(eps, abs=1e-6), (eps, n)

    @pytest.mark.xfail(
        strict=True,
        reason="float64 cannot support a 1e-6 inversion where gamma^n < 1e-12 "
        "(the README bound): a float64 Pi fixes epsilon only to "
        "r = spacing(Pi)/|dPi/deps|, and at eps=0.9, n=20 the gap "
        "Pi - 1/2 = 1.9e-15 gives r = 3.1e-4",
    )
    def test_round_trip_full_stated_range(self):
        for eps in np.arange(0.05, 1.0001, 0.05):
            gamma = 1 - eps**2
            for n in range(1, 21):
                pi = cat_purity_closed_form(300, n, gamma)
                assert estimate_epsilon(pi, 300, n) == pytest.approx(eps, abs=1e-6), (eps, n)

    def test_fractional_n_supported(self):
        pi = cat_purity_closed_form(300, 17, 0.64)
        # inverting at a nearby fractional n still lands close
        assert estimate_epsilon(pi, 300, 17.0) == pytest.approx(0.6, abs=1e-6)

    def test_no_information_rejected(self):
        with pytest.raises(InversionError, match="no\\s+inversion"):
            estimate_epsilon(1.0, 300, 0)
        with pytest.raises(InversionError):
            estimate_epsilon(0.7, 300, 300)

    def test_out_of_band_rejected(self):
        with pytest.raises(InversionError, match="achievable band"):
            estimate_epsilon(0.4, 300, 7)
        with pytest.raises(InversionError):
            estimate_epsilon(1.2, 300, 7)

    def test_matches_bisection_oracle_on_grid(self):
        # The Newton solve and the bisection may part only where a float64
        # purity no longer pins epsilon (r, the oracle's resolution), or by
        # the bisection's own 1e-10 tolerance in gamma.
        for n_sites in (20, 300, 3000):
            lost = [n for n in range(1, 80) if n < n_sites] + [0.37, 2.5, 17.2, n_sites - 1.0, n_sites - 0.5]
            for n_lost in lost:
                for eps in (np.arange(1, 100) / 100).tolist():
                    pi = cat_purity_closed_form(n_sites, n_lost, 1.0 - eps**2)
                    got, want = estimate_epsilon(pi, n_sites, n_lost), ref_estimate_epsilon(pi, n_sites, n_lost)
                    bound = max(4 * ref_epsilon_resolution(n_sites, n_lost, eps), 2e-9)
                    assert abs(got - want) <= bound, (n_sites, n_lost, eps, got, want)

    def test_step_below_an_ulp_ends_the_solve(self, monkeypatch):
        # Here every Newton iterate lands above the root, so lo stays 0: a
        # last step too small to move gamma must end the solve, not send it
        # bisecting from [0, gamma] (38 evaluations without that stop).
        evaluations = []
        helper = states._cat_purity_and_slope

        def counted(*args):
            evaluations.append(args)
            return helper(*args)

        monkeypatch.setattr(states, "_cat_purity_and_slope", counted)
        pi = cat_purity_closed_form(300, 22, 1.0 - 0.21**2)
        assert estimate_epsilon(pi, 300, 22) == pytest.approx(0.21, abs=1e-12)
        assert len(evaluations) <= 5

    @settings(max_examples=300, deadline=None)
    @given(
        n_sites=st.integers(2, MAX_ATOMS),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        purity=st.floats(0.5 - 2e-9, 1.0 + 2e-9) | st.sampled_from([0.5 - 1e-9, 0.5, 1.0, 1.0 + 1e-9]),
    )
    def test_always_ends_in_range_or_documented_error(self, n_sites, fraction, purity):
        # any RuntimeWarning fails the test (pyproject.toml filterwarnings)
        n_lost = n_sites * fraction
        if not 0 < n_lost < n_sites:
            return
        try:
            eps = estimate_epsilon(purity, n_sites, n_lost)
        except InversionError as exc:
            assert "achievable band" in str(exc) and not 0.5 - 1e-9 <= purity <= 1.0 + 1e-9
        else:
            assert math.isfinite(eps) and 0.0 <= eps <= 1.0
