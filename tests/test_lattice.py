import math

import numpy as np
import pytest

from puritynet.lattice import (
    INTERNALS,
    ROWS,
    CapacityError,
    FockState,
    LatticeParams,
    basis_state,
    build_fock_basis,
    build_hamiltonians,
    embed_two_copies,
    evolve,
    hopping_bs_check,
    ideal_bs_mode_matrix,
    interaction_phase_check,
    mode_index,
    mode_unitary_matrix,
    occupancy_probabilities,
    propagator,
    sample_loss,
    standard_test_states,
    superpose,
)
from puritynet.bs_network import pair_projection_probabilities
from puritynet.qstate import DensityOperator, partial_trace, purity, random_state

from conftest import ref_hamiltonians, ref_mode_unitary_matrix, ref_propagator


class TestModeIndexing:
    def test_round_trip(self):
        flat = 0
        for site in [1, 2, 3]:
            for row in ["I", "II"]:
                for internal in ["a", "b"]:
                    assert mode_index(site, row, internal) == flat
                    column, rest = divmod(flat, 4)
                    assert (column + 1, ROWS[rest // 2], INTERNALS[rest % 2]) == (site, row, internal)
                    flat += 1


class TestFockBasis:
    @pytest.mark.parametrize(
        "modes,total,dim", [(2, 1, 2), (4, 2, 10), (8, 2, 36), (8, 4, 330)]
    )
    def test_dimensions(self, modes, total, dim):
        basis = build_fock_basis(modes, total)
        assert basis.dim == dim
        # enumeration is a bijection
        assert len(set(map(tuple, basis.occupations.tolist()))) == dim
        assert (basis.occupations.sum(axis=1) == total).all()

    def test_deterministic_order(self):
        a = build_fock_basis(4, 2)
        b = build_fock_basis(4, 2)
        np.testing.assert_array_equal(a.occupations, b.occupations)

    @pytest.mark.parametrize("modes,total", [(1, 3), (4, 0), (4, 2), (8, 4), (12, 3)])
    def test_occupations_array(self, modes, total):
        basis = build_fock_basis(modes, total)
        assert basis.occupations.shape == (basis.dim, modes)
        rows = list(map(tuple, basis.occupations.tolist()))
        assert rows == sorted(set(rows))
        assert (basis.occupations.sum(axis=1) == total).all()
        np.testing.assert_array_equal(basis.positions(basis.occupations), np.arange(basis.dim))
        with pytest.raises(ValueError):
            basis.occupations[0, 0] = 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_fock_basis(30, 15)
        with pytest.raises(CapacityError):
            build_fock_basis(4, 2, cap=5)

    @pytest.mark.parametrize(
        "occ",
        [(1, 1, 0), (1, 1, 0, 0, 0), (3, -1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (0.5, 1.5, 0, 0)],
        ids=["short", "long", "negative", "too-few", "too-many", "fractional"],
    )
    def test_occupation_outside_basis_rejected(self, occ):
        basis = build_fock_basis(4, 2)
        with pytest.raises(ValueError, match=r"occupation \("):
            basis_state(basis, occ)
        with pytest.raises(ValueError, match=r"occupation \("):
            superpose(basis, {(1, 1, 0, 0): 1, occ: 1})


class TestFockState:
    def test_non_finite_amplitudes_rejected(self):
        basis = build_fock_basis(4, 2)
        with pytest.raises(ValueError, match="non-finite"):
            FockState(basis, np.full(basis.dim, np.nan))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_superposition_without_finite_norm_rejected(self, bad):
        basis = build_fock_basis(4, 2)
        with pytest.raises(ValueError, match="superposition has norm"):
            superpose(basis, {(1, 1, 0, 0): bad})


class TestHamiltonians:
    def test_hopping_element(self):
        basis = build_fock_basis(4, 1)
        params = LatticeParams(n_sites=1, J=0.7)
        h_bs, h_int = build_hamiltonians(params, basis)
        src = basis.positions([1 if i == mode_index(1, "I", "a") else 0 for i in range(4)])
        dst = basis.positions([1 if i == mode_index(1, "II", "a") else 0 for i in range(4)])
        assert h_bs[dst, src] == pytest.approx(-0.7, abs=1e-15)
        assert np.count_nonzero(h_int) == 0

    def test_interaction_diagonal_entries(self):
        basis = build_fock_basis(4, 2)
        params = LatticeParams(n_sites=1, U_a=1.3, U_b=0.9, U_ab=0.4)
        _, h_int = build_hamiltonians(params, basis)
        occ_aa = [0] * 4
        occ_aa[mode_index(1, "I", "a")] = 2
        assert h_int[basis.positions(occ_aa), basis.positions(occ_aa)] == pytest.approx(1.3)
        occ_ab = [0] * 4
        occ_ab[mode_index(1, "I", "a")] = 1
        occ_ab[mode_index(1, "I", "b")] = 1
        assert h_int[basis.positions(occ_ab), basis.positions(occ_ab)] == pytest.approx(0.4)

    @pytest.mark.parametrize("n_sites,total", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4)])
    def test_matches_per_state_oracle(self, n_sites, total):
        basis = build_fock_basis(4 * n_sites, total)
        params = LatticeParams(n_sites=n_sites, J=0.83, U_a=0.37, U_b=1.21, U_ab=-0.44)
        for got, want in zip(build_hamiltonians(params, basis), ref_hamiltonians(params, basis)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_hermitian(self):
        basis = build_fock_basis(8, 2)
        h_bs, h_int = build_hamiltonians(LatticeParams(n_sites=2, J=1.1, U_a=0.3, U_b=0.3, U_ab=0.3), basis)
        assert np.max(np.abs(h_bs - h_bs.conj().T)) < 1e-12
        assert np.max(np.abs(h_int - h_int.conj().T)) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LatticeParams(n_sites=0)
        with pytest.raises(ValueError):
            LatticeParams(n_sites=1, J=0.0)
        with pytest.raises(ValueError):
            LatticeParams(n_sites=1, U_a=1.0, U_b=2.0).theta
        assert LatticeParams(n_sites=1, J=2.0).t_bs * 2.0 == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("name", ["J", "U_a", "U_b", "U_ab", "tau", "T_bs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LatticeParams(n_sites=1, **{name: bad})


class TestPropagator:
    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_lattice_hamiltonians_match_dense_oracle(self, n_sites):
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        params = LatticeParams(n_sites=n_sites, J=1.3, U_a=0.7, U_b=0.2, U_ab=0.45)
        h_bs, h_int = build_hamiltonians(params, basis)
        for h in (h_bs, h_bs + h_int):
            for t in (params.t_bs, 2.9):
                np.testing.assert_allclose(propagator(h, t), ref_propagator(h, t), rtol=0, atol=1e-12)

    def test_dense_random_hermitian_is_one_block(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        h = a + a.conj().T
        assert np.count_nonzero(h == 0) == 0
        np.testing.assert_allclose(propagator(h, 0.37), ref_propagator(h, 0.37), rtol=0, atol=1e-12)

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(22)
        sizes = [1, 3, 3, 5, 2, 7, 1, 4]
        h = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
        start = 0
        for size in sizes:
            a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            h[start : start + size, start : start + size] = a + a.conj().T
            start += size
        perm = rng.permutation(len(h))
        h = h[np.ix_(perm, perm)]
        u = propagator(h, 1.1)
        np.testing.assert_allclose(u, ref_propagator(h, 1.1), rtol=0, atol=1e-12)
        block = np.repeat(np.arange(len(sizes)), sizes)[perm]
        assert np.count_nonzero(u[block[:, None] != block[None, :]]) == 0


class TestEvolve:
    def test_time_zero_is_identity(self):
        state = standard_test_states()[2]
        basis = state.basis
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), basis)
        out = evolve(state, h_bs, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_group_property(self):
        state = standard_test_states(seed=3)[7]
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), state.basis)
        once = evolve(state, h_bs, 0.8)
        twice = evolve(evolve(state, h_bs, 0.4), h_bs, 0.4)
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-10)

    def test_single_boson_half_half(self):
        basis = build_fock_basis(4, 1)
        params = LatticeParams(n_sites=1, J=1.3)
        h_bs, _ = build_hamiltonians(params, basis)
        occ = tuple(1 if i == mode_index(1, "I", "a") else 0 for i in range(4))
        out = evolve(basis_state(basis, occ), h_bs, params.t_bs)
        top = abs(out.amplitudes[basis.positions(occ)]) ** 2
        occ_bot = tuple(1 if i == mode_index(1, "II", "a") else 0 for i in range(4))
        bot = abs(out.amplitudes[basis.positions(occ_bot)]) ** 2
        assert top == pytest.approx(0.5, abs=1e-12)
        assert bot == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved(self):
        state = standard_test_states(seed=1)[9]
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), state.basis)
        out = evolve(state, h_bs, 2.31)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_site_totals_conserved(self):
        # vertical hopping never changes how many bosons live in a column
        basis = build_fock_basis(8, 4)
        params = LatticeParams(n_sites=2)
        h_bs, _ = build_hamiltonians(params, basis)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 2
        occ[mode_index(2, "I", "b")] = 1
        occ[mode_index(2, "II", "a")] = 1
        out = evolve(basis_state(basis, tuple(occ)), h_bs, 0.37)
        for k, amp in enumerate(out.amplitudes):
            if abs(amp) < 1e-12:
                continue
            s = out.basis.occupations[k]
            col1 = sum(s[mode_index(1, r, i)] for r in ["I", "II"] for i in ["a", "b"])
            assert col1 == 2


class TestIdealBSMap:
    def test_hom_bunching_amplitudes(self):
        pair = standard_test_states()[0]
        basis = pair.basis
        out = mode_unitary_matrix(ideal_bs_mode_matrix(1), basis) @ pair.amplitudes
        both_top = [0] * 4
        both_top[mode_index(1, "I", "a")] = 2
        both_bot = [0] * 4
        both_bot[mode_index(1, "II", "a")] = 2
        a_top = out[basis.positions(both_top)]
        a_bot = out[basis.positions(both_bot)]
        assert a_top == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert a_bot == pytest.approx(1j / math.sqrt(2), abs=1e-12)

    def test_singlet_invariant(self):
        singlet = standard_test_states()[2]
        u = mode_unitary_matrix(ideal_bs_mode_matrix(1), singlet.basis)
        out = FockState(singlet.basis, u @ singlet.amplitudes)
        assert abs(singlet.overlap(out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites,total", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4)])
    def test_matches_dict_expansion_oracle_and_is_unitary(self, n_sites, total):
        basis = build_fock_basis(4 * n_sites, total)
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4 * n_sites,) * 2) + 1j * rng.standard_normal((4 * n_sites,) * 2)
        random_u, _ = np.linalg.qr(a)
        for u in (ideal_bs_mode_matrix(n_sites), random_u):
            got = mode_unitary_matrix(u, basis)
            np.testing.assert_allclose(got, ref_mode_unitary_matrix(u, total), rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.conj().T @ got, np.eye(basis.dim), rtol=0, atol=1e-12)


class TestHoppingBSCheck:
    def test_ideal_fidelities(self):
        report = hopping_bs_check(LatticeParams(n_sites=1), standard_test_states())
        assert len(report.fidelities) == 10
        assert report.min_fidelity >= 1 - 1e-10

    def test_two_site_fidelities(self):
        basis = build_fock_basis(8, 4)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 1
        occ[mode_index(1, "II", "b")] = 1
        occ[mode_index(2, "I", "b")] = 1
        occ[mode_index(2, "II", "b")] = 1
        states = [basis_state(basis, tuple(occ))]
        report = hopping_bs_check(LatticeParams(n_sites=2), states)
        assert report.min_fidelity >= 1 - 1e-10

    def test_hom_probabilities_after_evolution(self):
        params = LatticeParams(n_sites=1)
        states = standard_test_states()
        h_bs, _ = build_hamiltonians(params, states[0].basis)
        bunched = evolve(states[0], h_bs, params.t_bs)
        assert occupancy_probabilities([(1.0, bunched)], 1).p_diff_mode == pytest.approx(0.0, abs=1e-10)
        anti = evolve(states[2], h_bs, params.t_bs)
        assert occupancy_probabilities([(1.0, anti)], 1).p_diff_mode == pytest.approx(1.0, abs=1e-10)

    def test_interaction_degrades_fidelity(self):
        states = standard_test_states()
        baseline = hopping_bs_check(LatticeParams(n_sites=1), states).min_fidelity
        minima = [baseline]
        for ratio in [0.01, 0.1, 1.0]:
            params = LatticeParams(n_sites=1, U_a=ratio, U_b=ratio, U_ab=ratio)
            minima.append(hopping_bs_check(params, states).min_fidelity)
        assert all(a >= b - 1e-12 for a, b in zip(minima, minima[1:]))
        assert minima[-1] < baseline - 1e-3


class TestInteractionPhase:
    @pytest.mark.parametrize("theta", [0.1, math.pi / 2, math.pi])
    def test_double_occupancy_phase(self, theta):
        basis = build_fock_basis(4, 2)
        report = interaction_phase_check(U=theta / 0.7, tau=0.7, basis=basis)
        assert report.theta == pytest.approx(theta, abs=1e-12)
        assert report.passed
        assert report.checked_configs == basis.dim

    def test_beyond_double_occupancy_skipped(self):
        basis = build_fock_basis(4, 3)
        report = interaction_phase_check(U=0.9, tau=1.1, basis=basis)
        assert report.skipped_configs > 0
        assert report.passed


class TestEmbedTwoCopies:
    def test_pure_zero_state(self):
        rho = DensityOperator(1, np.diag([1.0, 0.0]).astype(complex))
        basis, ensemble = embed_two_copies(rho)
        assert len(ensemble) == 1
        weight, state = ensemble[0]
        assert weight == pytest.approx(1.0, abs=1e-12)
        occ = [0] * 4
        occ[mode_index(1, "I", "a")] = 1
        occ[mode_index(1, "II", "a")] = 1
        assert abs(state.amplitudes[basis.positions(occ)]) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_gives_four_members(self):
        _, ensemble = embed_two_copies(DensityOperator.maximally_mixed(1))
        assert len(ensemble) == 4
        for weight, _ in ensemble:
            assert weight == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_end_to_end_single_site(self, seed):
        rho = random_state(1, 2, seed)
        basis, ensemble = embed_two_copies(rho)
        params = LatticeParams(n_sites=1)
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        evolved = [(w, FockState(basis, u @ s.amplitudes)) for w, s in ensemble]
        out = occupancy_probabilities(evolved, 1)
        expected = pair_projection_probabilities(rho)
        assert out.p_diff_mode == pytest.approx(expected.p_minus, abs=1e-9)
        assert out.p_same_mode == pytest.approx(expected.p_plus, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_end_to_end_two_sites(self, seed):
        rho = random_state(2, 2, seed)
        basis, ensemble = embed_two_copies(rho)
        params = LatticeParams(n_sites=2)
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        evolved = [(w, FockState(basis, u @ s.amplitudes)) for w, s in ensemble]
        for site in [1, 2]:
            expected = pair_projection_probabilities(partial_trace(rho, [site]))
            got = occupancy_probabilities(evolved, site)
            assert got.p_diff_mode == pytest.approx(expected.p_minus, abs=1e-9)

    def test_wrong_particle_count_rejected(self):
        basis = build_fock_basis(8, 4)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 3
        occ[mode_index(2, "I", "a")] = 1
        state = basis_state(basis, tuple(occ))
        with pytest.raises(ValueError, match="exactly two"):
            occupancy_probabilities([(1.0, state)], 1)


class TestSampleLoss:
    def test_survival_one(self):
        out = sample_loss(300, 1.0, seed=5)
        assert (out.m, out.m_prime, out.n) == (0, 0, 0)

    def test_survival_zero(self):
        out = sample_loss(12, 0.0, seed=5)
        assert (out.m, out.m_prime, out.n) == (12, 12, 12)

    def test_deterministic(self):
        a = sample_loss(300, 0.95, seed=77)
        b = sample_loss(300, 0.95, seed=77)
        assert (a.m, a.m_prime) == (b.m, b.m_prime)

    def test_binomial_statistics(self):
        # mean of m over many seeds within 3 sigma of N * (1 - survival)
        n_samples = 10_000
        mean = np.mean([sample_loss(300, 0.95, seed=s).m for s in range(n_samples)])
        sigma_mean = math.sqrt(300 * 0.05 * 0.95 / n_samples)
        assert abs(mean - 15.0) <= 3 * sigma_mean

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_loss(10, 1.5, seed=0)
