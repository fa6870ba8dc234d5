import math
import warnings

import numpy as np
import pytest

from puritynet import lattice
from puritynet.lattice import (
    COUPLING_MAX,
    COUPLING_MIN,
    INTERNALS,
    ROWS,
    CapacityError,
    FockState,
    LatticeParams,
    build_fock_basis,
    build_hamiltonians,
    embed_two_copies,
    embed_two_copies_stack,
    hopping_bs_check,
    ideal_bs_mode_matrix,
    interaction_phase_check,
    mode_unitary_matrix,
    occupancy_p_diff_stack,
    occupancy_probabilities,
    propagator,
    sample_loss,
    standard_test_states,
)
from puritynet.qstate import DensityOperator

from conftest import (
    basis_state,
    maximally_mixed,
    mode_index,
    ref_hamiltonians,
    ref_interaction_phase,
    ref_mode_unitary_matrix,
    ref_occupancy_probabilities,
    ref_propagator,
    ref_purity,
    ref_random_state,
    ref_reduced,
    ref_test_states,
    superpose,
)


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
        # three columns: 12376 states; the dense hopping matrix alone would take 1.2 GB
        with pytest.raises(CapacityError, match="dimension 12376"):
            build_fock_basis(12, 6)

    @pytest.mark.parametrize(
        "occ",
        [(1, 1, 0), (1, 1, 0, 0, 0), (3, -1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (0.5, 1.5, 0, 0)],
        ids=["short", "long", "negative", "too-few", "too-many", "fractional"],
    )
    def test_occupation_outside_basis_rejected(self, occ):
        # positions() checks nothing, so the placement helpers of the tests do
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

    @pytest.mark.parametrize(
        "bad, message",
        [(1e200, r"not normalized: \|norm-1\| = inf"), (np.nan, "non-finite"), (np.inf, "non-finite")],
        ids=["overflowing-norm", "nan", "inf"],
    )
    def test_bad_amplitudes_raise_without_warning(self, bad, message):
        basis = build_fock_basis(4, 2)
        amplitudes = np.zeros(basis.dim, dtype=complex)
        amplitudes[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                FockState(basis, amplitudes)

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
        # any two bosons on one site-row, of either internal state, cost U
        basis = build_fock_basis(4, 2)
        params = LatticeParams(n_sites=1, U=1.3)
        _, h_int = build_hamiltonians(params, basis)
        occ_aa = [0] * 4
        occ_aa[mode_index(1, "I", "a")] = 2
        assert h_int[basis.positions(occ_aa)] == pytest.approx(1.3)
        occ_ab = [0] * 4
        occ_ab[mode_index(1, "I", "a")] = 1
        occ_ab[mode_index(1, "I", "b")] = 1
        assert h_int[basis.positions(occ_ab)] == pytest.approx(1.3)
        occ_split = [0] * 4
        occ_split[mode_index(1, "I", "a")] = 1
        occ_split[mode_index(1, "II", "a")] = 1
        assert h_int[basis.positions(occ_split)] == 0

    @pytest.mark.parametrize("n_sites,total", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4)])
    def test_matches_per_state_oracle(self, n_sites, total):
        # the second coupling set reuses the basis's cached plan
        for J, U in ((0.83, -0.44), (1.9, 0.6)):
            basis = build_fock_basis(4 * n_sites, total)
            params = LatticeParams(n_sites=n_sites, J=J, U=U)
            h_bs, h_int = build_hamiltonians(params, basis)
            want_bs, want_int = ref_hamiltonians(params, basis)
            # H_int is the diagonal of the oracle's dense matrix, zeros off it included
            for got, want in ((h_bs, want_bs), (np.diag(h_int), want_int)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    # integer couplings, 10**100 among them, are valid LatticeParams too
    @pytest.mark.parametrize("J,U", [(0.83, -0.44), (1, 2), (1, 10**100)], ids=["float", "int", "int-1e100"])
    @pytest.mark.parametrize("n_sites,total", [(1, 2), (2, 4)])
    def test_real_hopping_matrix_and_interaction_diagonal(self, n_sites, total, J, U):
        basis = build_fock_basis(4 * n_sites, total)
        h_bs, h_int = build_hamiltonians(LatticeParams(n_sites=n_sites, J=J, U=U), basis)
        assert h_bs.dtype == np.float64 and h_bs.shape == (basis.dim, basis.dim)
        assert h_int.dtype == np.float64 and h_int.shape == (basis.dim,)
        # a hop never maps a configuration to itself, so the two parts share no entry
        assert np.count_nonzero(np.diag(h_bs)) == 0

    def test_hermitian(self):
        basis = build_fock_basis(8, 2)
        h_bs, h_int = build_hamiltonians(LatticeParams(n_sites=2, J=1.1, U=0.3), basis)
        assert np.max(np.abs(h_bs - h_bs.conj().T)) < 1e-12
        dense_int = np.diag(h_int)
        assert np.max(np.abs(dense_int - dense_int.conj().T)) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LatticeParams(n_sites=0)
        with pytest.raises(ValueError):
            LatticeParams(n_sites=1, J=0.0)
        assert LatticeParams(n_sites=1, J=2.0).t_bs * 2.0 == pytest.approx(math.pi / 4)

    # The a-a, b-b and a-b strengths of H_int are the one field U: each case
    # checks U and that the per-species keyword it replaced is refused.
    @pytest.mark.parametrize("name", ["J", "U_a", "U_b", "U_ab"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_must_be_finite(self, name, bad):
        field = "J" if name == "J" else "U"
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LatticeParams(n_sites=1, **{field: bad})
        if name != field:
            with pytest.raises(TypeError, match=f"'{name}'"):
                LatticeParams(n_sites=1, **{name: bad})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: LatticeParams(n_sites=1, J=1e-320).t_bs,
            lambda: hopping_bs_check(1e-307, [1e100], *standard_test_states()),
        ],
        ids=["t_bs-inf", "propagator-phase-overflow"],
    )
    def test_overflowing_coupling_rejected_without_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^J must lie in"):
                call()

    @pytest.mark.parametrize("name", ["U_a", "U_b", "U_ab"])
    @pytest.mark.parametrize("bad", [1.1e100, -1e101])
    def test_interaction_outside_coupling_range(self, name, bad):
        with pytest.raises(ValueError, match="^U must lie in"):
            LatticeParams(n_sites=1, U=bad)
        with pytest.raises(TypeError, match=f"'{name}'"):
            LatticeParams(n_sites=1, **{name: bad})

    @pytest.mark.parametrize("J", [COUPLING_MIN, COUPLING_MAX])
    @pytest.mark.parametrize("U", [-COUPLING_MAX, COUPLING_MAX])
    def test_coupling_range_edges_run_without_warning(self, J, U):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fidelities, propagators = hopping_bs_check(J, [U], *standard_test_states())
        assert np.isfinite(fidelities).all() and np.isfinite(propagators).all()


class TestPropagator:
    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_lattice_hamiltonians_match_dense_oracle(self, n_sites):
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        params = LatticeParams(n_sites=n_sites, J=1.3, U=0.45)
        h_bs, h_int = build_hamiltonians(params, basis)
        for h in (h_bs, h_bs + np.diag(h_int)):
            for t in (params.t_bs, 2.9):
                np.testing.assert_allclose(propagator(h, t), ref_propagator(h, t), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_real_hamiltonian_matches_complex_dense_oracle_and_is_unitary(self, n_sites):
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        params = LatticeParams(n_sites=n_sites, J=0.9, U=-0.7)
        h_bs, h_int = build_hamiltonians(params, basis)
        h = h_bs + np.diag(h_int)
        assert h.dtype == np.float64
        u = propagator(h, params.t_bs)
        # the oracle decomposes the whole matrix at once, through the complex eigh
        np.testing.assert_allclose(u, ref_propagator(h.astype(complex), params.t_bs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(basis.dim), rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_block_plan_built_once_per_pattern(self, n_sites):
        # diagonal entries join no blocks, so h_bs and h_bs + diag(h_int)
        # share one plan at every J and U
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        lattice._block_plan.cache_clear()
        for J in (0.5, 1.3, 2.0):
            for U in (0.0, 0.3, -1.2):
                params = LatticeParams(n_sites=n_sites, J=J, U=U)
                h_bs, h_int = build_hamiltonians(params, basis)
                propagator(h_bs, params.t_bs)
                propagator(h_bs + np.diag(h_int), params.t_bs)
        assert lattice._block_plan.cache_info().misses == 1

    def test_results_match_oracle_after_eviction(self):
        # more patterns of one size than the cache keeps, visited twice in
        # turn: every call rebuilds its evicted plan
        rng = np.random.default_rng(23)
        matrices = []
        for _ in range(lattice._BLOCK_PLANS_KEPT + 3):
            h = np.zeros((12, 12))
            for lo, hi in ((0, 3), (3, 7), (7, 12)):
                a = rng.standard_normal((hi - lo, hi - lo))
                h[lo:hi, lo:hi] = a + a.T
            perm = rng.permutation(12)
            matrices.append(h[np.ix_(perm, perm)])
        lattice._block_plan.cache_clear()
        for _ in range(2):
            for h in matrices:
                np.testing.assert_allclose(propagator(h, 0.8), ref_propagator(h, 0.8), rtol=0, atol=1e-12)
        info = lattice._block_plan.cache_info()
        assert info.misses == 2 * len(matrices)
        assert info.currsize == lattice._BLOCK_PLANS_KEPT

    def test_eigh_sees_only_distinct_blocks(self, monkeypatch):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((3, 3))
        real = a + a.T
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cplx = b + b.conj().T
        odd = real.copy()  # one ulp away from ``real`` in one symmetric pair
        odd[0, 1] = odd[1, 0] = np.nextafter(real[0, 1], np.inf)
        pair = np.array([[0.3, 1.1], [1.1, -0.2]])
        blocks = [real, cplx, real, pair, odd, cplx, real, pair]
        # the blocks interleave, each keeping its states in order, so the
        # copies of one block are byte-identical
        owner = rng.permutation(np.repeat(np.arange(len(blocks)), [len(x) for x in blocks]))
        where = [np.flatnonzero(owner == k) for k in range(len(blocks))]
        h = np.zeros((len(owner), len(owner)), dtype=complex)
        for states, x in zip(where, blocks):
            h[np.ix_(states, states)] = x

        decomposed = []
        eigh = np.linalg.eigh

        def counted(matrices):
            decomposed.append(len(matrices) if matrices.ndim == 3 else 1)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        u = propagator(h, 0.6)
        assert sum(decomposed) == 4  # real, cplx, odd and pair
        monkeypatch.undo()
        np.testing.assert_allclose(u, ref_propagator(h, 0.6), rtol=0, atol=1e-12)
        # copies of one block get the very same entries
        sub = [u[np.ix_(states, states)] for states in where]
        for i, j in ((0, 2), (0, 6), (1, 5), (3, 7)):
            assert sub[i].tobytes() == sub[j].tobytes()

    def test_plan_arrays_are_read_only(self):
        basis = build_fock_basis(8, 4)
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=2), basis)
        propagator(h_bs, 0.3)
        hits = lattice._block_plan.cache_info().hits
        # the plan ``propagator`` used, keyed on the packed off-diagonal pattern
        pattern = h_bs != 0
        np.fill_diagonal(pattern, False)
        plan = lattice._block_plan(basis.dim, np.packbits(pattern).tobytes())
        assert lattice._block_plan.cache_info().hits == hits + 1
        assert plan.sizes == ((5, 4), (8, 12), (9, 6), (12, 12), (16, 1))
        # every entry of every block once, and each block's entries in its own rows and columns
        assert plan.flat.shape == (sum(size * size * count for size, count in plan.sizes),)
        assert len(np.unique(plan.flat)) == len(plan.flat)
        rows, cols = np.divmod(plan.flat, basis.dim)
        assert np.count_nonzero(h_bs[rows, cols]) == np.count_nonzero(h_bs)
        assert not plan.flat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            plan.flat[0] = 1

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_stack_members_equal_their_own_calls(self, n_sites):
        # members sharing one off-diagonal pattern: h_bs plus any diagonal,
        # and diagonals alone
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        couplings = [LatticeParams(n_sites=n_sites, J=1.3, U=U) for U in (0.0, 0.45, -2.0, 0.0)]
        h_bs = build_hamiltonians(couplings[0], basis)[0]
        diagonals = [np.diag(build_hamiltonians(p, basis)[1]) for p in couplings]
        for stack in (np.stack([h_bs + d for d in diagonals]), np.stack(diagonals)):
            got = propagator(stack, 0.7)
            assert got.shape == stack.shape and got.dtype == np.complex128
            for member, h in zip(got, stack):
                assert member.tobytes() == propagator(h, 0.7).tobytes()

    def test_one_member_stack_is_the_matrix_call(self):
        basis = build_fock_basis(8, 4)
        params = LatticeParams(n_sites=2, J=0.8, U=0.3)
        h_bs, h_int = build_hamiltonians(params, basis)
        h = h_bs + np.diag(h_int)
        got = propagator(h[None], params.t_bs)
        assert got.shape == (1, basis.dim, basis.dim)
        assert got[0].tobytes() == propagator(h, params.t_bs).tobytes()

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_mixed_pattern_stack_matches_dense_oracle(self, n_sites):
        # diag(h_int) has no off-diagonal entry, so the stack's blocks are
        # those of h_bs, and the diagonal member is decomposed in them
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        params = LatticeParams(n_sites=n_sites, J=1.1, U=0.6)
        h_bs, h_int = build_hamiltonians(params, basis)
        stack = np.stack([np.diag(h_int), h_bs, h_bs + np.diag(h_int)])
        got = propagator(stack, params.t_bs)
        for member, h in zip(got, stack):
            np.testing.assert_allclose(member, ref_propagator(h, params.t_bs), rtol=0, atol=1e-12)


class TestEvolve:
    def test_time_zero_is_identity(self):
        basis, states = standard_test_states()
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), basis)
        np.testing.assert_allclose(propagator(h_bs, 0.0) @ states[2], states[2], atol=1e-12)

    def test_group_property(self):
        basis, states = standard_test_states(seed=3)
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), basis)
        half = propagator(h_bs, 0.4)
        once = propagator(h_bs, 0.8) @ states[7]
        np.testing.assert_allclose(once, half @ (half @ states[7]), atol=1e-10)

    def test_single_boson_half_half(self):
        basis = build_fock_basis(4, 1)
        params = LatticeParams(n_sites=1, J=1.3)
        h_bs, _ = build_hamiltonians(params, basis)
        occ = tuple(1 if i == mode_index(1, "I", "a") else 0 for i in range(4))
        out = FockState(basis, propagator(h_bs, params.t_bs) @ basis_state(basis, occ).amplitudes)
        top = abs(out.amplitudes[basis.positions(occ)]) ** 2
        occ_bot = tuple(1 if i == mode_index(1, "II", "a") else 0 for i in range(4))
        bot = abs(out.amplitudes[basis.positions(occ_bot)]) ** 2
        assert top == pytest.approx(0.5, abs=1e-12)
        assert bot == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved(self):
        basis, states = standard_test_states(seed=1)
        h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1), basis)
        out = propagator(h_bs, 2.31) @ states[9]
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_site_totals_conserved(self):
        # vertical hopping never changes how many bosons live in a column
        basis = build_fock_basis(8, 4)
        params = LatticeParams(n_sites=2)
        h_bs, _ = build_hamiltonians(params, basis)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 2
        occ[mode_index(2, "I", "b")] = 1
        occ[mode_index(2, "II", "a")] = 1
        out = FockState(basis, propagator(h_bs, 0.37) @ basis_state(basis, tuple(occ)).amplitudes)
        for k, amp in enumerate(out.amplitudes):
            if abs(amp) < 1e-12:
                continue
            s = basis.occupations[k]
            col1 = sum(s[mode_index(1, r, i)] for r in ["I", "II"] for i in ["a", "b"])
            assert col1 == 2


class TestIdealBSMap:
    def test_hom_bunching_amplitudes(self):
        basis, states = standard_test_states()
        out = mode_unitary_matrix(ideal_bs_mode_matrix(1), basis) @ states[0]
        both_top = [0] * 4
        both_top[mode_index(1, "I", "a")] = 2
        both_bot = [0] * 4
        both_bot[mode_index(1, "II", "a")] = 2
        a_top = out[basis.positions(both_top)]
        a_bot = out[basis.positions(both_bot)]
        assert a_top == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert a_bot == pytest.approx(1j / math.sqrt(2), abs=1e-12)

    def test_singlet_invariant(self):
        basis, states = standard_test_states()
        out = FockState(basis, mode_unitary_matrix(ideal_bs_mode_matrix(1), basis) @ states[2])
        assert abs(np.vdot(states[2], out.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

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


class TestStandardTestStates:
    def test_structured_states_placed_once(self, monkeypatch):
        calls = {"build_fock_basis": 0, "positions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lattice, "build_fock_basis", counted("build_fock_basis", build_fock_basis))
        monkeypatch.setattr(lattice.FockBasis, "positions", counted("positions", lattice.FockBasis.positions))
        # an earlier test may have placed them already
        first_basis, first = standard_test_states(seed=0)
        rows = lattice._structured_test_states()
        built = dict(calls)
        second_basis, second = standard_test_states(seed=5)
        assert lattice._structured_test_states() is rows
        assert calls == built
        # the register basis of the two-copy embedding, shared with it
        assert first_basis is second_basis is embed_two_copies(ref_random_state(1, 1, 0))[0]
        assert first[:6].tobytes() == second[:6].tobytes() == rows.tobytes()
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0

    def test_structured_states_match_fresh_placement(self):
        # placed by basis_state and superpose on a freshly built basis
        basis = build_fock_basis(4, 2)
        got_basis, got = standard_test_states()
        assert got_basis == basis and np.array_equal(got_basis.occupations, basis.occupations)
        assert got.shape == (10, basis.dim) and got.dtype == complex
        for row, expected in zip(got[:6], ref_test_states(basis, 0)[:6]):
            assert row.tobytes() == expected.amplitudes.tobytes()

    def test_random_rows_follow_the_seed(self):
        one, again, other = (standard_test_states(seed)[1] for seed in (4, 4, 9))
        assert one[6:].tobytes() == again[6:].tobytes()
        for k in range(6, 10):
            assert not np.allclose(one[k], other[k])

    @pytest.mark.parametrize("seed", [0, 1, 12, 2**40])
    def test_random_rows_match_a_per_row_draw(self, seed):
        # one draw for all four rows keeps the stream of drawing row by row
        basis, states = standard_test_states(seed)
        want = [state.amplitudes for state in ref_test_states(basis, seed)[6:]]
        np.testing.assert_allclose(states[6:], want, rtol=0, atol=1e-15)


class TestHoppingBSCheck:
    def test_ideal_fidelities(self):
        fidelities, propagators = hopping_bs_check(1.0, [0.0], *standard_test_states())
        assert fidelities.shape == (1, 10) and fidelities.dtype == np.float64
        assert propagators.shape == (1, 10, 10) and propagators.dtype == np.complex128
        assert fidelities.min() >= 1 - 1e-10

    def test_two_site_fidelities(self):
        basis = build_fock_basis(8, 4)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 1
        occ[mode_index(1, "II", "b")] = 1
        occ[mode_index(2, "I", "b")] = 1
        occ[mode_index(2, "II", "b")] = 1
        states = basis_state(basis, tuple(occ)).amplitudes[None]
        assert hopping_bs_check(1.0, [0.0], basis, states)[0].min() >= 1 - 1e-10

    def test_hom_probabilities_after_evolution(self):
        params = LatticeParams(n_sites=1)
        basis, states = standard_test_states()
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        bunched = FockState(basis, u @ states[0])
        assert occupancy_probabilities([(1.0, bunched)], 1).p_diff_mode == pytest.approx(0.0, abs=1e-10)
        anti = FockState(basis, u @ states[2])
        assert occupancy_probabilities([(1.0, anti)], 1).p_diff_mode == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_fidelities_match_a_per_state_loop(self, n_sites):
        # the cached splitter and the stacked product against a fresh
        # mode_unitary_matrix and one vdot per state
        if n_sites == 1:
            basis, states = standard_test_states(seed=5)
        else:
            basis = build_fock_basis(8, 4)
            rng = np.random.default_rng(8)
            amps = rng.standard_normal((3, basis.dim)) + 1j * rng.standard_normal((3, basis.dim))
            states = amps / np.linalg.norm(amps, axis=1, keepdims=True)
        us = (0.0, 0.4, -1.1)
        fidelities, propagators = hopping_bs_check(0.9, us, basis, states)
        assert fidelities.shape == (len(us), len(states))
        u_ideal = mode_unitary_matrix(ideal_bs_mode_matrix(n_sites), basis)
        for got, got_prop, U in zip(fidelities, propagators, us):
            params = LatticeParams(n_sites=n_sites, J=0.9, U=U)
            h_bs, h_int = build_hamiltonians(params, basis)
            u_prop = propagator(h_bs + np.diag(h_int), params.t_bs)
            # the members share h_bs's off-diagonal pattern, so each is its own call
            assert got_prop.tobytes() == u_prop.tobytes()
            want = [abs(np.vdot(u_ideal @ s, u_prop @ s)) ** 2 for s in states]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda ok: ok[:0], r"stack of amplitude rows, got shape \(0, 10\)"),
            (lambda ok: ok[0], r"got shape \(10,\)"),
            (lambda ok: ok[:, :9], r"\(k >= 1, 10\) stack .* got shape \(3, 9\)"),
            (lambda ok: ok * [[1], [2], [1]], "not normalized"),
            (lambda ok: ok + [[0], [np.nan], [0]], "non-finite"),
        ],
        ids=["empty", "one-dimensional", "wrong-dim", "norm-2", "nan"],
    )
    def test_bad_stack_rejected_without_warning(self, bad, message):
        basis, states = standard_test_states()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                hopping_bs_check(1.0, [0.0], basis, bad(states[6:9]))

    @pytest.mark.parametrize(
        "J, us, message",
        [(1.0, [], "at least one coupling"), (0.0, [0.0], "^J must lie in"), (1.0, [0.0, 2e100], "^U must lie in")],
        ids=["no-coupling", "J-out-of-range", "U-out-of-range"],
    )
    def test_bad_couplings_rejected(self, J, us, message):
        with pytest.raises(ValueError, match=message):
            hopping_bs_check(J, us, *standard_test_states())

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_zero_coupling_member_is_the_hopping_propagator(self, n_sites):
        # lattice-validate evolves the HOM and end-to-end states by this member
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        params = LatticeParams(n_sites=n_sites, J=1.7)
        _, propagators = hopping_bs_check(params.J, [0.3, 0.0, 1.7], basis, np.eye(basis.dim, dtype=complex)[:1])
        h_bs, _ = build_hamiltonians(params, basis)
        assert propagators[1].tobytes() == propagator(h_bs, params.t_bs).tobytes()

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_splitter_and_hamiltonian_plan_built_once_per_basis(self, monkeypatch, n_sites):
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        states = np.eye(basis.dim, dtype=complex)[[0, basis.dim // 2]]
        calls = {"mode_unitary_matrix": 0, "positions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lattice, "mode_unitary_matrix", counted("mode_unitary_matrix", mode_unitary_matrix))
        monkeypatch.setattr(lattice.FockBasis, "positions", counted("positions", lattice.FockBasis.positions))
        # an earlier test may have built both for this basis already
        hopping_bs_check(1.0, [0.0], basis, states)
        assert calls["mode_unitary_matrix"] <= 1 and calls["positions"] <= 1
        built = dict(calls)
        hopping_bs_check(1.3, (0.0, 0.5, -1.0), basis, states)
        for U in (0.0, 0.5, -1.0):
            build_hamiltonians(LatticeParams(n_sites=n_sites, J=1.3, U=U), build_fock_basis(4 * n_sites, 2 * n_sites))
        interaction_phase_check([0.7], basis)
        assert calls == built

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_cached_arrays_are_read_only(self, n_sites):
        basis = build_fock_basis(4 * n_sites, 2 * n_sites)
        build_hamiltonians(LatticeParams(n_sites=n_sites), basis)
        hopping_bs_check(1.0, [0.0], basis, np.eye(basis.dim, dtype=complex)[:1])
        cached = [*lattice._basis_plan(basis), lattice._ideal_splitter(basis)]
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_interaction_degrades_fidelity(self):
        basis, states = standard_test_states()
        minima = hopping_bs_check(1.0, [0.0, 0.01, 0.1, 1.0], basis, states)[0].min(axis=1)
        assert all(a >= b - 1e-12 for a, b in zip(minima, minima[1:]))
        assert minima[-1] < minima[0] - 1e-3


class TestInteractionPhase:
    @pytest.mark.parametrize("theta", [0.1, math.pi / 2, math.pi])
    def test_double_occupancy_phase(self, theta):
        basis = build_fock_basis(4, 2)
        [report] = interaction_phase_check([theta], basis)
        assert report["theta"] == theta
        assert report["passed"]
        assert report["checked_configs"] == basis.dim

    def test_beyond_double_occupancy_skipped(self):
        basis = build_fock_basis(4, 3)
        [report] = interaction_phase_check([0.9], basis)
        assert report["checked_configs"] < basis.dim
        assert report["passed"]

    def test_entry_holds_plain_values_in_report_order(self):
        # the JSON writer rejects numpy scalars, so the entry is written as it is
        reports = interaction_phase_check((0.1, 2), build_fock_basis(4, 2))
        assert isinstance(reports, list) and len(reports) == 2
        for report in reports:
            assert list(report) == ["theta", "max_deviation", "checked_configs", "passed"]
            assert [type(v) for v in report.values()] == [float, float, int, bool]

    def test_a_wrong_interaction_diagonal_fails(self, monkeypatch):
        # the check evolves the H_int of build_hamiltonians, so an error there shows
        build = lattice.build_hamiltonians

        def shifted(params, basis):
            h_bs, h_int = build(params, basis)
            return h_bs, h_int + 1e-6 * np.arange(basis.dim)

        basis = build_fock_basis(4, 2)
        monkeypatch.setattr(lattice, "build_hamiltonians", shifted)
        reports = interaction_phase_check((0.1, math.pi / 2, math.pi), basis)
        assert len(reports) == 3
        for report in reports:
            assert report["checked_configs"] == basis.dim
            assert report["passed"] is False

    @pytest.mark.parametrize("n_modes", [4, 8])
    @pytest.mark.parametrize("theta", [0.1, math.pi / 2, math.pi, -2.3])
    def test_matches_the_per_configuration_oracle(self, n_modes, theta):
        # three bosons: configurations with a site-row beyond 2 are skipped
        basis = build_fock_basis(n_modes, 3)
        [report] = interaction_phase_check([theta], basis)
        want = ref_interaction_phase(theta, basis)
        assert 0 < want["checked_configs"] < basis.dim
        assert report["max_deviation"] == pytest.approx(want["max_deviation"], rel=0, abs=1e-12)
        assert {**report, "max_deviation": None} == {**want, "max_deviation": None}

    def test_largest_finite_theta_runs(self):
        # |U| <= COUPLING_MAX keeps every phase finite, at 1 and at 2 columns
        for n_modes, bosons in ((4, 2), (8, 4)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports = interaction_phase_check((COUPLING_MAX, -COUPLING_MAX), build_fock_basis(n_modes, bosons))
            assert [report["theta"] for report in reports] == [COUPLING_MAX, -COUPLING_MAX]
            assert all(report["passed"] for report in reports)


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
        _, ensemble = embed_two_copies(maximally_mixed(1))
        assert len(ensemble) == 4
        for weight, _ in ensemble:
            assert weight == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_end_to_end_single_site(self, seed):
        rho = ref_random_state(1, 2, seed)
        basis, ensemble = embed_two_copies(rho)
        params = LatticeParams(n_sites=1)
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        evolved = [(w, FockState(basis, u @ s.amplitudes)) for w, s in ensemble]
        out = occupancy_probabilities(evolved, 1)
        p = ref_purity(rho.matrix)
        assert out.p_diff_mode == pytest.approx((1 - p) / 2, abs=1e-9)
        assert out.p_same_mode == pytest.approx((1 + p) / 2, abs=1e-9)

    # the ranks the lattice_two_column benchmark feeds the 2-column pipeline
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_end_to_end_two_sites(self, seed, rank):
        rho = ref_random_state(2, rank, seed)
        basis, ensemble = embed_two_copies(rho)
        params = LatticeParams(n_sites=2)
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        evolved = [(w, FockState(basis, u @ s.amplitudes)) for w, s in ensemble]
        for site in [1, 2]:
            expected = (1 - ref_purity(ref_reduced(rho, [site]).matrix)) / 2
            got = occupancy_probabilities(evolved, site)
            assert got.p_diff_mode == pytest.approx(expected, abs=1e-9)

    def test_three_sites_beyond_the_fock_cap(self):
        # a refused layout is not cached: the second call is refused too
        for _ in range(2):
            with pytest.raises(CapacityError):
                embed_two_copies(ref_random_state(3, 1, 0))

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_layout_built_once_per_qubit_count(self, monkeypatch, n_qubits):
        calls = {"build_fock_basis": 0, "positions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lattice, "build_fock_basis", counted("build_fock_basis", build_fock_basis))
        monkeypatch.setattr(lattice.FockBasis, "positions", counted("positions", lattice.FockBasis.positions))
        # an earlier test may have built this layout already
        first_basis, first = embed_two_copies(ref_random_state(n_qubits, 2, 0))
        assert calls["build_fock_basis"] == calls["positions"] <= 1
        built = dict(calls)
        second_basis, second = embed_two_copies(ref_random_state(n_qubits, 2, 1))
        assert calls == built
        assert second_basis is first_basis
        assert all(state.basis is first_basis for _, state in first + second)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_members_match_a_fresh_basis(self, n_qubits):
        # every member, through the shared layout, against amplitudes placed
        # by basis_state on a freshly built basis
        rho = ref_random_state(n_qubits, 2, 7)
        basis, ensemble = embed_two_copies(rho)
        fresh = build_fock_basis(4 * n_qubits, 2 * n_qubits)
        assert basis == fresh and np.array_equal(basis.occupations, fresh.occupations)
        eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
        vectors = eigenvectors[:, eigenvalues > 1e-12]
        assert len(ensemble) == vectors.shape[1] ** 2
        for (weight, state), (i, j) in zip(ensemble, np.ndindex(vectors.shape[1], vectors.shape[1])):
            want = np.zeros(fresh.dim, dtype=complex)
            for x in range(2**n_qubits):
                for y in range(2**n_qubits):
                    occ = [0] * (4 * n_qubits)
                    for site in range(1, n_qubits + 1):
                        bx = (x >> (n_qubits - site)) & 1
                        by = (y >> (n_qubits - site)) & 1
                        occ[mode_index(site, "I", INTERNALS[bx])] += 1
                        occ[mode_index(site, "II", INTERNALS[by])] += 1
                    want += vectors[x, i] * vectors[y, j] * basis_state(fresh, tuple(occ)).amplitudes
            assert weight == pytest.approx(eigenvalues[eigenvalues > 1e-12][[i, j]].prod(), rel=0, abs=1e-15)
            assert np.abs(state.amplitudes - want).max() <= 1e-12

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_stack_matches_one_state_at_a_time(self, n_qubits):
        rhos = [ref_random_state(n_qubits, rank, 30 + rank) for rank in range(1, 2**n_qubits + 1)] * 2
        basis, owner, weights, amplitudes = embed_two_copies_stack(np.stack([rho.matrix for rho in rhos]))
        for k, rho in enumerate(rhos):
            one_basis, ensemble = embed_two_copies(rho)
            assert one_basis is basis
            mine = owner == k
            assert mine.sum() == len(ensemble)
            np.testing.assert_allclose(weights[mine], [w for w, _ in ensemble], rtol=0, atol=1e-15)
            np.testing.assert_allclose(amplitudes[mine], [s.amplitudes for _, s in ensemble], rtol=0, atol=1e-15)
        # members run in stack order
        assert (np.diff(owner) >= 0).all()
        # the readout of every state at once matches the per-ensemble one
        params = LatticeParams(n_sites=n_qubits, J=0.7)
        h_bs, _ = build_hamiltonians(params, basis)
        u = propagator(h_bs, params.t_bs)
        evolved = amplitudes @ u.T
        for site in range(1, n_qubits + 1):
            got = occupancy_p_diff_stack(basis, owner, weights, evolved, site)
            assert got.shape == (len(rhos),)
            for k in range(len(rhos)):
                mine = owner == k
                ensemble = [(w, FockState(basis, a)) for w, a in zip(weights[mine], evolved[mine])]
                want = occupancy_probabilities(ensemble, site).p_diff_mode
                assert got[k] == pytest.approx(want, rel=0, abs=1e-15)

    def test_wrong_particle_count_rejected(self):
        basis = build_fock_basis(8, 4)
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 3
        occ[mode_index(2, "I", "a")] = 1
        state = basis_state(basis, tuple(occ))
        with pytest.raises(ValueError, match="exactly two"):
            occupancy_probabilities([(1.0, state)], 1)


class TestOccupancyProbabilities:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_matches_per_member_oracle(self, n_sites, rank):
        rng = np.random.default_rng(40 + 4 * n_sites + rank)
        if n_sites == 1:
            # rank random two-boson states with unnormalized weights
            basis = build_fock_basis(4, 2)
            ensemble = []
            for _ in range(rank):
                amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
                ensemble.append((float(rng.uniform(0.1, 3.0)), FockState(basis, amps / np.linalg.norm(amps))))
        else:
            basis, members = embed_two_copies(ref_random_state(2, rank, int(rng.integers(1000))))
            params = LatticeParams(n_sites=2, J=0.8, U=0.3)
            h_bs, h_int = build_hamiltonians(params, basis)
            u = propagator(h_bs + np.diag(h_int), params.t_bs)
            ensemble = [(w, FockState(basis, u @ s.amplitudes)) for w, s in members]
            assert len(ensemble) == rank**2
        for site in range(1, n_sites + 1):
            got = occupancy_probabilities(ensemble, site)
            want_same, want_diff = ref_occupancy_probabilities(ensemble, site)
            assert got.p_diff_mode == pytest.approx(want_diff, rel=0, abs=1e-12)
            assert got.p_same_mode == pytest.approx(want_same, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_column_tables_built_once_per_basis_and_read_only(self, monkeypatch, n_sites):
        # the column tables are part of the basis's one plan, whose hop
        # indices take the plan's only positions() call
        calls = []
        positions = lattice.FockBasis.positions

        def counted(basis, occupations):
            calls.append(basis)
            return positions(basis, occupations)

        basis, ensemble = embed_two_copies(ref_random_state(n_sites, 2, 3))
        monkeypatch.setattr(lattice.FockBasis, "positions", counted)
        # an earlier test may have built the plan of this basis already
        occupancy_probabilities(ensemble, 1)
        assert len(calls) <= 1
        built = len(calls)
        for site in range(1, n_sites + 1):
            occupancy_probabilities(ensemble, site)
            occupancy_probabilities(embed_two_copies(ref_random_state(n_sites, 1, site))[1], site)
        build_hamiltonians(LatticeParams(n_sites=n_sites, U=0.2), basis)
        interaction_phase_check([0.3], basis)
        assert len(calls) == built
        plan = lattice._basis_plan(basis)
        assert lattice._basis_plan(basis) is plan
        column, split = plan.column, plan.split
        assert column.shape == split.shape == (n_sites, basis.dim)
        rows = basis.occupations.reshape(basis.dim, n_sites, 2, 2).sum(axis=3)
        np.testing.assert_array_equal(column, rows.sum(axis=2).T)
        np.testing.assert_array_equal(split, rows[:, :, 0].T == 1)
        for table in (column, split):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="non-empty ensemble"):
            occupancy_probabilities([], 1)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_site_outside_the_columns_rejected(self, n_sites):
        # site - 1 indexes the column axis, so 0 and -1 would wrap around
        _, ensemble = embed_two_copies(ref_random_state(n_sites, 1, 0))
        for site in (0, -1, n_sites + 1):
            with pytest.raises(ValueError, match=f"site {site} outside 1..{n_sites}"):
                occupancy_probabilities(ensemble, site)

    @pytest.mark.parametrize(
        "weights",
        [(0.0,), (0.0, 0.0), (1.0, -1.0), (0.5, -0.25), (math.nan, 1.0), (math.inf, 1.0), (1e308, 1e308)],
        ids=["zero", "zeros", "cancelling", "negative", "nan", "inf", "overflowing-total"],
    )
    def test_bad_weights_rejected(self, weights):
        basis, states = standard_test_states()
        state = FockState(basis, states[2])
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            occupancy_probabilities([(w, state) for w in weights], 1)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_stack_rejects_the_ensemble_with_bad_weights(self, bad):
        # the second of three ensembles carries the bad weight; its total is named
        basis, states = standard_test_states()
        owner = np.array([0, 1, 1, 2])
        weights = np.array([1.0, 0.25, bad, 1.0])
        amplitudes = states[[2, 2, 2, 2]]
        with pytest.raises(ValueError, match=f"weights must be finite and non-negative .* got total {0.25 + bad!r}"):
            occupancy_p_diff_stack(basis, owner, weights, amplitudes, 1)

    def test_members_on_different_bases_rejected(self):
        basis, states = standard_test_states()
        one_column = FockState(basis, states[0])
        occ = [0] * 8
        occ[mode_index(1, "I", "a")] = 1
        occ[mode_index(1, "II", "a")] = 1
        occ[mode_index(2, "I", "b")] = 1
        occ[mode_index(2, "II", "b")] = 1
        two_columns = basis_state(build_fock_basis(8, 4), tuple(occ))
        with pytest.raises(ValueError, match="one Fock basis"):
            occupancy_probabilities([(0.5, one_column), (0.5, two_columns)], 1)


class TestSampleLoss:
    def test_survival_one(self):
        assert (sample_loss(300, 1.0, runs=4, seed=5) == 0).all()

    def test_survival_zero(self):
        assert (sample_loss(12, 0.0, runs=4, seed=5) == 12).all()

    def test_deterministic(self):
        a = sample_loss(300, 0.95, runs=50, seed=77)
        b = sample_loss(300, 0.95, runs=50, seed=77)
        assert a.shape == (50, 2)
        assert (a == b).all()

    def test_binomial_statistics(self):
        # mean of each copy's loss count within 3 sigma of N * (1 - survival)
        n_samples = 10_000
        losses = sample_loss(300, 0.95, runs=n_samples, seed=0)
        sigma_mean = math.sqrt(300 * 0.05 * 0.95 / n_samples)
        assert np.abs(losses.mean(axis=0) - 15.0).max() <= 3 * sigma_mean

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_loss(10, 1.5, runs=1, seed=0)
