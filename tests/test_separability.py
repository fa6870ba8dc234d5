import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet import separability
from puritynet.bs_network import sign_probabilities_from_purities
from puritynet.cli import parse_state_spec
from puritynet.qstate import (
    CapacityError,
    DensityOperator,
    PureState,
    random_states,
)
from puritynet.separability import (
    VIOLATION_THRESHOLD,
    SubsetPurityMap,
    all_subset_purities,
    chain_links,
    chsh_max,
    chsh_threshold_phi,
    correlation_matrix,
    fig2a_violations,
    left_to_right_chain,
    maximal_chains,
)
from puritynet.states import cluster_family_state, ghz, linear_cluster

from conftest import random_pure_state, ref_random_state, ref_subset_purity, tensor


#: Every maximal chain of three sites, as one gather.
MAXIMAL_CHAINS_3 = chain_links(maximal_chains(3), 3)


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
            for rho in (ref_random_state(n, 3, seed), random_pure_state(n, seed).to_density()):
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a non-finite purity would reach a chain's violations as +-inf or NaN
        with pytest.raises(ValueError, match="non-finite"):
            SubsetPurityMap(2, [1.0, bad, 0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            SubsetPurityMap(2, {(1,): 0.5, (2,): bad, (1, 2): 0.5})

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_subset_reached_once(self, n, monkeypatch):
        # one traced operator per subset below the roots, counted over every
        # stack trace_site reduces: the subsets under half size for a pure
        # state, none for a mixed one, whose table is its Pauli form
        calls = []
        trace = separability.trace_site
        monkeypatch.setattr(separability, "trace_site", lambda mats, j: calls.append(len(mats)) or trace(mats, j))
        psi, rho = random_pure_state(n, n), ref_random_state(n, 2, n)
        dense = psi.to_density()
        cases = [
            (psi, dense.matrix, sum(math.comb(n, j) for j in range(1, n // 2))),
            (dense, dense.matrix, 0),
            (rho, rho.matrix, 0),
        ]
        tables = []
        for state, mat, count in cases:
            calls.clear()
            pm = all_subset_purities(state)
            assert sum(calls) == count
            tables.append(pm.values)
            for subset in pm.subsets() if n <= 5 else ():
                assert pm.purity(subset) == pytest.approx(ref_subset_purity(mat, n, subset), abs=1e-12)
        np.testing.assert_allclose(tables[0], tables[1], rtol=0, atol=1e-12)

    def test_mapping_and_array_forms_agree(self):
        # site 1 is the most significant bit of the subset mask
        pm = SubsetPurityMap(2, {(1,): 0.25, (2,): 0.5, (1, 2): 0.75})
        np.testing.assert_array_equal(pm.values, [1.0, 0.5, 0.25, 0.75])
        assert SubsetPurityMap(2, pm.values).entries == pm.entries

    def test_raw_product_table_is_the_outer_product(self):
        # two rank-2 N = 5 matrices parsed from raw specs; site 1 is the most
        # significant bit, so the N = 10 mask of (mask_a, mask_b) is mask_a << 5 | mask_b
        factors = []
        for seed in (5, 6):
            rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in ref_random_state(5, 2, seed).matrix)
            factors.append(parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")[0])
        want = np.outer(*(all_subset_purities(f).values for f in factors)).ravel()
        np.testing.assert_allclose(all_subset_purities(tensor(factors)).values, want, rtol=0, atol=1e-12)

    def test_raw_product_table_at_eleven_sites_is_the_outer_product(self):
        # rank-2 N = 5 and N = 6 matrices parsed from raw specs; the N = 11 mask is mask_a << 6 | mask_b
        factors = []
        for n, seed in ((5, 7), (6, 8)):
            rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in random_states(n, [2], [seed])[0])
            factors.append(parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")[0])
        want = np.outer(*(all_subset_purities(f).values for f in factors)).ravel()
        np.testing.assert_allclose(all_subset_purities(tensor(factors)).values, want, rtol=0, atol=1e-12)


class TestMixedSubsetPurities:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_oracle(self, n):
        # complex off-diagonal entries at ranks 1, 2 and 2^N: every subset up
        # to N = 7, 200 of the 255 drawn without replacement at N = 8
        masks = np.arange(1, 2**n)
        if len(masks) > 200:
            masks = np.random.default_rng(n).choice(masks, 200, replace=False)
        for rank in sorted({1, 2, 2**n}):
            rho = DensityOperator(n, random_states(n, [rank], [10 * n + rank])[0])
            assert np.abs(rho.matrix[np.triu_indices(2**n, 1)].imag).min() > 0
            values = all_subset_purities(rho).values
            assert values[0] == 1.0
            for mask in masks.tolist():
                subset = [s for s in range(1, n + 1) if mask >> (n - s) & 1]
                assert values[mask] == pytest.approx(ref_subset_purity(rho.matrix, n, subset), abs=1e-12)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_rank_one_matches_the_pure_table(self, n):
        psi = random_pure_state(n, 300 + n)
        mixed = all_subset_purities(psi.to_density()).values
        assert mixed[0] == 1.0
        np.testing.assert_allclose(mixed, all_subset_purities(psi).values, rtol=0, atol=1e-12)


def family_states(n):
    """One pure state of every spec family at n sites, parsed from its spec."""
    bodies = {
        "product": "kind = product\nqubits = " + "; ".join(f"{0.3 * k},{1.1 * k}" for k in range(n)),
        "raw-amplitudes": "kind = raw\namplitudes = "
        + " ".join(str(complex(a)) for a in random_pure_state(n, n).amplitudes),
    }
    if n >= 2:
        bodies["ghz"] = f"kind = ghz\nn = {n}"
        bodies["cluster_family"] = f"kind = cluster_family\nn = {n}\nphi = 1.0"
        bodies["cat"] = f"kind = cat\nn = {n}\nphi1 = 0.4,0.2\nphi2 = 2.1,1.3"
    return {kind: parse_state_spec(f"statespec v1\n{body}\n")[0] for kind, body in bodies.items()}


class TestPureSubsetPurities:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_reference_oracle(self, n):
        states = [random_pure_state(n, seed) for seed in range(4)] + list(family_states(n).values())
        for psi in states:
            assert isinstance(psi, PureState)
            pm = all_subset_purities(psi)
            mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
            for subset in pm.subsets():
                assert pm.purity(subset) == pytest.approx(ref_subset_purity(mat, n, subset), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_depth_first_table(self, n):
        states = {f"random-{seed}": random_pure_state(n, seed) for seed in range(2)} | family_states(n)
        for name, psi in states.items():
            pure = all_subset_purities(psi).values
            dense = all_subset_purities(psi.to_density()).values
            np.testing.assert_allclose(pure, dense, rtol=0, atol=1e-12, err_msg=name)

    def test_complements_share_one_purity(self):
        pm = all_subset_purities(random_pure_state(6, 3))
        full = 2**6 - 1
        assert pm.values[full] == 1.0
        np.testing.assert_array_equal(pm.values, pm.values[full ^ np.arange(full + 1)])

    def test_capacity_checked(self):
        with pytest.raises(CapacityError):
            all_subset_purities(random_pure_state(3, 0), cap=2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cold_and_warm_root_plans_agree_bit_for_bit(self, n):
        states = [random_pure_state(n, 11)] + list(family_states(n).values())
        for psi in states:
            separability._pure_roots.cache_clear()
            cold = all_subset_purities(psi).values
            warm = all_subset_purities(psi).values
            assert separability._pure_roots.cache_info().hits == 1
            assert list(map(float.hex, cold.tolist())) == list(map(float.hex, warm.tolist()))

    @pytest.mark.parametrize("n", [13, 14])
    def test_table_at_the_cap_stays_within_a_fixed_memory_bound(self, n):
        # the traced peak of one table, its root plan built cold: about 2.5 MiB with
        # stacks of at most _ROOT_STACK_BYTES (1.0 to 1.5 MiB one root at a time),
        # where one stack of all 1716 roots would take over 500 MB
        psi = random_pure_state(n, n)
        separability._pure_roots.cache_clear()
        tracemalloc.start()
        try:
            all_subset_purities(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_root_plan_is_immutable(self):
        stacks = separability._pure_roots(6)
        assert sum(len(perms) for perms, _, _ in stacks) == 10  # C(6, 3) / 2: at even N only the roots holding site 1
        with pytest.raises(TypeError):
            stacks[0] = stacks[-1]
        for perms, comps, reach in stacks:
            assert isinstance(perms, tuple) and isinstance(reach, tuple)
            with pytest.raises(ValueError):
                comps[0] = 0

    @pytest.mark.parametrize("n_a, n_b", [(6, 7), (7, 7)])
    def test_product_table_at_the_cap_is_the_outer_product(self, n_a, n_b):
        # the N = n_a + n_b mask of (mask_a, mask_b) is mask_a << n_b | mask_b
        a, b = random_pure_state(n_a, n_a), random_pure_state(n_b, 100 + n_b)
        product = PureState(n_a + n_b, np.kron(a.amplitudes, b.amplitudes))
        want = np.outer(all_subset_purities(a).values, all_subset_purities(b).values).ravel()
        np.testing.assert_allclose(all_subset_purities(product).values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [13, 14])
    def test_site_permutation_at_the_cap_permutes_the_masks(self, n):
        # new site k + 1 is old site perm[k] + 1: new bit n - 1 - k is old bit n - 1 - perm[k]
        perm = np.random.default_rng(n).permutation(n)
        psi = random_pure_state(n, n)
        moved = PureState(n, psi.amplitudes.reshape((2,) * n).transpose(perm).ravel())
        masks = np.arange(2**n)
        old = sum(((masks >> (n - 1 - k)) & 1) << (n - 1 - perm[k]) for k in range(n))
        want = all_subset_purities(psi).values[old]
        np.testing.assert_allclose(all_subset_purities(moved).values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [13, 14])
    def test_local_unitaries_at_the_cap_leave_the_table_unchanged(self, n):
        rng = np.random.default_rng(200 + n)
        psi = random_pure_state(n, n)
        amps = psi.amplitudes.reshape((2,) * n)
        for site in range(n):
            # a Haar 2x2 unitary: the Q of a complex Gaussian matrix
            u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            amps = np.moveaxis(np.tensordot(u, amps, axes=(1, site)), 0, site)
        moved = PureState(n, amps.ravel())
        np.testing.assert_allclose(
            all_subset_purities(moved).values, all_subset_purities(psi).values, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n_a, n_b", [(6, 7), (7, 7)])
    def test_product_sign_table_at_the_cap_is_the_outer_product(self, n_a, n_b):
        # a product state's two-copy sign outcomes are independent across the factors
        a, b = random_pure_state(n_a, 300 + n_a), random_pure_state(n_b, 400 + n_b)
        product = PureState(n_a + n_b, np.kron(a.amplitudes, b.amplitudes))
        tables = [sign_probabilities_from_purities(all_subset_purities(s)).values for s in (a, b, product)]
        np.testing.assert_allclose(tables[2], np.outer(tables[0], tables[1]).ravel(), rtol=0, atol=1e-12)

    def test_table_at_twelve_sites_matches_an_extended_precision_gram_purity(self):
        # tr(rho_A^2) = ||G||_F^2 for the Gram matrix G of the amplitudes split
        # into A and the rest, the smaller side kept, all in np.clongdouble
        n = 12
        psi = random_pure_state(n, 12)
        values = all_subset_purities(psi).values
        amps = psi.amplitudes.astype(np.clongdouble).reshape((2,) * n)
        for mask in np.random.default_rng(12).choice(np.arange(1, 2**n), size=200, replace=False).tolist():
            kept = [k for k in range(n) if mask >> (n - 1 - k) & 1]
            split = amps.transpose(kept + [k for k in range(n) if k not in kept]).reshape(2 ** len(kept), -1)
            gram = split @ split.conj().T if 2 * len(kept) <= n else split.conj().T @ split
            want = (gram.real**2 + gram.imag**2).sum()
            assert abs(values[mask] - want) <= 1e-12, mask


class TestCheckChain:
    """The one route from a purity table to a verdict: ``chain_links``'
    nesting rule, then one gather of every link's violation."""

    def test_ghz_chain(self):
        pm = all_subset_purities(ghz(3).to_density())
        violations = chain_links([[(1, 2, 3), (1, 2), (1,)]], 3).violations(pm)
        assert violations[0] == pytest.approx(0.5, abs=1e-12)
        assert violations[1] == pytest.approx(0.0, abs=1e-12)
        assert (violations > VIOLATION_THRESHOLD).tolist() == [True, False]

    def test_product_state_no_flag(self):
        pm = all_subset_purities(all_zero(3))
        assert not (MAXIMAL_CHAINS_3.violations(pm) > VIOLATION_THRESHOLD).any()

    def test_cluster_family_pi_first_link(self):
        pm = all_subset_purities(cluster_family_state(3, math.pi).to_density())
        violations = chain_links([[(1, 2, 3), (1, 2)]], 3).violations(pm)
        assert violations[0] == pytest.approx(0.5, abs=1e-10)

    def test_links_hold_site_masks_and_any_iterable_is_a_chain(self):
        pm = all_subset_purities(ghz(3))
        # a generator, its subsets' labels in any order
        links = chain_links([((3, 2, 1)[:k] for k in (3, 2, 1))], 3)
        # site 1 is the top bit: {1,2,3} = 0b111, {2,3} = 0b011, {3} = 0b001
        assert links.chains == ((7, 3, 1),)
        assert list(zip(links.larger.tolist(), links.smaller.tolist())) == [(7, 3), (3, 1)]
        assert links.violations(pm)[0] == pm.values[7] - pm.values[3]

    def test_ragged_chains_flatten_into_one_gather(self):
        pm = all_subset_purities(random_pure_state(5, 2))
        chains = [[(1, 2, 3, 4, 5), (2, 3), (3,)], [(5, 4), (4,)], [tuple(range(1, k + 1)) for k in range(5, 0, -1)]]
        links = chain_links(chains, 5)
        assert links.offsets.tolist() == [0, 2, 3, 7]
        masks = [[sum(1 << (5 - site) for site in subset) for subset in chain] for chain in chains]
        assert links.chains == tuple(map(tuple, masks))
        pairs = [pair for chain in masks for pair in zip(chain, chain[1:])]
        assert list(zip(links.larger.tolist(), links.smaller.tolist())) == pairs
        assert links.violations(pm).tolist() == [float(pm.values[big] - pm.values[small]) for big, small in pairs]
        for array in (links.larger, links.smaller, links.offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_no_chains_give_no_links(self):
        links = chain_links([], 3)
        assert links.chains == () and links.offsets.tolist() == [0]
        assert links.violations(all_subset_purities(all_zero(3))).size == 0

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            chain_links([[(1, 2), (1, 3)]], 3)
        with pytest.raises(ValueError):
            chain_links([[(1, 2)]], 3)

    def test_bad_subsets_rejected(self):
        for bad in [(), (3,), (1, 1), (0,)]:
            with pytest.raises(ValueError, match="subset|site labels"):
                chain_links([[(1, 2), bad]], 2)
            with pytest.raises(ValueError, match="subset|site labels"):
                chain_links([[bad, (1,)]], 2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_separable_products_never_flagged(self, seed):
        # every product state satisfies the purity chain on every maximal chain
        factors = [ref_random_state(1, 1 + (seed + k) % 2, seed + 10 * k) for k in range(3)]
        pm = all_subset_purities(tensor(factors))
        assert not (MAXIMAL_CHAINS_3.violations(pm) > VIOLATION_THRESHOLD).any()

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_pure_first_link_is_one_minus_reduction(self, seed):
        rho = random_pure_state(3, seed).to_density()
        pm = all_subset_purities(rho)
        violations = chain_links([left_to_right_chain(3)], 3).violations(pm)
        assert violations[0] == pytest.approx(1.0 - pm.purity((1, 2)), abs=1e-10)


def fig2a_oracle_row(family: str, phi: float) -> tuple[float, float, float]:
    """(V1, V2, V3) from explicit density matrices of amplitudes built here."""
    pairs = np.array([bin(x & (x >> 1)).count("1") for x in range(8)])
    if family == "collision":
        amps = np.exp(1j * phi * pairs) / math.sqrt(8)
    else:
        amps = (1 - np.exp(1j * phi)) / 2 * (-1.0) ** pairs / math.sqrt(8)
        amps[0] += (1 + np.exp(1j * phi)) / 2
        amps /= np.linalg.norm(amps)
    mat = np.outer(amps, amps.conj())
    p123, p12, p1, p2 = (ref_subset_purity(mat, 3, s) for s in ((1, 2, 3), (1, 2), (1,), (2,)))
    return p123 - p12, p12 - p1, p12 - p2


class TestFig2aViolations:
    def test_phi_zero_all_zero(self):
        v1, v2, v3 = fig2a_violations(np.array([0.0]))
        assert (v1[0], v2[0], v3[0]) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_phi_pi_first_violation_half(self):
        v1, _, _ = fig2a_violations(np.array([math.pi]))
        assert v1[0] == pytest.approx(0.5, abs=1e-12)

    def test_v2_vanishes_on_grid(self):
        _, v2, _ = fig2a_violations(np.linspace(0, 2 * math.pi, 101))
        assert np.all(v2 <= 1e-12)

    def test_v3_positive_for_collision_family(self):
        _, _, v3 = fig2a_violations(np.linspace(0, 2 * math.pi, 101))
        assert max(v3) > 0.1

    def test_v3_vanishes_for_superposition_family(self):
        # the two-term formula cannot separate edge from middle reductions
        _, v2, v3 = fig2a_violations(np.linspace(0, 2 * math.pi, 21), family="superposition")
        assert np.all(np.abs(v3) <= 1e-12)
        assert np.all(np.abs(v2) <= 1e-12)

    @pytest.mark.parametrize("family", ["collision", "superposition"])
    def test_every_row_matches_density_matrix_oracle(self, family):
        grid = np.linspace(0, 2 * math.pi, 101)
        got = np.column_stack(fig2a_violations(grid, family=family))
        want = np.array([fig2a_oracle_row(family, float(phi)) for phi in grid])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("family", ["collision", "superposition"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, family, bad):
        with pytest.raises(ValueError, match="phi must be finite"):
            fig2a_violations(np.array([0.0, bad]), family=family)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            fig2a_violations(np.array([0.0]), family="ring")


@pytest.mark.parametrize(
    "call",
    [lambda family: fig2a_violations(np.array([0.0]), family=family), chsh_threshold_phi],
    ids=["fig2a_violations", "chsh_threshold_phi"],
)
def test_unknown_family_raises_the_one_table_error(call):
    # both name their family through states.PHASE_FAMILIES, so both say the same
    with pytest.raises(ValueError, match=r"^unknown family 'ring'; use 'collision' or 'superposition'$"):
        call("ring")


class TestChshMax:
    def test_product_state_classical_bound(self):
        assert chsh_max(all_zero(2)) == pytest.approx(2.0, abs=1e-12)

    def test_bell_state_tsirelson(self):
        bell = PureState(2, np.array([1, 0, 0, 1]) / math.sqrt(2)).to_density()
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

        rho = ref_random_state(2, 2, seed)
        u = np.kron(haar_u2(), haar_u2())
        rotated = DensityOperator(2, u @ rho.matrix @ u.conj().T)
        assert chsh_max(rotated) == pytest.approx(chsh_max(rho), abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_bounded_by_tsirelson(self, seed):
        rho = ref_random_state(2, 1 + seed % 4, seed)
        assert chsh_max(rho) <= 2 * math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_against_settings_search_oracle(self, seed):
        # coarse search over measurement directions can only approach the
        # closed form from below
        rho = ref_random_state(2, 2, seed)
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
        assert chsh_max(cluster_family_state(2, 0.05).to_density()) > 2.0
        assert chsh_threshold_phi("superposition") < 0.01

    def test_purity_detects_wherever_chsh_detects(self):
        for phi in np.linspace(0, 2 * math.pi, 101):
            rho = cluster_family_state(2, phi).to_density()
            pm = all_subset_purities(rho)
            chsh_detects = chsh_max(rho) > 2 + 1e-9
            purity_detects = (chain_links([[(1, 2), (1,)]], 2).violations(pm) > VIOLATION_THRESHOLD).any()
            if chsh_detects:
                assert purity_detects
