"""Shared independent oracles for the test suite.

These deliberately avoid the library's reshape/transform code paths:
the reference partial trace walks matrix elements with explicit bit
arithmetic, the reference purity multiplies matrices out, and the
two-copy oracles build rho x rho and its projectors as dense Kronecker
products.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from puritynet.lattice import INTERNALS, ROWS, FockState, LatticeParams, build_fock_basis, embed_two_copies
from puritynet.qstate import CapacityError, DensityOperator, PureState, check_qubit_capacity
from puritynet.states import InversionError, cat_purity_closed_form, cat_state, estimate_epsilon


def ref_partial_trace(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Elementwise partial trace.  keep: 1-based site labels, site 1 = MSB.

    A full index is the OR of the bits its kept and its traced sites set,
    so the index part of every kept and every traced bit pattern is built
    once, bit by bit, and each output element sums single matrix entries.
    """
    keep = sorted(keep)
    traced = [s for s in range(1, n + 1) if s not in keep]

    def index_parts(sites):
        # pattern bit i (from the most significant) belongs to sites[i]
        parts = []
        for pattern in range(2 ** len(sites)):
            idx = 0
            for i, site in enumerate(sites):
                if (pattern >> (len(sites) - 1 - i)) & 1:
                    idx |= 1 << (n - site)
            parts.append(idx)
        return parts

    kept_parts, traced_parts = index_parts(keep), index_parts(traced)
    out = np.zeros((len(kept_parts), len(kept_parts)), dtype=complex)
    for a, row in enumerate(kept_parts):
        for b, col in enumerate(kept_parts):
            acc = 0.0 + 0.0j
            for t in traced_parts:
                acc += mat[row | t, col | t]
            out[a, b] = acc
    return out


def ref_reduced(rho: DensityOperator, keep) -> DensityOperator:
    """``rho`` reduced to the sites in ``keep`` by :func:`ref_partial_trace`."""
    return DensityOperator(len(keep), ref_partial_trace(rho.matrix, rho.n_qubits, keep))


def maximally_mixed(n_qubits: int) -> DensityOperator:
    """I / 2^n on ``n_qubits`` qubits."""
    dim = 2**n_qubits
    return DensityOperator(n_qubits, np.eye(dim, dtype=complex) / dim)


def ref_purity(mat: np.ndarray) -> float:
    """tr(m @ m) by explicit matrix multiplication."""
    return float(np.trace(mat @ mat).real)


def ref_random_state(n_qubits: int, rank: int, seed: int) -> DensityOperator:
    """``random_states(n_qubits, [rank], [seed])[0]`` built on its own: a
    (2^n, rank) block of complex normals from ``default_rng(seed)`` (real
    parts drawn first), divided by its norm, times its own adjoint,
    symmetrized and divided by its trace."""
    dim = 2**n_qubits
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    block /= np.linalg.norm(block)
    mat = block @ block.conj().T
    mat = (mat + mat.conj().T) / 2
    mat /= mat.trace().real
    return DensityOperator(n_qubits, mat)


def ref_subset_purity(mat: np.ndarray, n: int, subset) -> float:
    return ref_purity(ref_partial_trace(mat, n, subset))


def random_pure_state(n_qubits: int, seed: int) -> PureState:
    """Seeded Haar-random pure state vector."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return PureState(n_qubits, amps / np.linalg.norm(amps))


def sign_vectors(n_sites: int) -> list[tuple[int, ...]]:
    """All sign vectors in a fixed order: site N varies fastest, + before -."""
    return list(itertools.product((+1, -1), repeat=n_sites))


def sign_probability(table, signs) -> float:
    """The entry of a sign table for one sign vector, indexed by the mask of
    its "-" sites with site i at bit N - i."""
    n = table.n_sites
    if len(signs) != n or any(s not in (-1, +1) for s in signs):
        raise ValueError(f"bad sign vector {signs}")
    return float(table.values[sum(1 << (n - i) for i, s in enumerate(signs, start=1) if s == -1)])


def ref_walsh_hadamard(values) -> np.ndarray:
    """The Walsh-Hadamard butterfly over a (2,)*N view, one axis at a time
    through ``np.moveaxis``, most significant first: the same pairs in the
    same order as ``bs_network.site_map`` with the Hadamard matrix, so the
    two agree bit for bit."""
    out = np.array(values, dtype=float)
    t = out.reshape((2,) * (out.size.bit_length() - 1))
    for axis in range(t.ndim):
        pair = np.moveaxis(t, axis, 0)  # a view: writes land in ``out``
        pair[0], pair[1] = pair[0] + pair[1], pair[0] - pair[1]
    return out


def tensor(parts: list[DensityOperator], cap: int | None = None) -> DensityOperator:
    """Tensor product of density operators, in the given site order.

    The result acts on the concatenation of the parts' sites; its dimension
    is the product of the part dimensions.  Raises :class:`CapacityError`
    when the total qubit count exceeds the cap (default
    ``DEFAULT_QUBIT_CAP``).
    """
    if not parts:
        raise ValueError("tensor() needs at least one factor")
    n_total = sum(p.n_qubits for p in parts)
    check_qubit_capacity(n_total, cap)
    mat = parts[0].matrix
    for p in parts[1:]:
        mat = np.kron(mat, p.matrix)
    return DensityOperator(n_total, mat)


def cat_reduced_purity_brute_force(n: int, phi1: PureState, phi2: PureState, m: int) -> float:
    """Purity of the cat state reduced by m of its n subsystems.

    Builds the state, forms its density matrix and reduces it with
    :func:`ref_subset_purity`; the closed form's independent check, and
    the only route for complex overlaps.
    """
    psi, _ = cat_state(n, phi1, phi2)
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    if m == 0:
        return ref_purity(mat)
    if m == n:
        return 1.0
    return ref_subset_purity(mat, n, range(1, n - m + 1))


def _swap_operator(site: int, n_sites: int) -> np.ndarray:
    """Permutation matrix exchanging site ``site`` between the two copies.

    The two-copy basis index is x * 2^N + y with x, y the copy-one and
    copy-two computational indices.
    """
    dim = 4**n_sites
    bit = 1 << (n_sites - site)
    op = np.zeros((dim, dim))
    for x in range(2**n_sites):
        for y in range(2**n_sites):
            xs = (x & ~bit) | (y & bit)
            ys = (y & ~bit) | (x & bit)
            op[xs * 2**n_sites + ys, x * 2**n_sites + y] = 1.0
    return op


def projector_expectation_oracle(rho: DensityOperator, signs, cap: int = 4) -> float:
    """Explicit two-copy construction of one joint outcome probability.

    Builds rho x rho and the per-site swap operators V_i, forms
    prod_i (I + s_i V_i)/2 and returns its expectation.  Dense in
    dimension 4^N, so limited to small N.
    """
    n = rho.n_qubits
    signs = tuple(signs)
    if len(signs) != n:
        raise ValueError(f"sign vector length {len(signs)} does not match {n} sites")
    if n > cap:
        raise CapacityError(f"explicit two-copy oracle limited to {cap} sites, got {n}")
    two = np.kron(rho.matrix, rho.matrix)
    dim = 4**n
    proj = np.eye(dim)
    for site, s in enumerate(signs, start=1):
        proj = proj @ (np.eye(dim) + s * _swap_operator(site, n)) / 2
    return float(np.trace(proj @ two).real)


@dataclass(frozen=True)
class TripletSingletWeights:
    """Weights of the two-boson internal-state channels after the splitter.

    The triplet channels are labelled by the unordered internal-state pair
    (aa, ab+ba symmetric, bb) in the computational basis of the two copies,
    with a = |0> and b = |1>; w_singlet is the antisymmetric (ab-ba) weight
    and equals the pair's P_- outcome probability.
    """

    w_aa: float
    w_ab: float
    w_bb: float
    w_singlet: float

    def total(self) -> float:
        return self.w_aa + self.w_ab + self.w_bb + self.w_singlet


_TRIPLET_AB = np.array([0, 1, 1, 0]) / np.sqrt(2)
_SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)


def triplet_singlet_weights(rho_j: DensityOperator) -> TripletSingletWeights:
    """Expectations of the four channel projectors on rho_j x rho_j."""
    if rho_j.n_qubits != 1:
        raise ValueError("expected a single-qubit state")
    two = np.kron(rho_j.matrix, rho_j.matrix)
    return TripletSingletWeights(
        w_aa=float(two[0, 0].real),
        w_ab=float(np.vdot(_TRIPLET_AB, two @ _TRIPLET_AB).real),
        w_bb=float(two[3, 3].real),
        w_singlet=float(np.vdot(_SINGLET, two @ _SINGLET).real),
    )


def ref_chsh_max_pure(amplitudes) -> float:
    """Maximal CHSH value of a pure two-qubit state from its amplitudes.

    Horodecki criterion evaluated through the concurrence: for
    a|00> + b|01> + c|10> + d|11> the maximum over all settings is
    2 sqrt(1 + C^2) with C = 2|ad - bc| (normalized amplitudes), so
    every entangled pure state exceeds 2 (Gisin's theorem).
    """
    a, b, c, d = np.asarray(amplitudes, dtype=complex)
    norm2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    concurrence = 2 * abs(a * d - b * c) / norm2
    return 2 * math.sqrt(1 + concurrence**2)


def ref_epsilon_resolution(n_sites: int, n_lost: int, eps: float) -> float:
    """Float64 resolution of epsilon read back from the reduced cat purity.

    spacing(Pi) / |dPi/deps|, Pi the closed-form purity
    (1 + g^m + g^N + 4 g^{N/2} + g^{N-m}) / (2 (1 + g^{N/2})^2) at
    g = 1 - eps^2, m = n_lost, N = n_sites, differentiated analytically.
    No inversion of a float64 purity can recover epsilon more finely.
    """
    big, m, g = n_sites, n_lost, 1.0 - eps**2
    h = g ** (big / 2)
    num = 1 + g**m + g**big + 4 * h + g ** (big - m)
    den = 2 * (1 + h) ** 2
    dnum = m * g ** (m - 1) + big * g ** (big - 1) + 2 * big * g ** (big / 2 - 1) + (big - m) * g ** (big - m - 1)
    dden = 2 * big * (1 + h) * g ** (big / 2 - 1)
    dpi_dgamma = (dnum * den - num * dden) / den**2
    dpi_deps = dpi_dgamma * (-2 * eps)
    return float(np.spacing(num / den) / abs(dpi_deps))


def ref_estimate_epsilon(purity_measured: float, n_sites: int, n_lost: float) -> float:
    """epsilon from the reduced cat purity by plain bisection in gamma.

    Halves [0, 1] until it is 1e-10 wide, keeping the half where
    ``cat_purity_closed_form`` crosses the measured purity, and returns
    sqrt(1 - gamma) at the last midpoint.  It raises ``InversionError``
    where ``estimate_epsilon`` does, reading the band's ends from the
    closed form.
    """
    if not 0 < n_lost < n_sites:
        raise InversionError(f"reduction count n={n_lost} outside (0, {n_sites})")
    lo_val = cat_purity_closed_form(n_sites, n_lost, 0.0)
    hi_val = cat_purity_closed_form(n_sites, n_lost, 1.0)
    if not lo_val - 1e-9 <= purity_measured <= hi_val + 1e-9:
        raise InversionError(f"purity {purity_measured} outside the achievable band [{lo_val}, {hi_val}]")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if cat_purity_closed_form(n_sites, n_lost, mid) < purity_measured:
            lo = mid
        else:
            hi = mid
    return math.sqrt(max(0.0, 1.0 - (lo + hi) / 2))


def ref_cat_experiment(n: int, epsilon: float, survival: float, runs: int, seed: int) -> dict:
    """The ``cat-experiment`` report fields from a literal per-run loop.

    All runs' loss counts (m, m') are drawn from one ``default_rng(seed)``
    as a (runs, 2) binomial array.  Each run is then reduced by
    max(m, m'), and its closed-form purity is computed and inverted, with
    no sharing between runs.  The means and the mean-purity inversion
    follow.
    """
    gamma = 1.0 - epsilon**2
    losses = np.random.default_rng(seed).binomial(n, 1.0 - survival, size=(runs, 2))
    n_values, purities, estimates = [], [], []
    for m, m_prime in losses.tolist():
        lost = max(m, m_prime)
        n_values.append(lost)
        if 0 < lost < n:
            purity = cat_purity_closed_form(n, lost, gamma)
            purities.append(purity)
            estimates.append(estimate_epsilon(purity, n, lost))
    mean_n, mean_purity = float(np.mean(n_values)), float(np.mean(purities))
    estimated = float(np.mean(estimates))
    try:
        from_mean = estimate_epsilon(mean_purity, n, mean_n)
    except InversionError:
        from_mean = None
    return {
        "informative_runs": len(estimates),
        "uninformative_runs": runs - len(estimates),
        "mean_n": mean_n,
        "mean_purity": mean_purity,
        "epsilon_estimated": estimated,
        "abs_error": abs(estimated - epsilon),
        "epsilon_from_mean_purity": from_mean,
        "abs_error_from_mean_purity": None if from_mean is None else abs(from_mean - epsilon),
    }


def ref_loss_count_distribution(n: int, survival: float) -> list[float]:
    """Exact P(n = k), k = 0..N, of a cat-experiment run's loss count.

    The two copies lose m and m' atoms, independent Bin(N, 1 - s) draws,
    and the run is reduced by n = max(m, m'), so P(n <= k) = F(k)^2 with
    F the Bin(N, 1 - s) CDF, summed term by term with ``math.comb``.
    """
    q = 1.0 - survival
    cdf = list(itertools.accumulate(math.comb(n, k) * q**k * survival ** (n - k) for k in range(n + 1)))
    cdf_n = [c * c for c in cdf]
    return [cdf_n[0]] + [hi - lo for lo, hi in zip(cdf_n, cdf_n[1:])]


def ref_occupations(n_modes: int, total: int) -> list[tuple[int, ...]]:
    """Occupation tuples of ``total`` bosons over ``n_modes`` modes.

    ``itertools.product`` runs over the first ``n_modes - 1`` modes in
    lexicographic order and the last mode takes the bosons left, so the
    list is the lexicographic enumeration of the basis.
    """
    heads = itertools.product(range(total + 1), repeat=n_modes - 1)
    return [head + (total - sum(head),) for head in heads if sum(head) <= total]


def mode_index(site: int, row: str, internal: str) -> int:
    """Flat mode number; site-major, then row (I, II), then internal (a, b)."""
    return 4 * (site - 1) + 2 * ROWS.index(row) + INTERNALS.index(internal)


def _position(basis, occupation) -> int:
    """Basis index of one occupation vector, which must lie in the basis."""
    occ = np.asarray(occupation)
    if not (
        occ.shape == (basis.n_modes,)
        and np.issubdtype(occ.dtype, np.integer)
        and occ.min() >= 0
        and occ.sum() == basis.total_bosons
    ):
        raise ValueError(
            f"occupation {occupation!r} is not {basis.total_bosons} bosons over {basis.n_modes} modes"
        )
    return int(basis.positions(occ))


def basis_state(basis, occupation) -> FockState:
    """The basis vector of one occupation tuple."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[_position(basis, occupation)] = 1.0
    return FockState(basis, amps)


def superpose(basis, terms: dict) -> FockState:
    """Normalized superposition from {occupation tuple: amplitude}."""
    amps = np.zeros(basis.dim, dtype=complex)
    for occ, amp in terms.items():
        amps[_position(basis, occ)] = amp
    norm = np.linalg.norm(amps)
    if not 0 < norm < math.inf:
        raise ValueError(f"superposition has norm {norm}; it needs a finite, nonzero one")
    return FockState(basis, amps / norm)


def ref_test_states(basis, seed: int) -> list[FockState]:
    """The ten states of ``lattice.standard_test_states``, one at a time.

    ``basis`` holds 2 bosons in the modes aI, bI, aII, bII.  The six
    structured states are placed by :func:`basis_state` and
    :func:`superpose`; the four seeded ones are drawn row by row from one
    ``default_rng(seed)`` (per row, dim real normals, then dim imaginary
    ones), each divided by its own norm.
    """
    states = [
        basis_state(basis, (1, 0, 1, 0)),  # identical a-pair, one per row
        basis_state(basis, (0, 1, 0, 1)),  # identical b-pair
        superpose(basis, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}),  # singlet
        superpose(basis, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}),  # triplet ab
        basis_state(basis, (1, 1, 0, 0)),  # both bosons in row I
        basis_state(basis, (2, 0, 0, 0)),  # doubly occupied mode
    ]
    rng = np.random.default_rng(seed)
    for _ in range(4):
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        states.append(FockState(basis, amps / np.linalg.norm(amps)))
    return states


def ref_hamiltonians(params, basis) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H_hop, H_int) built one basis state at a time.

    Enumerates its own occupations with :func:`ref_occupations` and looks
    moved occupations up in a dict; mode m = 4 (site - 1) + 2 row +
    internal, with row I = 0, a = 0.
    """
    states = ref_occupations(basis.n_modes, basis.total_bosons)
    index = {occ: k for k, occ in enumerate(states)}
    dim = len(states)
    h_bs = np.zeros((dim, dim), dtype=complex)
    h_int = np.zeros((dim, dim), dtype=complex)
    for k, occ in enumerate(states):
        energy = 0.0
        for site in range(params.n_sites):
            for row in range(2):
                # one strength U for each species and for the a-b pair
                na, nb = occ[4 * site + 2 * row], occ[4 * site + 2 * row + 1]
                energy += params.U / 2 * na * (na - 1) + params.U / 2 * nb * (nb - 1) + params.U * na * nb
            for internal in range(2):
                top, bottom = 4 * site + internal, 4 * site + 2 + internal
                for src, dst in ((bottom, top), (top, bottom)):
                    if occ[src] == 0:
                        continue
                    moved = list(occ)
                    moved[src] -= 1
                    moved[dst] += 1
                    h_bs[index[tuple(moved)], k] += -params.J * math.sqrt(occ[src] * (occ[dst] + 1))
        h_int[k, k] = energy
    return h_bs, h_int


def ref_mode_unitary_matrix(u: np.ndarray, total: int) -> np.ndarray:
    """Second quantization of a single-particle unitary, one state at a time.

    Column k is the image of the k-th lexicographic occupation of
    ``total`` bosons in ``len(u)`` modes.  Creation operators transform as
    a_m^dag -> sum_n conj(u[m, n]) a_n^dag, so each occupation is rebuilt
    by applying the transformed creation operators to the vacuum, one
    boson at a time, in a dict of partial occupations.  No renormalization.
    """
    n_modes = len(u)
    states = ref_occupations(n_modes, total)
    index = {occ: k for k, occ in enumerate(states)}
    u_conj = u.conj()
    out = np.zeros((len(states), len(states)), dtype=complex)
    for k, occ in enumerate(states):
        terms = {(0,) * n_modes: 1 / math.sqrt(math.prod(math.factorial(n) for n in occ))}
        for mode, count in enumerate(occ):
            for _ in range(count):
                new_terms = {}
                for partial, a in terms.items():
                    for target in range(n_modes):
                        raised = list(partial)
                        raised[target] += 1
                        key = tuple(raised)
                        new_terms[key] = new_terms.get(key, 0.0) + a * u_conj[mode, target] * math.sqrt(raised[target])
                terms = new_terms
        for occ_out, a in terms.items():
            out[index[occ_out], k] += a
    return out


def ref_propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) from one dense eigendecomposition of the Hermitian H."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def ref_occupancy_probabilities(ensemble, site: int) -> tuple[float, float]:
    """(p_same_mode, p_diff_mode) of a column, one ensemble member at a time.

    For each (weight, FockState) member, reads its own basis's
    occupations, checks that every populated configuration holds two
    bosons at the column, and adds the weighted probability of one boson
    per row; the sum is divided by the total weight at the end.
    """
    p_diff = 0.0
    total_weight = 0.0
    for weight, state in ensemble:
        occ = state.basis.occupations.reshape(state.basis.dim, -1, 2, 2)
        rows = occ[:, site - 1].sum(axis=2)
        prob = np.abs(state.amplitudes) ** 2
        populated = prob >= 1e-18
        if (rows.sum(axis=1)[populated] != 2).any():
            raise ValueError(f"column {site} does not hold exactly two bosons")
        p_diff += weight * prob[populated & (rows[:, 0] == 1)].sum()
        total_weight += weight
    p_diff /= total_weight
    return 1.0 - p_diff, p_diff


def ref_end_to_end(n_states: int, J: float, seed: int) -> list[dict]:
    """The ``end_to_end`` entries of ``lattice-validate``, one state at a time.

    State k is :func:`ref_random_state` ``(1, 1 + k % 2, seed + 1000 + k)``,
    as the command draws it.  Each is embedded by ``embed_two_copies``, every
    member is evolved by the dense hopping propagator at t_bs
    (:func:`ref_hamiltonians`, :func:`ref_propagator`) and the ensemble is
    read out by :func:`ref_occupancy_probabilities`; the expected value is
    (1 - tr rho^2)/2 with the purity from :func:`ref_purity`.
    """
    params = LatticeParams(n_sites=1, J=J)
    h_bs, _ = ref_hamiltonians(params, build_fock_basis(4, 2))
    bs_prop = ref_propagator(h_bs, params.t_bs)
    entries = []
    for k in range(n_states):
        rho = ref_random_state(1, 1 + k % 2, seed + 1000 + k)
        basis, ensemble = embed_two_copies(rho)
        evolved = [(w, FockState(basis, bs_prop @ state.amplitudes)) for w, state in ensemble]
        _, p_diff = ref_occupancy_probabilities(evolved, 1)
        expected = (1 - ref_purity(rho.matrix)) / 2
        entries.append({"seed": seed + 1000 + k, "p_diff": p_diff, "expected": expected, "abs_error": abs(p_diff - expected)})
    return entries


def ref_lattice_checks(J: float, U: float, seed: int) -> dict:
    """The ``bs_check.fidelities``, ``hom`` and ``uj_sweep`` entries of
    ``lattice-validate``, one state at a time.

    The ten test states come from :func:`ref_test_states`.  Each fidelity
    is |<ideal|evolved>|^2, with the ideal map from
    :func:`ref_mode_unitary_matrix` of the 50/50 mode matrix written out
    here and the evolution from :func:`ref_propagator` of
    :func:`ref_hamiltonians`.  The HOM lines read the identical a-pair and
    the singlet, evolved by the hopping alone, through
    :func:`ref_occupancy_probabilities`.
    """
    basis = build_fock_basis(4, 2)
    states = ref_test_states(basis, seed)
    # a_I -> (a_I - i a_II)/sqrt(2), mode 2 row + internal, for both internal states
    splitter = np.kron(np.array([[1, -1j], [-1j, 1]]), np.eye(2)) / math.sqrt(2)
    ideal = ref_mode_unitary_matrix(splitter, 2)

    def fidelities(u: float) -> list[float]:
        params = LatticeParams(n_sites=1, J=J, U=u)
        h_bs, h_int = ref_hamiltonians(params, basis)
        evolve = ref_propagator(h_bs + h_int, params.t_bs)
        return [abs(np.vdot(ideal @ s.amplitudes, evolve @ s.amplitudes)) ** 2 for s in states]

    params = LatticeParams(n_sites=1, J=J, U=U)
    h_bs, _ = ref_hamiltonians(params, basis)
    bs_prop = ref_propagator(h_bs, params.t_bs)
    hom = {
        key: ref_occupancy_probabilities([(1.0, FockState(basis, bs_prop @ states[k].amplitudes))], 1)[1]
        for key, k in (("identical_pair_p_diff", 0), ("singlet_p_diff", 2))
    }
    return {
        "fidelities": fidelities(U),
        "hom": hom,
        "uj_sweep": [{"u_over_j": r, "min_fidelity": min(fidelities(r * J))} for r in (0.0, 0.01, 0.1, 1.0)],
    }


def ref_interaction_phase(theta: float, basis) -> dict:
    """The ``interaction_phase`` entry of ``lattice-validate``, one
    configuration at a time.

    Evolves the dense H_int of :func:`ref_hamiltonians` (U = theta) for
    unit time with :func:`ref_propagator`.  For each occupation of
    :func:`ref_occupations` whose site-rows hold at most 2 bosons each, the
    diagonal entry is compared with e^{-i theta d}, d the number of
    site-rows holding exactly 2; fuller configurations are skipped.
    """
    params = LatticeParams(n_sites=basis.n_modes // 4, U=theta)
    _, h_int = ref_hamiltonians(params, basis)
    evolve = ref_propagator(h_int, 1.0)
    max_dev, checked = 0.0, 0
    for k, occ in enumerate(ref_occupations(basis.n_modes, basis.total_bosons)):
        rows = [occ[m] + occ[m + 1] for m in range(0, basis.n_modes, 2)]
        if max(rows) > 2:
            continue
        max_dev = max(max_dev, float(abs(evolve[k, k] - cmath.exp(-1j * theta * rows.count(2)))))
        checked += 1
    return {"theta": theta, "max_deviation": max_dev, "checked_configs": checked, "passed": max_dev <= 1e-12}
