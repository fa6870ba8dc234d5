"""Shared independent oracles for the test suite.

These deliberately avoid the library's reshape/transform code paths:
the reference partial trace walks matrix elements with explicit bit
arithmetic, the reference purity multiplies matrices out, and the
two-copy oracles build rho x rho and its projectors as dense Kronecker
products.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from puritynet.qstate import CapacityError, DensityOperator, PureState, check_qubit_capacity
from puritynet.states import cat_state


def ref_partial_trace(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Elementwise partial trace.  keep: 1-based site labels, site 1 = MSB."""
    keep = sorted(keep)
    traced = [s for s in range(1, n + 1) if s not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)

    def full_index(keep_bits, traced_bits):
        idx = 0
        kb, tb = dict(zip(keep, keep_bits)), dict(zip(traced, traced_bits))
        for site in range(1, n + 1):
            idx = (idx << 1) | (kb[site] if site in kb else tb[site])
        return idx

    for a in range(2**k):
        a_bits = [(a >> (k - 1 - i)) & 1 for i in range(k)]
        for b in range(2**k):
            b_bits = [(b >> (k - 1 - i)) & 1 for i in range(k)]
            acc = 0.0 + 0.0j
            for t in range(2 ** len(traced)):
                t_bits = [(t >> (len(traced) - 1 - i)) & 1 for i in range(len(traced))]
                acc += mat[full_index(a_bits, t_bits), full_index(b_bits, t_bits)]
            out[a, b] = acc
    return out


def ref_purity(mat: np.ndarray) -> float:
    """tr(m @ m) by explicit matrix multiplication."""
    return float(np.trace(mat @ mat).real)


def ref_subset_purity(mat: np.ndarray, n: int, subset) -> float:
    return ref_purity(ref_partial_trace(mat, n, subset))


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


def ref_occupations(n_modes: int, total: int) -> list[tuple[int, ...]]:
    """Occupation tuples of ``total`` bosons over ``n_modes`` modes.

    ``itertools.product`` runs over the first ``n_modes - 1`` modes in
    lexicographic order and the last mode takes the bosons left, so the
    list is the lexicographic enumeration of the basis.
    """
    heads = itertools.product(range(total + 1), repeat=n_modes - 1)
    return [head + (total - sum(head),) for head in heads if sum(head) <= total]


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
                na, nb = occ[4 * site + 2 * row], occ[4 * site + 2 * row + 1]
                energy += params.U_a / 2 * na * (na - 1) + params.U_b / 2 * nb * (nb - 1) + params.U_ab * na * nb
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
