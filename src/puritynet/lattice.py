"""Second-quantized simulation of the two-row optical-lattice network.

The physical layout is N lattice-site columns, each holding a vertical
pair of sites (rows I and II); every boson carries one of two long-lived
internal states a, b.  Row I holds copy one of the qubit register, row II
copy two, with internal state a = |0> and b = |1>.

Lowering the barrier between the rows turns on vertical hopping

    H_hop = sum_j -J (aI_j^dag aII_j + bI_j^dag bII_j + h.c.),

which, run for exactly t = pi/(4J), implements a 50/50 beam splitter on
every column: annihilation operators map as a_I -> (a_I - i a_II)/sqrt(2)
(creation operators pick up the conjugate +i).  On-site interactions

    H_int = sum_{row,j} U_a/2 n_a(n_a-1) + U_b/2 n_b(n_b-1) + U_ab n_a n_b

are diagonal in the occupation basis; with U_a = U_b = U_ab = U a site-row
holding two bosons acquires the phase theta = U*tau during a hold of
length tau while singly occupied site-rows acquire none, which is what
makes double occupancy observable.

States live on the fixed-total-boson Fock basis, stored as one integer
array of occupation vectors; the Hamiltonians, the ideal splitter map,
the two-copy embedding and the occupancy statistics are array operations
over it.
Both H_hop and H_int conserve, per column, the number of a bosons and of
b bosons summed over the two rows, so a Hamiltonian on this basis is
block diagonal.  Evolution finds those blocks from the exact nonzero
pattern of H and eigendecomposes each block on its own (at 2 columns,
35 blocks of at most 16 states instead of one 330-dimensional matrix);
no entry outside a block exists, so nothing is approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .qstate import CapacityError, DensityOperator

#: Default bound on the Fock-basis dimension.
DEFAULT_FOCK_CAP = 200_000

ROWS = ("I", "II")
INTERNALS = ("a", "b")


def mode_index(site: int, row: str, internal: str) -> int:
    """Flat mode number; site-major, then row (I, II), then internal (a, b)."""
    return 4 * (site - 1) + 2 * ROWS.index(row) + INTERNALS.index(internal)


@dataclass(frozen=True)
class LatticeParams:
    """Couplings and timings of the two-row lattice.

    ``t_bs`` defaults to pi/(4 J), the hold time that realizes the 50/50
    splitter.  ``theta`` is defined when all three interaction strengths
    coincide.
    """

    n_sites: int
    J: float = 1.0
    U_a: float = 0.0
    U_b: float = 0.0
    U_ab: float = 0.0
    tau: float = 0.0
    T_bs: float | None = None

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site column")
        for name in ("J", "U_a", "U_b", "U_ab", "tau", "T_bs"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.J <= 0:
            raise ValueError("hopping energy J must be positive")

    @property
    def t_bs(self) -> float:
        return math.pi / (4 * self.J) if self.T_bs is None else self.T_bs

    @property
    def n_modes(self) -> int:
        return 4 * self.n_sites

    @property
    def theta(self) -> float:
        if not (self.U_a == self.U_b == self.U_ab):
            raise ValueError("theta = U*tau is defined only for equal interaction strengths")
        return self.U_a * self.tau


@dataclass(frozen=True)
class FockBasis:
    """Deterministic enumeration of occupation vectors with fixed total.

    ``occupations`` is the read-only ``(dim, n_modes)`` integer array of
    the vectors in lexicographic order; row k is basis state k.
    """

    n_modes: int
    total_bosons: int
    occupations: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def positions(self, occupations: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an integer occupation array.

        Each row must be a vector of this basis: any other row gets a
        wrong index or an IndexError, so outside input is checked first
        (see ``basis_state``).  Its lexicographic rank
        sums, over modes i, the basis states that agree with it before
        mode i and hold fewer bosons in mode i.  With r bosons left for
        mode i and the k modes after it, there are
        C(r + k, k) - C(r - o_i + k, k) of those (hockey-stick identity).
        """
        occ = np.asarray(occupations)
        k = np.arange(self.n_modes - 1, -1, -1)
        after = self.total_bosons - np.cumsum(occ, axis=-1)
        table = np.array(
            [[math.comb(r + kk, kk) for r in range(self.total_bosons + 1)] for kk in range(self.n_modes)]
        )
        return (table[k, after + occ] - table[k, after]).sum(axis=-1)


def build_fock_basis(n_modes: int, total_bosons: int, cap: int | None = None) -> FockBasis:
    """All occupation vectors of ``total_bosons`` over ``n_modes`` modes.

    Enumeration is lexicographic in the occupation tuple, so indices are
    stable across runs.  Raises :class:`CapacityError` before enumerating
    when the stars-and-bars dimension exceeds the cap.
    """
    cap = DEFAULT_FOCK_CAP if cap is None else cap
    dim = math.comb(total_bosons + n_modes - 1, total_bosons)
    if dim > cap:
        raise CapacityError(
            f"Fock basis of {n_modes} modes with {total_bosons} bosons has "
            f"dimension {dim}, beyond the cap of {cap}"
        )

    # Stars and bars: the n_modes - 1 bar positions among
    # total_bosons + n_modes - 1 slots, in lexicographic order, give the
    # occupations in lexicographic order; mode i holds the stars between
    # bars i and i + 1.
    slots = total_bosons + n_modes - 1
    bars = np.array(list(itertools.combinations(range(slots), n_modes - 1)), dtype=np.int64)
    occ = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    occ.flags.writeable = False
    return FockBasis(n_modes, total_bosons, occ)


@dataclass(frozen=True)
class FockState:
    """Normalized amplitude vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector of shape {amps.shape}, basis dim {self.basis.dim}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("Fock state has non-finite amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"Fock state not normalized: |norm-1| = {abs(norm-1):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "FockState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _position(basis: FockBasis, occupation) -> int:
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


def basis_state(basis: FockBasis, occupation) -> FockState:
    amps = np.zeros(basis.dim, dtype=complex)
    amps[_position(basis, occupation)] = 1.0
    return FockState(basis, amps)


def superpose(basis: FockBasis, terms: dict) -> FockState:
    """Normalized superposition from {occupation tuple: amplitude}."""
    amps = np.zeros(basis.dim, dtype=complex)
    for occ, amp in terms.items():
        amps[_position(basis, occ)] = amp
    norm = np.linalg.norm(amps)
    if not 0 < norm < math.inf:
        raise ValueError(f"superposition has norm {norm}; it needs a finite, nonzero one")
    return FockState(basis, amps / norm)


def _site_row_counts(basis: FockBasis) -> np.ndarray:
    """(dim, n_sites, 2 rows, 2 internals) view of the occupations."""
    return basis.occupations.reshape(basis.dim, -1, len(ROWS), len(INTERNALS))


def build_hamiltonians(params: LatticeParams, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H_hop, H_int) on the given basis.

    H_hop moves bosons vertically between the rows of one column without
    touching the internal state, so it conserves the per-site, per-internal
    total over rows; H_int is diagonal.
    """
    if basis.n_modes != params.n_modes:
        raise ValueError(f"basis has {basis.n_modes} modes, params imply {params.n_modes}")
    dim = basis.dim
    occ = basis.occupations
    h_bs = np.zeros((dim, dim), dtype=complex)
    h_int = np.zeros((dim, dim), dtype=complex)

    counts = _site_row_counts(basis)
    na, nb = counts[..., 0], counts[..., 1]
    energy = params.U_a / 2 * na * (na - 1) + params.U_b / 2 * nb * (nb - 1) + params.U_ab * na * nb
    h_int[np.diag_indices(dim)] = energy.sum(axis=(1, 2))

    # Every hop at once: -J a_top^dag a_bot and its conjugate, per site and
    # internal state, applied to each basis state whose source mode is
    # occupied.  Distinct hops from one state reach distinct states.
    modes = np.arange(params.n_modes).reshape(params.n_sites, len(ROWS), len(INTERNALS))
    top, bottom = modes[:, 0].ravel(), modes[:, 1].ravel()
    src, dst = np.concatenate([bottom, top]), np.concatenate([top, bottom])
    k, hop = np.nonzero(occ[:, src])
    src, dst = src[hop], dst[hop]
    moved = occ[k]
    moved[np.arange(len(k)), src] -= 1
    moved[np.arange(len(k)), dst] += 1
    h_bs[basis.positions(moved), k] = -params.J * np.sqrt(occ[k, src] * (occ[k, dst] + 1))
    return h_bs, h_int


def propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H, one diagonal block at a time.

    The blocks are the connected components of the nonzero pattern of H.
    No entry couples two of them, so exp(-i H t) is block diagonal with
    the same blocks, and each comes from the eigendecomposition of its own
    block of H.  Blocks of one size are decomposed together.  A matrix
    without zeros is one block.
    """
    dim = hamiltonian.shape[0]
    rows, cols = np.divmod(np.flatnonzero(hamiltonian != 0), dim)
    # Every state takes the smallest label among the states an entry
    # couples it to, in either direction, and then its label's label, until
    # nothing changes; each component then carries its lowest index.
    labels = np.arange(dim)
    while True:
        reached = labels.copy()
        np.minimum.at(reached, rows, labels[cols])
        np.minimum.at(reached, cols, labels[rows])
        reached = reached[reached]
        if np.array_equal(reached, labels):
            break
        labels = reached
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes

    u = np.zeros((dim, dim), dtype=complex)
    for size in sorted(set(sizes.tolist())):
        members = order[starts[sizes == size, None] + np.arange(size)]
        block = members[:, :, None], members[:, None, :]
        energies, vectors = np.linalg.eigh(hamiltonian[block])
        phases = np.exp(-1j * energies * t)[:, None, :]
        u[block] = (vectors * phases) @ vectors.conj().transpose(0, 2, 1)
    return u


def evolve(state: FockState, hamiltonian: np.ndarray, t: float) -> FockState:
    """Apply exp(-i H t) to the state.

    No renormalization: unitarity must hold on its own, and the FockState
    invariant rejects the result if the eigendecomposition drifted.
    """
    return FockState(state.basis, propagator(hamiltonian, t) @ state.amplitudes)


def ideal_bs_mode_matrix(n_sites: int) -> np.ndarray:
    """Single-particle matrix of the pairwise 50/50 splitters.

    Block [[1, -i], [-i, 1]]/sqrt(2) on each (row I, row II) pair, per site
    and internal state: the action on annihilation operators.
    """
    block = np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)
    # modes run site-major, then row, then internal state
    return np.kron(np.eye(n_sites), np.kron(block, np.eye(len(INTERNALS))))


def mode_unitary_matrix(u: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Dense many-body matrix of a single-particle unitary on a Fock basis.

    Creation operators transform as a_m^dag -> sum_k conj(u[m, k]) a_k^dag.
    With S(n) the modes of occupation n, each listed as often as it is
    occupied, every amplitude is a permanent of a submatrix of conj(u)
    (Scheel, quant-ph/0406127):

        <n'|U|n> = sum_sigma prod_i conj(u)[S(n)_i, S(n')_sigma(i)]
                   / sqrt(prod n! prod n'!),

    summed over the N! orderings sigma of the N bosons, one array product
    over all (n, n') pairs per ordering.  The result is not renormalized:
    it is unitary exactly when u is.
    """
    if u.shape != (basis.n_modes, basis.n_modes):
        raise ValueError(f"mode matrix of shape {u.shape} on a basis of {basis.n_modes} modes")
    dim, n = basis.dim, basis.total_bosons
    occ = basis.occupations
    modes = np.repeat(np.tile(np.arange(basis.n_modes), dim), occ.ravel()).reshape(dim, n)
    u_conj = np.conj(u)
    amplitude = np.zeros((dim, dim), dtype=complex)
    for sigma in itertools.permutations(range(n)):
        amplitude += np.prod(u_conj[modes[:, None, :], modes[None, :, list(sigma)]], axis=-1)
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    norm = np.sqrt(factorials[occ].prod(axis=1))
    return amplitude.T / np.outer(norm, norm)


@dataclass(frozen=True)
class BSCheckReport:
    """Fidelities of the hopping evolution against the ideal splitter map."""

    t_bs: float
    fidelities: tuple[float, ...]

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities)


def hopping_bs_check(params: LatticeParams, test_states: list[FockState]) -> BSCheckReport:
    """Compare evolve(., H_hop + H_int, t_bs) with the ideal mode-level splitter.

    H_int vanishes when U_a = U_b = U_ab = 0, leaving the bare hopping
    splitter; nonzero interactions show how much they degrade it (the
    ideal comparison target stays the same).
    """
    if not test_states:
        raise ValueError("need at least one test state")
    basis = test_states[0].basis
    h_bs, h_int = build_hamiltonians(params, basis)
    u_prop = propagator(h_bs + h_int, params.t_bs)
    # The target comes from the mode matrix alone, never from H_hop, so a
    # wrong splitter time shows as lost fidelity.
    u_ideal = mode_unitary_matrix(ideal_bs_mode_matrix(params.n_sites), basis)
    fidelities = tuple(
        float(abs(np.vdot(u_ideal @ state.amplitudes, u_prop @ state.amplitudes)) ** 2) for state in test_states
    )
    return BSCheckReport(params.t_bs, fidelities)


@dataclass(frozen=True)
class PhaseCheckReport:
    """Deviation of interaction phases from the double-occupancy rule."""

    theta: float
    checked_configs: int
    skipped_configs: int  # site-row occupancy beyond 2: rule does not apply
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-12


def interaction_phase_check(U: float, tau: float, basis: FockBasis) -> PhaseCheckReport:
    """Verify e^{-i U tau} per doubly occupied site-row under H_int alone.

    Evolves every basis configuration under H_int (U_a = U_b = U_ab = U,
    hopping off) for ``tau`` and compares the acquired phase against
    theta * (number of site-rows holding exactly two bosons), theta = U tau.
    Configurations with a site-row beyond double occupancy fall outside the
    rule and are counted as skipped.
    """
    n_sites = basis.n_modes // 4
    params = LatticeParams(n_sites=n_sites, U_a=U, U_b=U, U_ab=U, tau=tau)
    _, h_int = build_hamiltonians(params, basis)
    theta = params.theta

    # H_int is diagonal: evolve the uniform superposition once and read the
    # per-configuration phases from the amplitude rotation.
    uniform = FockState(basis, np.full(basis.dim, 1 / math.sqrt(basis.dim), dtype=complex))
    evolved = evolve(uniform, h_int, tau)

    pair_counts = _site_row_counts(basis).sum(axis=3).reshape(basis.dim, -1)
    ruled = ~(pair_counts > 2).any(axis=1)
    doubles = (pair_counts[ruled] == 2).sum(axis=1)
    measured = evolved.amplitudes[ruled] / uniform.amplitudes[ruled]
    predicted = np.exp(-1j * theta * doubles)
    max_dev = float(np.max(np.abs(measured - predicted), initial=0.0))
    checked = int(ruled.sum())
    return PhaseCheckReport(theta, checked, basis.dim - checked, max_dev)


def embed_two_copies(
    rho_row: DensityOperator, basis: FockBasis | None = None
) -> tuple[FockBasis, list[tuple[float, FockState]]]:
    """Load two copies of an N-qubit state into the two-row lattice.

    Returns the Fock basis (4N modes, 2N bosons: one atom per site per
    row) and the ensemble of product eigenvector pairs: rho x rho
    decomposes as sum_ij lambda_i lambda_j |v_i>_I |v_j>_II, and each
    member maps a = |0>, b = |1> per site into the occupation basis.
    Eigenvalues below 1e-12 are dropped.  ``basis`` is that Fock basis,
    built under the default cap when not given.
    """
    n = rho_row.n_qubits
    if basis is None:
        basis = build_fock_basis(4 * n, 2 * n)
    elif (basis.n_modes, basis.total_bosons) != (4 * n, 2 * n):
        raise ValueError(
            f"basis of {basis.n_modes} modes and {basis.total_bosons} bosons; "
            f"{n} qubits need {4 * n} and {2 * n}"
        )

    eigenvalues, eigenvectors = np.linalg.eigh(rho_row.matrix)
    keep = eigenvalues > 1e-12
    eigenvalues = eigenvalues[keep]
    eigenvectors = eigenvectors[:, keep]

    # position[x, y]: the basis index of row I holding bit string x and
    # row II holding y, one boson per site-row, internal a = 0, b = 1.
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    one_hot = np.stack([1 - bits, bits], axis=-1)  # (x, site, internal)
    occ = np.zeros((2**n, 2**n, n, len(ROWS), len(INTERNALS)), dtype=np.int64)
    occ[:, :, :, 0] = one_hot[:, None]
    occ[:, :, :, 1] = one_hot[None, :]
    position = basis.positions(occ.reshape(2**n, 2**n, 4 * n))

    ensemble = []
    for i, lam_i in enumerate(eigenvalues):
        for j, lam_j in enumerate(eigenvalues):
            amps = np.zeros(basis.dim, dtype=complex)
            v_i = eigenvectors[:, i]
            v_j = eigenvectors[:, j]
            xs = np.flatnonzero(np.abs(v_i) > 1e-15)
            ys = np.flatnonzero(np.abs(v_j) > 1e-15)
            amps[position[np.ix_(xs, ys)]] = np.outer(v_i[xs], v_j[ys])
            ensemble.append((float(lam_i * lam_j), FockState(basis, amps / np.linalg.norm(amps))))
    return basis, ensemble


@dataclass(frozen=True)
class OccupancyProbabilities:
    p_same_mode: float
    p_diff_mode: float


def occupancy_probabilities(ensemble, site: int) -> OccupancyProbabilities:
    """Probability that the two bosons of a column sit in one row vs both rows.

    ``ensemble`` is a list of (weight, FockState) pairs (a pure state may be
    passed as [(1.0, state)]).  Every configuration carrying amplitude must
    hold exactly two bosons at the column, else the question is ill-posed
    and a ValueError is raised.  After the splitter, p_diff_mode is the
    antisymmetric-projection probability (1 - purity)/2 of the site's
    single-qubit reduction.
    """
    p_diff = 0.0
    total_weight = 0.0
    for weight, state in ensemble:
        rows = _site_row_counts(state.basis)[:, site - 1].sum(axis=2)
        column = rows.sum(axis=1)
        prob = np.abs(state.amplitudes) ** 2
        populated = prob >= 1e-18
        wrong = np.flatnonzero(populated & (column != 2))
        if wrong.size:
            raise ValueError(
                f"column {site} holds {column[wrong[0]]} bosons in a populated "
                "configuration; occupancy probabilities need exactly two"
            )
        p_diff += weight * prob[populated & (rows[:, 0] == 1)].sum()
        total_weight += weight
    p_diff = float(p_diff / total_weight)
    return OccupancyProbabilities(p_same_mode=1.0 - p_diff, p_diff_mode=p_diff)


@dataclass(frozen=True)
class LossOutcome:
    """Per-copy single-particle loss counts and the pair minimum survivor."""

    m: int
    m_prime: int

    @property
    def n(self) -> int:
        return max(self.m, self.m_prime)


def sample_loss(n_atoms: int, survival_prob: float, seed: int) -> LossOutcome:
    """Independent binomial single-particle loss in each of the two copies.

    Each atom survives with ``survival_prob``; the loss counts m, m' of the
    two copies are drawn independently.  Only min(N-m, N-m') = N - max(m, m')
    site pairs remain usable downstream, hence the ``n`` attribute.
    Deterministic for a fixed seed.
    """
    if not 0.0 <= survival_prob <= 1.0:
        raise ValueError("survival probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(n_atoms, 1.0 - survival_prob))
    m_prime = int(rng.binomial(n_atoms, 1.0 - survival_prob))
    return LossOutcome(m, m_prime)


def standard_test_states(seed: int = 0, n_random: int = 4) -> list[FockState]:
    """Canonical one-column two-boson test set for splitter checks.

    Six structured states, in this order: the identical a-pair
    aI^dag aII^dag |vac> (entry 0), the identical b-pair, the singlet
    (aI^dag bII^dag - aII^dag bI^dag)|vac>/sqrt(2) (entry 2), the matching
    triplet, both bosons in row I, and a doubly occupied mode; then
    ``n_random`` seeded random superpositions.  Ten states by default.
    """
    basis = build_fock_basis(4, 2)
    ia, ib, iia, iib = (mode_index(1, row, internal) for row in ROWS for internal in INTERNALS)

    def occ(*modes: int) -> tuple[int, ...]:
        """One boson per listed mode."""
        return tuple(np.bincount(modes, minlength=4).tolist())

    states = [
        basis_state(basis, occ(ia, iia)),  # identical a-pair, one per row
        basis_state(basis, occ(ib, iib)),  # identical b-pair
        superpose(basis, {occ(ia, iib): 1, occ(iia, ib): -1}),  # singlet
        superpose(basis, {occ(ia, iib): 1, occ(iia, ib): +1}),  # triplet ab
        basis_state(basis, occ(ia, ib)),  # both bosons in row I
        basis_state(basis, occ(ia, ia)),  # doubly occupied single mode
    ]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        states.append(FockState(basis, amps / np.linalg.norm(amps)))
    return states
