"""Second-quantized simulation of the two-row optical-lattice network.

The physical layout is N lattice-site columns, each holding a vertical
pair of sites (rows I and II); every boson carries one of two long-lived
internal states a, b.  Row I holds copy one of the qubit register, row II
copy two, with internal state a = |0> and b = |1>.

Lowering the barrier between the rows turns on vertical hopping

    H_hop = sum_j -J (aI_j^dag aII_j + bI_j^dag bII_j + h.c.),

which, run for exactly t = pi/(4J), implements a 50/50 beam splitter on
every column: annihilation operators map as a_I -> (a_I - i a_II)/sqrt(2)
(creation operators pick up the conjugate +i).  On-site interactions of
one strength U for every internal-state pair,

    H_int = sum_{row,j} U/2 n(n-1),  n = n_a + n_b the bosons of the site-row,

are diagonal in the occupation basis: a site-row holding two bosons
acquires the phase theta = U per unit hold time while singly occupied
site-rows acquire none, which is what makes double occupancy observable.

States live on the fixed-total-boson Fock basis, stored as one integer
array of occupation vectors; the Hamiltonians, the ideal splitter map,
the two-copy embedding and the occupancy statistics are array operations
over it.
In the occupation basis both Hamiltonians are real: H_hop is a real
symmetric matrix and H_int is diagonal, so it is kept as its diagonal.
Both H_hop and H_int conserve, per column, the number of a bosons and of
b bosons summed over the two rows, so a Hamiltonian on this basis is
block diagonal.  Evolution finds those blocks from the exact nonzero
pattern of H and eigendecomposes each block on its own (at 2 columns,
35 blocks of at most 16 states instead of one 330-dimensional matrix);
no entry outside a block exists, so nothing is approximated.  The blocks
are found once per off-diagonal pattern, which every Hamiltonian of one
basis shares, and blocks with byte-identical entries are decomposed once
(at 2 columns and U = 0, 8 of the 35 are distinct).  Evolution takes a
(K, dim, dim) stack of Hamiltonians as it takes one, so the checks evolve
all their couplings at once: the splitter check one stack of every U, the
phase check one stack of every theta.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qstate import CapacityError, DensityOperator, check_normalized

#: Default bound on the Fock-basis dimension.  H_hop is a dense dim x dim
#: float64 matrix (128 MiB at 4096 states) and the propagator a complex one
#: (256 MiB); H_int is a length-dim diagonal.  Two columns need 330 states;
#: three need 12376 and are refused.
DEFAULT_FOCK_CAP = 4096

#: Accepted range of the hopping energy J and of |U|.
#: Past it float64 overflows: t_bs = pi/(4J) for J below ~1e-308, the
#: hopping energies for J near 1e308, and the phase U t_bs as U/J nears
#: 1e308.  Inside it every energy and phase stays below 1e200.
COUPLING_MIN, COUPLING_MAX = 1e-100, 1e100

#: Modes are numbered site-major, then row (I, II), then internal state (a, b).
ROWS = ("I", "II")
INTERNALS = ("a", "b")


@dataclass(frozen=True)
class LatticeParams:
    """Couplings of the two-row lattice.

    ``t_bs`` is pi/(4 J), the hold time that realizes the 50/50 splitter.
    ``J`` and ``|U|`` must lie in the coupling range (``COUPLING_MIN``,
    ``COUPLING_MAX``).
    """

    n_sites: int
    J: float = 1.0
    U: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site column")
        for name in ("J", "U"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not COUPLING_MIN <= self.J <= COUPLING_MAX:
            raise ValueError(f"J must lie in [{COUPLING_MIN:g}, {COUPLING_MAX:g}], got {self.J}")
        if abs(self.U) > COUPLING_MAX:
            raise ValueError(f"U must lie in [-{COUPLING_MAX:g}, {COUPLING_MAX:g}], got {self.U}")

    @property
    def t_bs(self) -> float:
        return math.pi / (4 * self.J)

    @property
    def n_modes(self) -> int:
        return 4 * self.n_sites


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

        Each row must be a vector of this basis, which is not checked: any
        other row gets a wrong index or an IndexError.  Its lexicographic
        rank sums, over modes i, the basis states that agree with it before
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


def build_fock_basis(n_modes: int, total_bosons: int) -> FockBasis:
    """All occupation vectors of ``total_bosons`` over ``n_modes`` modes.

    Enumeration is lexicographic in the occupation tuple, so indices are
    stable across runs.  Raises :class:`CapacityError` before enumerating
    when the stars-and-bars dimension exceeds ``DEFAULT_FOCK_CAP``.
    """
    dim = math.comb(total_bosons + n_modes - 1, total_bosons)
    if dim > DEFAULT_FOCK_CAP:
        raise CapacityError(
            f"Fock basis of {n_modes} modes with {total_bosons} bosons has "
            f"dimension {dim}, beyond the cap of {DEFAULT_FOCK_CAP}"
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
        check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


class _BasisPlan(NamedTuple):
    """What the lattice work on one basis shares for every coupling and
    state, as read-only arrays."""

    dst: np.ndarray  # each hop's destination index
    src: np.ndarray  # its source index
    factor: np.ndarray  # its sqrt(n_src (n_dst + 1))
    pairs: np.ndarray  # (dim, n_sites, 2 rows) boson pairs n(n-1)/2 of each site-row
    column: np.ndarray  # (n_sites, dim) bosons of each column
    split: np.ndarray  # (n_sites, dim) whether row I holds exactly one of them


@functools.cache
def _basis_plan(basis: FockBasis) -> _BasisPlan:
    """The plan of ``basis``, built once per basis."""
    occ = basis.occupations
    rows = occ.reshape(basis.dim, -1, len(ROWS), len(INTERNALS)).sum(axis=3)  # (dim, site, row)

    # Every hop at once: a_top^dag a_bot and its conjugate, per site and
    # internal state, applied to each basis state whose source mode is
    # occupied.  Distinct hops from one state reach distinct states.
    modes = np.arange(basis.n_modes).reshape(-1, len(ROWS), len(INTERNALS))
    top, bottom = modes[:, 0].ravel(), modes[:, 1].ravel()
    src, dst = np.concatenate([bottom, top]), np.concatenate([top, bottom])
    k, hop = np.nonzero(occ[:, src])
    src, dst = src[hop], dst[hop]
    moved = occ[k]
    moved[np.arange(len(k)), src] -= 1
    moved[np.arange(len(k)), dst] += 1
    plan = _BasisPlan(
        basis.positions(moved),
        k,
        np.sqrt(occ[k, src] * (occ[k, dst] + 1)),
        rows * (rows - 1) // 2,
        np.ascontiguousarray(rows.sum(axis=2).T),
        np.ascontiguousarray(rows[:, :, 0].T == 1),
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def build_hamiltonians(params: LatticeParams, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Real (H_hop, H_int) on the given basis.

    H_hop is the dense float64 dim x dim matrix of vertical hops between
    the rows of one column; they leave the internal state alone, so they
    conserve the per-site, per-internal total over rows.  H_int is
    diagonal and is returned as its float64 diagonal of length dim: U
    times the n(n-1)/2 boson pairs of each site-row.  The full Hamiltonian
    is ``h_bs + np.diag(h_int)``; ``h_bs + h_int`` would add ``h_int[j]``
    to every entry of column j.  The hop indices and factors and the pair
    counts are derived once per basis; a call scales and scatters them.
    The basis must have the modes ``params`` imply.
    """
    if basis.n_modes != params.n_modes:
        raise ValueError(f"basis has {basis.n_modes} modes, params imply {params.n_modes}")
    plan = _basis_plan(basis)
    h_bs = np.zeros((basis.dim, basis.dim))
    h_bs[plan.dst, plan.src] = -params.J * plan.factor
    return h_bs, (float(params.U) * plan.pairs).sum(axis=(1, 2))


#: Block plans ``propagator`` keeps, one per off-diagonal nonzero pattern;
#: past this many the least recently used is dropped.  Each holds its
#: packed pattern, dim^2 / 8 bytes (2 MiB at the Fock cap), and one index
#: per block entry.  The lattice Hamiltonians of one basis share one pattern.
_BLOCK_PLANS_KEPT = 8


class _BlockPlan(NamedTuple):
    """The diagonal blocks of one off-diagonal nonzero pattern."""

    sizes: tuple[tuple[int, int], ...]  # (block size, number of blocks), sizes ascending
    flat: np.ndarray  # read-only flat index row * dim + col of every block entry, block by block in ``sizes`` order


@functools.lru_cache(maxsize=_BLOCK_PLANS_KEPT)
def _block_plan(dim: int, pattern: bytes) -> _BlockPlan:
    """The diagonal blocks of a dim x dim matrix with the off-diagonal
    nonzero ``pattern`` (row major, packed by ``np.packbits``), grouped by
    size.  Built once per pattern."""
    rows, cols = np.divmod(np.flatnonzero(np.unpackbits(np.frombuffer(pattern, np.uint8), count=dim * dim)), dim)
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
    groups = [(size, order[starts[sizes == size, None] + np.arange(size)]) for size in sorted(set(sizes.tolist()))]
    flat = np.concatenate([(members[:, :, None] * dim + members[:, None, :]).ravel() for _, members in groups])
    flat.flags.writeable = False
    return _BlockPlan(tuple((size, len(members)) for size, members in groups), flat)


def propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H, one diagonal block at a time.

    ``hamiltonian`` is a (dim, dim) matrix or a (K, dim, dim) stack of
    them, evolved together for the one time ``t``; the result has its
    shape.  The lattice Hamiltonians are real symmetric, so their blocks
    go through the real ``eigh``; the result is complex either way.

    The blocks are the connected components of the nonzero pattern of H,
    for a stack the union of its members' patterns.  No entry couples two
    of them, so exp(-i H t) is block diagonal with the same blocks, and
    each comes from the eigendecomposition of its own block of H.  A
    matrix without zeros is one block.  Diagonal entries join no two
    blocks, so the blocks are found once per off-diagonal pattern
    (``_block_plan``) and every H with that pattern reuses them.  The
    block entries of the whole stack are gathered by one ``np.take`` and
    scattered back once.  Blocks of one size are decomposed together, and
    byte-identical blocks, within a member or across the stack, share one
    eigendecomposition, which gives them identical results.  So a member
    of a stack whose members share one off-diagonal pattern (``h_bs`` plus
    any diagonal) is its own 2-D call, bit for bit.
    """
    dim = hamiltonian.shape[-1]
    stack = hamiltonian.reshape(-1, dim * dim)
    pattern = stack.any(axis=0).reshape(dim, dim)
    np.fill_diagonal(pattern, False)
    plan = _block_plan(dim, np.packbits(pattern).tobytes())
    entries = np.take(stack, plan.flat, axis=1)
    evolved = np.empty(entries.shape, dtype=complex)
    start = 0
    for size, count in plan.sizes:
        stop = start + count * size * size
        blocks = entries[:, start:stop].reshape(-1, size, size)
        # each block's bytes, and its slot among the distinct ones
        raw = blocks.reshape(len(blocks), -1).view(np.dtype((np.void, blocks[0].nbytes))).ravel().tolist()
        slot: dict[bytes, int] = {}
        copy = [slot.setdefault(block, len(slot)) for block in raw]
        distinct = np.frombuffer(b"".join(slot), blocks.dtype).reshape(len(slot), size, size)
        energies, vectors = np.linalg.eigh(distinct)
        phases = np.exp(-1j * energies * t)[:, None, :]
        evolved[:, start:stop] = ((vectors * phases) @ vectors.conj().transpose(0, 2, 1))[copy].reshape(len(stack), -1)
        start = stop
    u = np.zeros(stack.shape, dtype=complex)
    u[:, plan.flat] = evolved
    return u.reshape(hamiltonian.shape)


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


def hopping_bs_check(J: float, us, basis: FockBasis, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fidelities of exp(-i (H_hop + H_int) t_bs) against the ideal mode-level splitter, for each U of ``us``.

    ``us`` is a non-empty sequence of on-site strengths; each makes a
    ``LatticeParams`` with hopping ``J`` on ``basis``, so each must lie in
    the coupling range, as must ``J``.  ``amplitudes`` is a (k, dim) stack
    of k >= 1 state vectors on ``basis``; each must be finite with unit
    norm, else a ValueError is raised, as for any other shape.  All
    Hamiltonians evolve in one ``propagator`` call.  Returns the
    (len(us), k) float array whose entry (i, j) is |<ideal_j|evolved_j>|^2
    under U = us[i], and the (len(us), dim, dim) propagators.  H_int
    vanishes when U = 0, leaving the bare hopping splitter (that member is
    ``propagator(h_bs, t_bs)``, bit for bit); nonzero interactions show
    how much they degrade it (the ideal comparison target stays the same).
    """
    if amplitudes.ndim != 2 or len(amplitudes) == 0 or amplitudes.shape[1] != basis.dim:
        raise ValueError(f"need a (k >= 1, {basis.dim}) stack of amplitude rows, got shape {amplitudes.shape}")
    check_normalized(amplitudes)
    couplings = [LatticeParams(n_sites=basis.n_modes // 4, J=J, U=u) for u in us]
    if not couplings:
        raise ValueError("need at least one coupling U")
    hamiltonians = np.stack([h_bs + np.diag(h_int) for h_bs, h_int in (build_hamiltonians(p, basis) for p in couplings)])
    u_prop = propagator(hamiltonians, couplings[0].t_bs)
    ideal = amplitudes @ _ideal_splitter(basis).T
    fidelities = np.abs((ideal.conj() * (amplitudes @ u_prop.transpose(0, 2, 1))).sum(axis=2)) ** 2
    return fidelities, u_prop


@functools.cache
def _ideal_splitter(basis: FockBasis) -> np.ndarray:
    """Read-only many-body matrix of the ideal splitters on ``basis``,
    built once per basis.  It comes from the mode matrix alone, never from
    H_hop, so a wrong splitter time shows as lost fidelity."""
    u = mode_unitary_matrix(ideal_bs_mode_matrix(basis.n_modes // 4), basis)
    u.flags.writeable = False
    return u


def interaction_phase_check(thetas, basis: FockBasis) -> list[dict]:
    """Verify e^{-i theta} per doubly occupied site-row under H_int alone, for each theta of ``thetas``.

    Evolves every basis configuration under the H_int of
    :func:`build_hamiltonians` at U = theta (hopping off) for unit time,
    all thetas in one ``propagator`` call, and compares the acquired phase
    against theta * (number of site-rows holding exactly two bosons).
    Each theta must lie in the coupling range of U, so no phase
    overflows.  Configurations with a site-row beyond double occupancy
    fall outside the rule and are not checked.  Returns, per theta, the
    ``interaction_phase`` entry of ``lattice-validate``: ``theta``,
    ``max_deviation``, ``checked_configs`` and ``passed`` (the deviation
    is at most 1e-12), as plain Python values.
    """
    n_sites = basis.n_modes // 4
    h_int = [build_hamiltonians(LatticeParams(n_sites, U=theta), basis)[1] for theta in thetas]
    pairs = _basis_plan(basis).pairs

    # A site-row of n = 0, 1, 2, 3, ... bosons holds 0, 0, 1, 3, ... pairs:
    # n = 2 is one pair and n > 2 more than one.
    ruled = ~(pairs > 1).any(axis=(1, 2))
    doubles = (pairs[ruled] == 1).sum(axis=(1, 2))
    # H_int is diagonal, so each configuration's phase is its own entry of
    # the propagator's diagonal.  The phases come from evolving the dense
    # diag(H_int), not from exp(-i h_int), so the check covers ``propagator``.
    measured = np.diagonal(propagator(np.stack([np.diag(h) for h in h_int]), 1.0), axis1=1, axis2=2)[:, ruled]
    predicted = np.exp(-1j * np.array(thetas, dtype=float)[:, None] * doubles)
    deviations = np.max(np.abs(measured - predicted), axis=1, initial=0.0).tolist()
    return [
        {"theta": float(theta), "max_deviation": dev, "checked_configs": int(ruled.sum()), "passed": dev <= 1e-12}
        for theta, dev in zip(thetas, deviations)
    ]


@functools.cache
def _two_copy_layout(n: int) -> tuple[FockBasis, np.ndarray]:
    """The 4n-mode, 2n-boson Fock basis and its read-only position[x, y]:
    the basis index of row I holding bit string x and row II holding y,
    one boson per site-row, internal a = 0, b = 1."""
    basis = build_fock_basis(4 * n, 2 * n)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    one_hot = np.stack([1 - bits, bits], axis=-1)  # (x, site, internal)
    occ = np.stack(np.broadcast_arrays(one_hot[:, None], one_hot[None, :]), axis=3)  # x, y, site, row, internal
    position = basis.positions(occ.reshape(2**n, 2**n, 4 * n))
    position.flags.writeable = False
    return basis, position


def embed_two_copies_stack(matrices: np.ndarray) -> tuple[FockBasis, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`embed_two_copies` of a (K, 2^N, 2^N) stack of density matrices.

    The matrices are those of ``DensityOperator``s, already checked.  One
    batched eigendecomposition serves the whole stack.  Returns the shared
    basis and, member by member, the index of its state in the stack, its
    weight and its amplitude row, as arrays ``owner`` (members,),
    ``weights`` (members,) and ``amplitudes`` (members, dim).
    Members run in stack order, and within a state over the pairs (i, j)
    of its kept eigenvectors, i major, in ascending eigenvalue order.
    Their norms are not checked here: unit eigenvectors give unit
    products, which a caller checks once, with ``check_normalized`` on the
    stack or a ``FockState`` per member.
    """
    basis, position = _two_copy_layout(matrices.shape[-1].bit_length() - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(matrices)
    kept = eigenvalues > 1e-12
    owner, i, j = np.nonzero(kept[:, :, None] & kept[:, None, :])
    amplitudes = np.zeros((owner.size, basis.dim), dtype=complex)
    amplitudes[:, position] = eigenvectors[owner, :, i, None] * eigenvectors[owner, None, :, j]
    return basis, owner, eigenvalues[owner, i] * eigenvalues[owner, j], amplitudes


def embed_two_copies(rho_row: DensityOperator) -> tuple[FockBasis, list[tuple[float, FockState]]]:
    """Load two copies of an N-qubit state into the two-row lattice.

    Returns the Fock basis (4N modes, 2N bosons: one atom per site per
    row) and the ensemble of product eigenvector pairs: rho x rho
    decomposes as sum_ij lambda_i lambda_j |v_i>_I |v_j>_II, and each
    member maps a = |0>, b = |1> per site into the occupation basis.
    Eigenvalues below 1e-12 are dropped.  The basis and its index map are
    built once per qubit count and shared by every later call.
    """
    basis, _, weights, amplitudes = embed_two_copies_stack(rho_row.matrix[None])
    # FockState checks each member's norm
    return basis, [(float(w), FockState(basis, amps)) for w, amps in zip(weights, amplitudes)]


@dataclass(frozen=True)
class OccupancyProbabilities:
    p_same_mode: float
    p_diff_mode: float


def occupancy_p_diff_stack(
    basis: FockBasis, owner: np.ndarray, weights: np.ndarray, amplitudes: np.ndarray, site: int
) -> np.ndarray:
    """p_diff_mode of many ensembles on one basis, as :func:`occupancy_probabilities`.

    Member k, of weight ``weights[k]`` and amplitude row ``amplitudes[k]``,
    belongs to ensemble ``owner[k]``; the result holds the p_diff_mode of
    ensembles 0..max(owner).  Every ensemble's weights and every member's
    populated configurations obey the rules of ``occupancy_probabilities``,
    which raises the same ValueErrors.
    """
    # per ensemble a sequential sum, as Python's sum() of floats: an
    # overflow or a NaN shows in the total, without a warning
    totals = np.bincount(owner, weights)
    bad = np.flatnonzero((np.bincount(owner, weights < 0) > 0) | ~((0 < totals) & (totals < math.inf)))
    if bad.size:
        raise ValueError(
            "ensemble weights must be finite and non-negative with a positive total, "
            f"got total {float(totals[bad[0]])!r}"
        )

    if not 1 <= site <= basis.n_modes // 4:
        raise ValueError(f"site {site} outside 1..{basis.n_modes // 4}")
    plan = _basis_plan(basis)
    column, split = plan.column[site - 1], plan.split[site - 1]
    prob = np.abs(amplitudes) ** 2
    populated = prob >= 1e-18
    wrong = np.flatnonzero(populated.any(axis=0) & (column != 2))
    if wrong.size:
        raise ValueError(
            f"column {site} holds {column[wrong[0]]} bosons in a populated "
            "configuration; occupancy probabilities need exactly two"
        )
    member_p_diff = (prob * (populated & split)).sum(axis=1)
    return np.bincount(owner, weights * member_p_diff) / totals


def occupancy_probabilities(ensemble, site: int) -> OccupancyProbabilities:
    """Probability that the two bosons of a column sit in one row vs both rows.

    ``ensemble`` is a non-empty list of (weight, FockState) pairs on one
    Fock basis (a pure state may be passed as [(1.0, state)]) and ``site``
    a column in 1..n_sites.  The weights must be finite and non-negative
    with a positive, finite total; they are normalized by it.  Every
    configuration carrying amplitude must hold exactly two bosons at the
    column, else the question is ill-posed.  Each of these conditions
    raises a ValueError when it fails.  After the splitter, p_diff_mode is
    the antisymmetric-projection probability (1 - purity)/2 of the site's
    single-qubit reduction.
    """
    if not ensemble:
        raise ValueError("occupancy probabilities need a non-empty ensemble")
    basis = ensemble[0][1].basis
    if any(state.basis != basis for _, state in ensemble):
        raise ValueError("every ensemble member must live on one Fock basis")
    weights = np.array([float(weight) for weight, _ in ensemble])
    amplitudes = np.stack([state.amplitudes for _, state in ensemble])
    owner = np.zeros(len(ensemble), dtype=np.intp)
    p_diff = float(occupancy_p_diff_stack(basis, owner, weights, amplitudes, site)[0])
    return OccupancyProbabilities(p_same_mode=1.0 - p_diff, p_diff_mode=p_diff)


def sample_loss(n_atoms: int, survival_prob: float, runs: int, seed: int) -> np.ndarray:
    """Independent binomial single-particle loss in both copies of each run.

    Each atom survives with ``survival_prob``.  Returns the ``(runs, 2)``
    loss counts m, m' of the two copies, every one drawn independently
    from one ``default_rng(seed)``, so a seed names one stream.  Only
    min(N-m, N-m') = N - max(m, m') site pairs of a run remain usable
    downstream.
    """
    if not 0.0 <= survival_prob <= 1.0:
        raise ValueError("survival probability must lie in [0, 1]")
    return np.random.default_rng(seed).binomial(n_atoms, 1.0 - survival_prob, size=(runs, 2))


@functools.cache
def _structured_test_states() -> np.ndarray:
    """The six structured rows of ``standard_test_states`` as one read-only
    (6, dim) array, placed once per process by one ``positions`` call."""
    basis = _two_copy_layout(1)[0]
    ia, ib, iia, iib = np.eye(4, dtype=np.int64)  # one boson in mode aI, bI, aII, bII
    half = 1 / math.sqrt(2)
    # (row, occupation, amplitude) of every nonzero entry
    entries = [
        (0, ia + iia, 1.0),  # identical a-pair, one per row
        (1, ib + iib, 1.0),  # identical b-pair
        (2, ia + iib, half),  # singlet
        (2, iia + ib, -half),
        (3, ia + iib, half),  # triplet ab
        (3, iia + ib, half),
        (4, ia + ib, 1.0),  # both bosons in row I
        (5, 2 * ia, 1.0),  # doubly occupied single mode
    ]
    rows, occupations, amplitudes = zip(*entries)
    states = np.zeros((6, basis.dim), dtype=complex)
    states[rows, basis.positions(np.array(occupations))] = amplitudes
    states.flags.writeable = False
    return states


def standard_test_states(seed: int = 0) -> tuple[FockBasis, np.ndarray]:
    """Canonical one-column two-boson test set for splitter checks.

    Returns the one-qubit register basis of ``embed_two_copies`` (4 modes,
    2 bosons) and a (10, dim) stack of unit amplitude rows.  Six
    structured states, in this order: the identical a-pair
    aI^dag aII^dag |vac> (row 0), the identical b-pair, the singlet
    (aI^dag bII^dag - aII^dag bI^dag)|vac>/sqrt(2) (row 2), the matching
    triplet, both bosons in row I, and a doubly occupied mode; then four
    seeded random superpositions, drawn on every call from one
    ``default_rng(seed)``: per row, dim real normals, then dim imaginary ones.
    """
    basis = _two_copy_layout(1)[0]
    draws = np.random.default_rng(seed).standard_normal((4, 2, basis.dim))
    random = draws[:, 0] + 1j * draws[:, 1]
    amplitudes = np.concatenate([_structured_test_states(), random / np.linalg.norm(random, axis=1, keepdims=True)])
    check_normalized(amplitudes)
    return basis, amplitudes
