"""Purity-chain separability tests and the CHSH comparison benchmark.

Every separable state satisfies tr(rho_full^2) <= tr(rho_T^2) for each of
its reductions rho_T, so a drop in purity along any nested chain of
subsets certifies entanglement.  This module evaluates those chains over
precomputed subset-purity tables and provides the maximal two-qubit CHSH
expectation (correlation-matrix criterion) as the conventional benchmark
to compare detection power against.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .qstate import DensityOperator, PureState, check_normalized, check_qubit_capacity, site_map, site_mask, trace_site
from .states import phase_family_amplitudes

#: Arithmetic error a computed purity carries: a difference of two
#: purities this small says nothing about the state.
PURITY_ERROR = 1e-12

#: Purity differences below this are numerical noise, not violations: a
#: factor-1000 margin over ``PURITY_ERROR``.
VIOLATION_THRESHOLD = 1e-9

#: Site counts whose per-N plans (the pure-state root plan here, ``probe``'s
#: report plan in ``cli``) are kept per process; past this many the least
#: recently used is dropped, so a raised qubit cap does not pin the 2^N keys
#: of every size it ever saw.  Eight hold N = 4..10, which one pass of
#: interleaved probes at those sizes visits.
PLAN_SIZES_KEPT = 8

#: Bytes one stack of a pure state's Gram roots may take while its table is
#: built (at least one root a stack): 32 of the 126 roots at N = 10, 2 of the
#: 1716 at N = 14.  Every stack is built in one buffer of this size; a mixed
#: table has no roots.
_ROOT_STACK_BYTES = 3 * 2**19

#: A mixed table's per-site maps: index 2 row + column to tr(rho P), P = I, X, -iY
#: (real; its square is Y's), Z; then the squares to I's for a traced site, half their sum for a kept one.
_PAULI_WEIGHTS = np.array([[1.0, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]])
_PURITY_FROM_SQUARES = np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]])
_PAULI_WEIGHTS.flags.writeable = _PURITY_FROM_SQUARES.flags.writeable = False


def freeze_values(table, values: np.ndarray) -> None:
    """Store ``values`` read-only as the frozen ``table``'s ``values``, once
    every entry is checked finite: a NaN passes every later bound unnoticed."""
    if not np.isfinite(values).all():
        raise ValueError(f"{type(table).__name__} has non-finite entries")
    values.flags.writeable = False
    object.__setattr__(table, "values", values)


@dataclass(frozen=True, eq=False)
class SubsetPurityMap:
    """Purities tr(rho_T^2) for every subset T of {1..N}, as one array.

    ``values[mask]`` is the purity of the subset whose sites are the set
    bits of ``mask``, site i at bit N - i (site 1 is the most significant
    bit, as in the amplitude index of ``qstate``).  ``values[0]`` is the
    empty subset, the sentinel 1 (the trace itself).  The constructor also
    accepts a mapping from site tuples to purities over all 2^N - 1
    nonempty subsets and converts it once.  Construction checks that the
    lattice is complete and finite, not that the values are physical: the
    sign transform in ``bs_network`` must also round-trip unphysical tables.
    """

    n_sites: int
    values: np.ndarray

    def __post_init__(self):
        n = self.n_sites
        if isinstance(self.values, Mapping):
            values = np.ones(2**n)
            masks = {site_mask(s, n): p for s, p in self.values.items()}
            if len(masks) != 2**n - 1 or len(self.values) != 2**n - 1:
                raise ValueError(
                    f"need all {2**n - 1} nonempty subsets of 1..{n}, got {len(self.values)} entries"
                )
            values[list(masks)] = list(masks.values())
        else:
            values = np.array(self.values, dtype=float)
            if values.shape != (2**n,) or values[0] != 1.0:
                raise ValueError(
                    f"need an array of {2**n} purities with values[0] = 1, got shape {values.shape}"
                )
        freeze_values(self, values)

    def purity(self, subset) -> float:
        subset = tuple(subset)
        if not subset:
            return 1.0
        return float(self.values[site_mask(subset, self.n_sites)])

    @property
    def entries(self) -> dict[tuple[int, ...], float]:
        """Tuple-keyed view in :meth:`subsets` order, for reports."""
        return {s: self.purity(s) for s in self.subsets()}

    def subsets(self) -> list[tuple[int, ...]]:
        """All nonempty subsets in (size, lexicographic) order, the order of
        :func:`subset_order`."""
        n = self.n_sites
        return [tuple(s for s in range(1, n + 1) if mask >> (n - s) & 1) for mask in subset_order(n)[1].tolist()]


def subset_order(n: int) -> tuple[list[str], np.ndarray]:
    """Keys ("1,3") and site masks of the nonempty subsets of 1..n in
    (size, lexicographic) order, the order of every report.

    Keys are built in mask order, site s entering as the new top bit.  Site
    1 is the top bit, so within one size lexicographic order is falling mask
    order."""
    keys, size = [""], np.zeros(1, dtype=int)
    for s in range(n, 0, -1):
        keys += [f"{s},{k}" if k else str(s) for k in keys]
        size = np.concatenate([size, size + 1])
    order = np.lexsort((-np.arange(2**n), size))[1:]
    return [keys[m] for m in order], order


def all_subset_purities(state: PureState | DensityOperator, cap: int | None = None) -> SubsetPurityMap:
    """Purity of every reduction of ``state``, including the full set.

    A :class:`DensityOperator`'s table is its Pauli form, tr rho_T^2 =
    2^-|T| sum_{P on T} tr(rho P)^2: ``qstate.site_map`` by
    ``_PAULI_WEIGHTS`` on each site's (row, column) bit pair, the squares,
    and ``site_map`` by ``_PURITY_FROM_SQUARES``, in O(N * 4^N) work and
    twice rho of extra memory.  A :class:`PureState` never becomes a density
    matrix: its table is a depth-first recursion whose nodes are stacks of
    reduced operators, one per root, each traced from its parent by one more
    site, at or after the position its parent removed and before its root's
    ``stop``, the position of the first site the root lacks.  So every
    subset is reached once.  Sorted by ``stop``, largest first, the roots
    that still trace a position are a prefix of the stack, so a node costs
    one batched ``qstate.trace_site``, one batched purity and one masked
    write.  The roots are the Gram matrices M M^dag of the h =
    floor(N/2)-site subsets (at even N only those holding site 1), M the
    amplitudes with the subset's axes first, so a smaller subset S is
    reached only from S plus the smallest sites not in S: C(N, h) Gram
    products (half at even N) and sum_{1 <= j < h} C(N, j) traced operators
    in O(2^N) memory, in ``_ROOT_STACK_BYTES`` stacks.  Schmidt symmetry
    fills in the complements.
    """
    n = state.n_qubits
    check_qubit_capacity(n, cap)
    if isinstance(state, DensityOperator):
        pairs = state.matrix.reshape((2,) * 2 * n).transpose([a for s in range(n) for a in (s, n + s)])
        weights = site_map(np.ascontiguousarray(pairs).view(float).reshape(4**n, 2), _PAULI_WEIGHTS)
        values = site_map(np.square(weights, out=weights).sum(axis=1), _PURITY_FROM_SQUARES)
        values[0] = 1.0  # the empty subset is the sentinel, not the squared trace
        return SubsetPurityMap(n, values)
    values = np.zeros(2**n)
    values[0] = 1.0
    # below[path:][c] is values[full - path - c]: for c a root's complement mask and
    # path some sites the root holds, the mask of the root less those sites
    below = values[::-1]

    def visit(mats: np.ndarray, comps: np.ndarray, path: int, reach: Sequence[int], start: int, depth: int) -> None:
        # mats[r] is root r less ``depth`` sites, all traced at root positions below
        # start + depth, so position j in [start, stop_r - depth) holds axis j + depth;
        # reach[s] is how many roots, a prefix of the stack, have stop_r > s
        flat = mats.reshape(len(mats), -1)
        below[path:][comps] = np.vecdot(flat, flat).real
        for j in range(start, len(reach) - depth if mats.shape[-1] > 2 else 0):
            k = reach[j + depth]
            visit(trace_site(mats[:k], j), comps[:k], path | (1 << (n - 1 - depth - j)), reach, j, depth + 1)

    psi = state.amplitudes.reshape((2,) * n)
    stacks = _pure_roots(n)
    d, e = 2 ** (n // 2), 2 ** (n - n // 2)
    # one buffer for every stack in turn: its amplitude copies (m[r] the amplitudes with
    # root r's sites first), their conjugates and the Gram matrices, so that no stack
    # allocates (and page-faults) memory of its own
    work = np.empty(len(stacks[0][0]) * (2 * d * e + d * d) if stacks else 0, dtype=complex)
    for perms, comps, reach in stacks:
        k, size = len(perms), len(perms) * d * e
        m = work[:size].reshape(k, *psi.shape)
        for r, perm in enumerate(perms):
            m[r] = psi.transpose(perm)
        m = m.reshape(k, d, e)
        mc = np.conjugate(m, out=work[size : 2 * size].reshape(k, d, e))
        gram = np.matmul(m, mc.mT, out=work[2 * size : 2 * size + k * d * d].reshape(k, d, d))
        visit(gram, comps, 0, reach, 0, 0)
    # entries still 0 are complements of set ones; below[m] is values[full ^ m]
    return SubsetPurityMap(n, np.where(values, values, below))


@functools.lru_cache(maxsize=PLAN_SIZES_KEPT)
def _pure_roots(n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], np.ndarray, tuple[int, ...]], ...]:
    """The Gram roots of a pure state on ``n`` sites, built once per ``n``,
    sorted by ``stop``, largest first, in stacks of ``_ROOT_STACK_BYTES``
    (each root takes its amplitude copy, that copy's conjugate and its Gram
    matrix).  Each stack holds its roots' axis permutations (a root's
    h = floor(n/2) sites first), their complement masks as a read-only
    array, and ``reach``: ``reach[s]`` counts the roots with ``stop`` > s,
    ``stop`` being the position of a root's first missing site (the top bit
    of its complement mask)."""
    h, full = n // 2, 2**n - 1
    roots = sorted(
        (
            (kept + tuple(a for a in range(n) if a not in kept), comp, n - comp.bit_length())
            for kept in itertools.combinations(range(n), h)
            if h and not (2 * h == n and kept[0])
            for comp in [full ^ sum(1 << (n - 1 - a) for a in kept)]
        ),
        key=lambda root: -root[2],
    )
    per_stack = max(1, _ROOT_STACK_BYTES // (np.dtype(complex).itemsize * (2 * 2**n + 4**h)))
    stacks = []
    for first in range(0, len(roots), per_stack):
        perms, comps, stops = zip(*roots[first : first + per_stack])
        comps = np.array(comps)
        comps.flags.writeable = False
        stacks.append((perms, comps, tuple(sum(stop > s for stop in stops) for s in range(stops[0]))))
    return tuple(stacks)


@dataclass(frozen=True, eq=False)
class ChainLinks:
    """The links of a list of strictly nested chains, flattened for one gather.

    ``chains[c]`` is chain c's subsets as site masks, largest first; its
    links are ``larger[k] > smaller[k]`` for ``k`` in
    ``offsets[c]:offsets[c + 1]``.  The arrays are read-only.
    """

    chains: tuple[tuple[int, ...], ...]
    larger: np.ndarray
    smaller: np.ndarray
    offsets: np.ndarray

    def violations(self, purities: SubsetPurityMap) -> np.ndarray:
        """purity(larger) - purity(smaller) of every link, in link order."""
        return purities.values[self.larger] - purities.values[self.smaller]


def chain_links(chains, n_sites: int) -> ChainLinks:
    """Check and flatten ``chains``, each an iterable of subsets (site
    labels) from largest to smallest.

    The nesting rule: a chain has at least two subsets, and each is a strict
    subset of its predecessor (``ValueError`` otherwise, as for any label
    ``qstate.site_mask`` rejects).  Each subset's labels are converted to
    its site mask once.
    """
    masks, larger, smaller, offsets = [], [], [], [0]
    for chain in chains:
        subsets = list(chain)
        chain_masks = tuple(site_mask(s, n_sites) for s in subsets)
        if len(chain_masks) < 2:
            raise ValueError("a chain needs at least two subsets")
        for (big, big_labels), (small, small_labels) in itertools.pairwise(zip(chain_masks, subsets)):
            if small & ~big or small == big:
                raise ValueError(f"chain not strictly nested: {small_labels} is not a strict subset of {big_labels}")
            larger.append(big)
            smaller.append(small)
        masks.append(chain_masks)
        offsets.append(len(larger))
    arrays = [np.array(a, dtype=np.intp) for a in (larger, smaller, offsets)]
    for a in arrays:
        a.flags.writeable = False
    return ChainLinks(tuple(masks), *arrays)


def maximal_chains(n_sites: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every maximal nested chain {1..N} > ... > {i}, one per removal order:
    each subset is its predecessor with the order's next site filtered out."""
    full = tuple(range(1, n_sites + 1))
    return [
        tuple(itertools.accumulate(order, lambda kept, site: tuple([s for s in kept if s != site]), initial=full))
        for order in itertools.permutations(full, n_sites - 1)
    ]


def left_to_right_chain(n_sites: int) -> tuple[tuple[int, ...], ...]:
    """{1..N} > {1..N-1} > ... > {1}."""
    return tuple(tuple(range(1, k + 1)) for k in range(n_sites, 0, -1))


def fig2a_violations(phi, family: str = "collision") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns V1, V2, V3 of the three-site product-to-cluster family.

    V1 = tr rho_123^2 - tr rho_12^2, V2 = tr rho_12^2 - tr rho_1^2 and
    V3 = tr rho_12^2 - tr rho_2^2, each an array of ``phi``'s shape.
    ``family`` names the interpolating state in ``states.PHASE_FAMILIES``:
    "collision" (default) is the state generated by nearest-neighbour
    controlled-phase dynamics, which separates the edge and middle
    reductions (V3 > 0 away from the endpoints); "superposition" is the
    idealized two-term formula, whose proper reductions all share one
    purity, leaving V2 = V3 = 0 identically.  Both give V1 = 0 at phi = 0 and V1 = 1/2 at phi = pi.

    All phases are one array pass, without a state object or purity table
    per phase.  The site purities come from the Gram matrices M M^dag, M the
    amplitudes with the site's axis first, as in :func:`all_subset_purities`;
    every state is pure, so tr rho_123^2 = 1 and tr rho_12^2 = tr rho_3^2.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    amps = phase_family_amplitudes(family, 3, phi)
    check_normalized(amps)
    psi = amps.reshape(phi.shape + (2, 2, 2))
    p1, p2, p3 = (
        np.sum(np.abs(m @ m.conj().swapaxes(-1, -2)) ** 2, axis=(-2, -1))
        for site in range(3)
        for m in [np.moveaxis(psi, site - 3, -3).reshape(phi.shape + (2, 4))]
    )
    return 1 - p3, p3 - p1, p3 - p2


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def correlation_matrix(rho: DensityOperator) -> np.ndarray:
    """3x3 Pauli correlation matrix T_ij = tr(rho sigma_i x sigma_j)."""
    if rho.n_qubits != 2:
        raise ValueError("correlation matrix is defined for exactly 2 qubits")
    T = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            T[i, j] = np.trace(rho.matrix @ np.kron(_PAULI[i], _PAULI[j])).real
    return T


def chsh_max(rho: DensityOperator) -> float:
    """Maximal CHSH expectation over all measurement settings.

    2 sqrt(m1 + m2) with m1 >= m2 the two largest eigenvalues of T^T T,
    T the Pauli correlation matrix.  Closed form, deterministic; bounded
    by 2 sqrt(2).
    """
    T = correlation_matrix(rho)
    eigs = np.sort(np.linalg.eigvalsh(T.T @ T))
    return float(2 * math.sqrt(max(0.0, eigs[-1] + eigs[-2])))


def chsh_threshold_phi(family: str = "superposition", lo: float = 1e-4, hi: float = math.pi / 2) -> float:
    """Smallest phi at which the two-site family's chsh_max exceeds 2.

    Bisects chsh_max(state(phi)) - 2 on [lo, hi].  Returns ``lo`` itself
    when the family already violates CHSH at ``lo``.  For both two-site
    families that holds at every lo in (0, 2 pi): their concurrence is
    |sin(phi/2)|, and every entangled pure two-qubit state beats the
    classical bound under optimal settings, so the threshold collapses to
    the lower edge rather than any interior value.  Raises ValueError when
    nothing in [lo, hi] violates.
    """

    def gap(phi: float) -> float:
        return chsh_max(PureState(2, phase_family_amplitudes(family, 2, phi)).to_density()) - 2.0

    if gap(lo) > 0:
        return lo
    if gap(hi) <= 0:
        raise ValueError(f"no CHSH violation up to phi = {hi}")
    for _ in range(80):
        mid = (lo + hi) / 2
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2
