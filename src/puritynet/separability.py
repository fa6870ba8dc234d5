"""Purity-chain separability tests and the CHSH comparison benchmark.

Every separable state satisfies tr(rho_full^2) <= tr(rho_T^2) for each of
its reductions rho_T, so a drop in purity along any nested chain of
subsets certifies entanglement.  This module evaluates those chains over
precomputed subset-purity tables and provides the maximal two-qubit CHSH
expectation (correlation-matrix criterion) as the conventional benchmark
to compare detection power against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .qstate import DensityOperator, check_qubit_capacity, site_mask, subset_index, trace_site
from .states import ClusterFamilySpec, cluster_family_state, collision_phase_state

#: Purity differences below this are numerical noise, not violations.
#: Purities carry ~1e-12 arithmetic error; a factor-1000 margin.
VIOLATION_THRESHOLD = 1e-9


@dataclass(frozen=True, eq=False)
class SubsetPurityMap:
    """Purities tr(rho_T^2) for every subset T of {1..N}, as one array.

    ``values[mask]`` is the purity of the subset whose sites are the set
    bits of ``mask``, site i at bit N - i (site 1 is the most significant
    bit, as in the amplitude index of ``qstate``).  ``values[0]`` is the
    empty subset, the sentinel 1 (the trace itself).  The constructor also
    accepts a mapping from site tuples to purities over all 2^N - 1
    nonempty subsets and converts it once.  Construction checks that the
    lattice is complete, not that the values are physical: the sign
    transform in ``bs_network`` must also round-trip unphysical tables.
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
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
        """All nonempty subsets in (size, lexicographic) order."""
        sites = range(1, self.n_sites + 1)
        return [s for k in range(1, self.n_sites + 1) for s in itertools.combinations(sites, k)]


def all_subset_purities(rho: DensityOperator, cap: int | None = None) -> SubsetPurityMap:
    """Purity of every reduction of ``rho``, including the full set.

    Visits the subsets depth first: each reduced operator is traced from
    its parent's by one more site, taken only at or after the position of
    the site its parent removed, so every subset is reached exactly once.
    That costs about 4 * 5^N operations in all, against 8^N for tracing each
    subset from the full matrix, and keeps O(4^N) memory live.
    """
    n = rho.n_qubits
    check_qubit_capacity(n, cap)
    values = np.ones(2**n)

    def visit(mat: np.ndarray, k: int, mask: int, start: int) -> None:
        # mat is the reduced operator on the k sites of ``mask``.  Every site
        # removed so far precedes position ``start``, so position j >= start
        # holds site N - k + j + 1, whose mask bit is 2^(k - 1 - j).
        values[mask] = np.vdot(mat, mat).real
        for j in range(start, k if k > 1 else 0):
            visit(trace_site(mat, j), k - 1, mask & ~(1 << (k - 1 - j)), j)

    visit(rho.matrix, n, 2**n - 1, 0)
    return SubsetPurityMap(n, values)


@dataclass(frozen=True)
class ChainLink:
    larger: tuple[int, ...]
    smaller: tuple[int, ...]
    violation: float  # purity(larger) - purity(smaller)


@dataclass(frozen=True)
class ChainReport:
    """Purity differences along one nested chain of subsets."""

    chain: tuple[tuple[int, ...], ...]
    links: tuple[ChainLink, ...]
    threshold: float = VIOLATION_THRESHOLD
    violations: tuple[ChainLink, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "violations", tuple(l for l in self.links if l.violation > self.threshold)
        )

    @property
    def entangled(self) -> bool:
        return bool(self.violations)

    @property
    def max_violation(self) -> float:
        return max((l.violation for l in self.links), default=0.0)


def check_chain(purities: SubsetPurityMap, chain, threshold: float = VIOLATION_THRESHOLD) -> ChainReport:
    """Evaluate the purity inequality along a strictly nested chain.

    ``chain`` lists subsets from largest to smallest; each must be a strict
    subset of its predecessor.  A separable state never produces a link
    with purity(larger) > purity(smaller) beyond numerical noise, so any
    link above ``threshold`` flags entanglement.
    """
    norm_chain = [subset_index(s, purities.n_sites) for s in chain]
    if len(norm_chain) < 2:
        raise ValueError("a chain needs at least two subsets")
    for big, small in zip(norm_chain, norm_chain[1:]):
        if not (set(small) < set(big)):
            raise ValueError(f"chain not strictly nested: {small} is not a strict subset of {big}")
    links = tuple(
        ChainLink(big, small, purities.purity(big) - purities.purity(small))
        for big, small in zip(norm_chain, norm_chain[1:])
    )
    return ChainReport(tuple(norm_chain), links, threshold)


def maximal_chains(n_sites: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every maximal nested chain {1..N} > ... > {i}, one per removal order."""
    full = tuple(range(1, n_sites + 1))
    chains = []
    for order in itertools.permutations(full, n_sites - 1):
        chain = [full]
        current = set(full)
        for site in order:
            current = current - {site}
            chain.append(tuple(sorted(current)))
        chains.append(tuple(chain))
    return chains


def left_to_right_chain(n_sites: int) -> tuple[tuple[int, ...], ...]:
    """{1..N} > {1..N-1} > ... > {1}."""
    return tuple(tuple(range(1, k + 1)) for k in range(n_sites, 0, -1))


@dataclass(frozen=True)
class ViolationCurvePoint:
    """The three purity differences plotted for the three-site family."""

    phi: float
    v1: float  # purity(123) - purity(12)
    v2: float  # purity(12)  - purity(1)
    v3: float  # purity(12)  - purity(2)


def fig2a_violations(phi: float, n_sites: int = 3, family: str = "collision") -> ViolationCurvePoint:
    """V1, V2, V3 of the three-site product-to-cluster family at phase phi.

    ``family`` selects the interpolating state: "collision" (default) uses
    the state generated by nearest-neighbour controlled-phase dynamics,
    which separates the edge and middle reductions (V3 > 0 away from the
    endpoints); "superposition" uses the idealized two-term formula, whose
    proper reductions all share one purity, leaving V2 = V3 = 0
    identically.  Both give V1 = 0 at phi = 0 and V1 = 1/2 at phi = pi.
    """
    if n_sites != 3:
        raise ValueError("the three-curve layout is defined for exactly 3 sites")
    if family == "collision":
        psi = collision_phase_state(3, phi)
    elif family == "superposition":
        psi = cluster_family_state(ClusterFamilySpec(3, phi))
    else:
        raise ValueError(f"unknown family {family!r}; use 'collision' or 'superposition'")
    purities = all_subset_purities(psi.to_density())
    p123 = purities.purity((1, 2, 3))
    p12 = purities.purity((1, 2))
    return ViolationCurvePoint(
        phi=phi,
        v1=p123 - p12,
        v2=p12 - purities.purity((1,)),
        v3=p12 - purities.purity((2,)),
    )


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
        if family == "superposition":
            psi = cluster_family_state(ClusterFamilySpec(2, phi))
        elif family == "collision":
            psi = collision_phase_state(2, phi)
        else:
            raise ValueError(f"unknown family {family!r}")
        return chsh_max(psi.to_density()) - 2.0

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
