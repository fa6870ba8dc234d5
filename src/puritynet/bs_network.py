"""Two-copy pairwise beam-splitter measurement statistics.

A 50/50 beam splitter on two identical bosons projects their pair state
onto the symmetric or antisymmetric subspace: both bosons exit in one
spatial mode (symmetric, "+") or one per mode (antisymmetric, "-").  On
two copies rho x rho of an N-site state, correlating the +/- outcomes of
all N splitters yields 2^N joint probabilities

    P_s = 2^{-N} sum_{T subseteq {1..N}} (prod_{i in T} s_i) tr(rho_T^2),

a sign-weighted subset sum over the reduction purities (empty subset term
1).  This is a Walsh-Hadamard transform of the purity table, and the
transform is its own inverse up to 2^{-N}, so the purities are recovered
exactly from the probabilities.

Two computation paths are kept deliberately: the transform fast path, and
an explicit two-copy projector construction (dimension 4^N) that validates
the algebra for small N.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .qstate import CapacityError, DensityOperator, check_qubit_capacity, purity, site_mask
from .separability import SubsetPurityMap, all_subset_purities

#: Sign convention: "+" is the symmetric projector (I + V)/2, whose
#: expectation on rho x rho is (1 + tr rho^2)/2.


def sign_vectors(n_sites: int) -> list[tuple[int, ...]]:
    """All sign vectors in a fixed order: site N varies fastest, + before -."""
    return list(itertools.product((+1, -1), repeat=n_sites))


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (Sylvester order).

    out[j] = sum_k (-1)^{popcount(j & k)} values[k]; self-inverse up to the
    factor len(values).  Viewed as a (2,)*N tensor, the transform is a
    two-point butterfly (a, b) -> (a + b, a - b) along each axis in turn.
    """
    out = np.array(values, dtype=float)
    if out.ndim != 1 or out.size < 1 or out.size & (out.size - 1):
        raise ValueError("length must be a power of two")
    t = out.reshape((2,) * (out.size.bit_length() - 1))
    for axis in range(t.ndim):
        pair = np.moveaxis(t, axis, 0)  # a view: writes land in ``out``
        pair[0], pair[1] = pair[0] + pair[1], pair[0] - pair[1]
    return out


@dataclass(frozen=True, eq=False)
class JointSignProbabilityTable:
    """Probabilities of the 2^N joint +/- outcomes, as one array.

    ``values[mask]`` is the probability of the sign vector whose "-" sites
    are the set bits of ``mask``, site i at bit N - i (site 1 is the most
    significant bit), so the array runs in :func:`sign_vectors` order.
    The constructor also accepts a mapping from sign tuples to
    probabilities over all 2^N sign vectors and converts it once.
    """

    n_sites: int
    values: np.ndarray

    def __post_init__(self):
        n = self.n_sites
        if isinstance(self.values, Mapping):
            # distinct valid sign tuples have distinct masks
            if len(self.values) != 2**n:
                raise ValueError(f"need all {2**n} sign vectors, got {len(self.values)}")
            values = np.empty(2**n)
            values[[self._mask(signs) for signs in self.values]] = list(self.values.values())
        else:
            values = np.array(self.values, dtype=float)
            if values.shape != (2**n,):
                raise ValueError(f"need an array of {2**n} probabilities, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _mask(self, signs) -> int:
        signs = tuple(signs)
        if len(signs) != self.n_sites or any(s not in (-1, +1) for s in signs):
            raise ValueError(f"bad sign vector {signs}")
        minus = [i for i, s in enumerate(signs, start=1) if s == -1]
        return site_mask(minus, self.n_sites) if minus else 0

    def probability(self, signs) -> float:
        return float(self.values[self._mask(signs)])

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class PairProjectionProbabilities:
    p_plus: float
    p_minus: float


def pair_projection_probabilities(rho_j: DensityOperator) -> PairProjectionProbabilities:
    """Symmetric/antisymmetric projection probabilities for one site pair.

    P_+/- = (1 +/- tr(rho_j^2)) / 2 on the two-copy state rho_j x rho_j.
    Identical pure bosons never antisymmetrize (P_- = 0); the maximally
    mixed qubit gives P_- = 1/4.
    """
    if rho_j.n_qubits != 1:
        raise ValueError("expected a single-qubit state")
    p = purity(rho_j)
    return PairProjectionProbabilities((1 + p) / 2, (1 - p) / 2)


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


def sign_probabilities_from_purities(purities: SubsetPurityMap) -> JointSignProbabilityTable:
    """Forward sign transform: purity table -> joint outcome probabilities.

    Accepts any SubsetPurityMap, physical or not; the involution with
    :func:`purities_from_probabilities` holds regardless.  Both tables are
    indexed by the same site bitmask, so the transform is one
    Walsh-Hadamard pass over the purity array.
    """
    n = purities.n_sites
    return JointSignProbabilityTable(n, walsh_hadamard(purities.values) / 2**n)


def joint_sign_probabilities(rho: DensityOperator, cap: int | None = None) -> JointSignProbabilityTable:
    """Joint +/- outcome probabilities of the N-splitter network on rho x rho."""
    check_qubit_capacity(rho.n_qubits, cap)
    return sign_probabilities_from_purities(all_subset_purities(rho, cap=cap))


def purities_from_probabilities(table: JointSignProbabilityTable, norm_atol: float = 1e-8) -> SubsetPurityMap:
    """Invert the joint probability table back to subset purities.

    purity(rho_T) = sum_s (prod_{i in T} s_i) P_s; the transform is its own
    inverse up to normalization.  Rejects tables whose entries do not sum
    to 1 within ``norm_atol``, reporting the deficit.
    """
    total = table.total()
    if abs(total - 1.0) > norm_atol:
        raise ValueError(
            f"probability table sums to {total!r}, deficit {1.0 - total:+.3e} "
            f"exceeds tolerance {norm_atol}"
        )
    back = walsh_hadamard(table.values)
    back[0] = 1.0  # the empty subset is the sentinel, not the measured total
    return SubsetPurityMap(table.n_sites, back)


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
    prod_i (I + s_i V_i)/2 and returns its expectation.  Kept dense in
    dimension 4^N, so limited to small N; exists purely to cross-validate
    the transform fast path.
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
