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
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .qstate import DensityOperator, purity, site_mask
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
