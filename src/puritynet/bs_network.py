"""Two-copy pairwise beam-splitter measurement statistics.

A 50/50 beam splitter on two identical bosons projects their pair state
onto the symmetric or antisymmetric subspace: both bosons exit in one
spatial mode (symmetric, "+") or one per mode (antisymmetric, "-").  On
two copies rho x rho of an N-site state, correlating the +/- outcomes of
all N splitters yields 2^N joint probabilities

    P_s = 2^{-N} sum_{T subseteq {1..N}} (prod_{i in T} s_i) tr(rho_T^2),

a sign-weighted subset sum over the reduction purities (empty subset term
1).  Both tables are indexed by the same site bitmask, and the sum
factorizes over sites: the table is the purity table under one 2x2 map
per site, 1/2 [[1, 1], [1, -1]] (a Walsh-Hadamard transform scaled by
2^{-N}).  Its inverse is twice the map, so the purities are recovered
exactly from the probabilities.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .qstate import site_map, site_mask
from .separability import SubsetPurityMap, freeze_values

#: How far from 1 a probability table may sum and still be inverted.
NORM_ATOL = 1e-8

#: Sign convention: "+" is the symmetric projector (I + V)/2, whose
#: expectation on rho x rho is (1 + tr rho^2)/2.  The per-site maps of the
#: sign transform take a site's purity factors (1, tr rho_i^2) to its "+"
#: and "-" probabilities, and back.
SIGNS_FROM_PURITIES = np.array([[0.5, 0.5], [0.5, -0.5]])
PURITIES_FROM_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
SIGNS_FROM_PURITIES.flags.writeable = PURITIES_FROM_SIGNS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class JointSignProbabilityTable:
    """Probabilities of the 2^N joint +/- outcomes, as one array.

    ``values[mask]`` is the probability of the sign vector whose "-" sites
    are the set bits of ``mask``, site i at bit N - i (site 1 is the most
    significant bit), so site N varies fastest and "+" comes before "-".
    The constructor also accepts a mapping from sign tuples to
    probabilities over all 2^N sign vectors and converts it once.  Every
    entry must be finite; the total is checked only by the inversion.
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
        freeze_values(self, values)

    def _mask(self, signs) -> int:
        signs = tuple(signs)
        if len(signs) != self.n_sites or any(s not in (-1, +1) for s in signs):
            raise ValueError(f"bad sign vector {signs}")
        minus = [i for i, s in enumerate(signs, start=1) if s == -1]
        return site_mask(minus, self.n_sites) if minus else 0

    def total(self) -> float:
        """Sum of the entries; inf or NaN when finite entries overflow it."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.values.sum())


def sign_probabilities_from_purities(purities: SubsetPurityMap) -> JointSignProbabilityTable:
    """Forward sign transform: purity table -> joint outcome probabilities.

    Accepts any SubsetPurityMap, physical or not; the involution with
    :func:`purities_from_probabilities` holds regardless.  The transform is
    one ``qstate.site_map`` pass over the purity array.
    """
    return JointSignProbabilityTable(purities.n_sites, site_map(purities.values, SIGNS_FROM_PURITIES))


def purities_from_probabilities(table: JointSignProbabilityTable) -> SubsetPurityMap:
    """Invert the joint probability table back to subset purities.

    purity(rho_T) = sum_s (prod_{i in T} s_i) P_s; the transform is its own
    inverse up to normalization.  Rejects tables whose entries do not sum
    to 1 within ``NORM_ATOL``, reporting the deficit.
    """
    total = table.total()
    if not abs(total - 1.0) <= NORM_ATOL:  # a NaN total fails too
        raise ValueError(
            f"probability table sums to {total!r}, deficit {1.0 - total:+.3e} "
            f"exceeds tolerance {NORM_ATOL}"
        )
    back = site_map(table.values, PURITIES_FROM_SIGNS)
    back[0] = 1.0  # the empty subset is the sentinel, not the measured total
    return SubsetPurityMap(table.n_sites, back)
