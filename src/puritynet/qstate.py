"""Dense linear algebra for finite-dimensional quantum states.

Construction, reduction and purity of qubit density operators.
Sites are labelled 1..N and map big-endian onto the amplitude index: site 1
is the most significant bit of the computational-basis index, so |x1 x2 x3>
has index x1*4 + x2*2 + x3 for three qubits.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest total system size (in qubits) that dense operations accept by
#: default.  A 14-qubit density operator is a 16384 x 16384 complex matrix
#: (~4 GiB); beyond that dense storage stops being sensible.
DEFAULT_QUBIT_CAP = 14

#: Tolerances for the structural invariants of a density operator.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
#: Eigenvalue floor for the positivity check.  Repeated partial traces
#: accumulate rounding, so exact nonnegativity is too strict.
EIGENVALUE_FLOOR = -1e-10


class CapacityError(ValueError):
    """Requested system size exceeds the configured dense-storage cap."""


def check_qubit_capacity(n_qubits: int, cap: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``n_qubits`` exceeds the cap."""
    cap = DEFAULT_QUBIT_CAP if cap is None else cap
    if n_qubits > cap:
        raise CapacityError(
            f"{n_qubits} qubits (dimension 2^{n_qubits}) exceeds the cap of "
            f"{cap} qubits; raise the cap explicitly if this is intended"
        )


def subset_index(members, n_sites: int) -> tuple[int, ...]:
    """Normalize a collection of site labels to a sorted tuple.

    Labels are 1-based.  Duplicates, out-of-range labels and (by default)
    empty collections are rejected; the empty tuple is reserved as the
    full-trace sentinel and is produced only by code that means it.
    """
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate site labels in {members}")
    if not members:
        raise ValueError("empty subset (the full trace is not a reduction)")
    if members[0] < 1 or members[-1] > n_sites:
        raise ValueError(f"site labels {members} outside 1..{n_sites}")
    return members


def site_mask(members, n_sites: int) -> int:
    """Bitmask of a nonempty site set: site i sets bit ``n_sites - i``.

    Site 1 is the most significant bit, as in the amplitude index.  The
    subset-purity and sign-probability tables are arrays indexed by it.
    """
    return sum(1 << (n_sites - s) for s in subset_index(members, n_sites))


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of ``n_qubits`` qubits.

    Attributes
    ----------
    n_qubits : int
        Number of sites.
    amplitudes : np.ndarray
        Complex vector of length ``2**n_qubits`` with unit norm.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector of shape {amps.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state vector has non-finite amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector not normalized: |norm-1| = {abs(norm-1):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex)
        n = int(round(np.log2(amps.size)))
        if 2**n != amps.size:
            raise ValueError(f"amplitude vector length {amps.size} is not a power of two")
        return cls(n, amps)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace operator on ``n_qubits`` qubits.

    Hermiticity and trace are checked on construction (O(dim^2)); the
    positivity of the spectrum is an invariant preserved by the operations
    in this module and is verified on demand by :func:`validate`, since an
    eigendecomposition on every construction would dominate run time.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix of shape {mat.shape} does not match {self.n_qubits} qubits")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityOperator":
        d = 2**n_qubits
        return cls(n_qubits, np.eye(d, dtype=complex) / d)


def trace_site(matrix: np.ndarray, position: int) -> np.ndarray:
    """Trace one site out of a 2^k x 2^k operator on k sites.

    ``position`` is the 0-based place of the site in the operator's own
    big-endian order.  Viewed as an (a, 2, b, a, 2, b) tensor with
    a = 2^position, the reduced operator is the sum of the two diagonal
    blocks of the traced axis pair; it acts on the other k - 1 sites in
    their order.
    """
    a = 2**position
    b = matrix.shape[0] // (2 * a)
    t = matrix.reshape(a, 2, b, a, 2, b)
    return (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]).reshape(a * b, a * b)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduce ``rho`` to the sites in ``keep``, tracing out the rest.

    Parameters
    ----------
    rho : DensityOperator
    keep : collection of int
        Nonempty set of 1-based site labels to retain.  The reduced
        operator acts on those sites in ascending label order.
    """
    keep = subset_index(keep, rho.n_qubits)
    reduced = rho.matrix
    # Highest site first: the sites below it keep their positions.
    for site in range(rho.n_qubits, 0, -1):
        if site not in keep:
            reduced = trace_site(reduced, site - 1)
    # Re-symmetrize: tracing can leave ~1e-16 Hermiticity dust.
    reduced = (reduced + reduced.conj().T) / 2
    return DensityOperator(len(keep), reduced)


def purity(rho: DensityOperator) -> float:
    """tr(rho^2), computed as the squared Frobenius norm.

    For Hermitian rho, tr(rho^2) = sum_ij |rho_ij|^2, which avoids the
    O(dim^3) matrix product.  Hermiticity is guaranteed by the
    DensityOperator invariant.
    """
    return float(np.vdot(rho.matrix, rho.matrix).real)


@dataclass(frozen=True)
class ValidationReport:
    """Deviations of a matrix from the density-operator invariants."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] |rho-rho^dag|_max = {self.hermiticity_deviation:.3e}, "
            f"|tr-1| = {self.trace_deviation:.3e}, "
            f"min eigenvalue = {self.min_eigenvalue:.3e}"
        )


def validate(matrix) -> ValidationReport:
    """Full diagnostic check of a candidate density matrix.

    Accepts a raw matrix or a DensityOperator and reports the Hermiticity
    deviation, trace deviation and minimum eigenvalue, with pass/fail
    against the module tolerances.  Never raises on bad input.
    """
    mat = matrix.matrix if isinstance(matrix, DensityOperator) else np.asarray(matrix, dtype=complex)
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    tr = float(abs(mat.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
    passed = herm <= HERMITICITY_ATOL and tr <= TRACE_ATOL and min_eig >= EIGENVALUE_FLOOR
    return ValidationReport(herm, tr, min_eig, passed)


def random_state(n_qubits: int, rank: int, seed: int) -> DensityOperator:
    """Seeded random density operator of the given rank.

    rank 1 yields a Haar-random pure state; rank r > 1 traces a Haar-random
    pure state on system x (r-dimensional ancilla) over the ancilla, the
    standard construction for rank-controlled mixed states.  Output is
    bitwise reproducible for a fixed seed.
    """
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


def random_pure_state(n_qubits: int, seed: int) -> PureState:
    """Seeded Haar-random pure state vector."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return PureState(n_qubits, amps / np.linalg.norm(amps))
