"""Dense linear algebra for finite-dimensional quantum states.

Construction and reduction of qubit density operators.
Sites are labelled 1..N and map big-endian onto the amplitude index: site 1
is the most significant bit of the computational-basis index, so |x1 x2 x3>
has index x1*4 + x2*2 + x3 for three qubits.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: Largest total system size (in qubits) that dense operations accept by
#: default.  A 14-qubit density operator is a 16384 x 16384 complex matrix
#: (~4 GiB), which only mixed input (a raw matrix) ever builds; beyond that
#: dense storage stops being sensible.  A pure state keeps its 2^N
#: amplitudes (256 KiB at 14 qubits), and there the cap bounds run time:
#: its subset-purity table grows about 3.5x per qubit, to about 0.6 s at 14
#: on a shared 2-vCPU VM, nearly all of it in the Gram products.
DEFAULT_QUBIT_CAP = 14

#: Tolerances for the structural invariants of a density operator.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12


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


def site_mask(members, n_sites: int) -> int:
    """Bitmask of 1-based site labels: site i sets bit ``n_sites - i``.

    Site 1 is the most significant bit, as in the amplitude index; the
    subset-purity and sign-probability tables are arrays indexed by it.
    This is the one check of site labels: duplicates, out-of-range labels
    and the empty set (the full trace is not a reduction) raise ValueError.
    """
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate site labels in {members}")
    if not members:
        raise ValueError("empty subset (the full trace is not a reduction)")
    if members[0] < 1 or members[-1] > n_sites:
        raise ValueError(f"site labels {members} outside 1..{n_sites}")
    return sum(1 << (n_sites - s) for s in members)


def check_normalized(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every amplitude vector (last axis) is finite
    and has unit norm to 1e-12: a :class:`PureState`'s conditions, for one
    vector or a stack of them.  A norm past float64, or a non-finite
    amplitude, fails without a warning."""
    if amplitudes.ndim == 1:
        # one vector: its squared norm is one dot product
        deviation = abs(math.sqrt(np.vdot(amplitudes, amplitudes).real) - 1.0)
        normalized = deviation <= 1e-12
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = abs(np.linalg.norm(amplitudes, axis=-1) - 1.0)
        normalized = (deviation <= 1e-12).all()
    # a non-finite amplitude gives a NaN or inf deviation, which fails above
    if not normalized:
        if not np.isfinite(amplitudes).all():
            raise ValueError("state vector has non-finite amplitudes")
        raise ValueError(f"state vector not normalized: |norm-1| = {np.max(deviation):.3e}")


def product_amplitudes(factors) -> np.ndarray:
    """Chained ``np.kron`` of the 1-D ``factors``, bit for bit (the first is
    most significant): their raveled outer product, one factor at a time."""
    return functools.reduce(lambda amps, factor: np.outer(amps, factor).ravel(), factors)


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
        check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


def check_density(matrices: np.ndarray) -> None:
    """Raise ValueError unless every matrix (last two axes) is finite,
    Hermitian to ``HERMITICITY_ATOL`` and of unit trace to ``TRACE_ATOL``:
    a :class:`DensityOperator`'s conditions, for one matrix or a stack of
    them.  A failure names the largest deviation of the stack."""
    if not np.isfinite(matrices).all():
        raise ValueError("matrix has non-finite entries")
    herm = np.max(np.abs(matrices - np.swapaxes(matrices.conj(), -1, -2)))
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    trace_error = np.max(np.abs(np.trace(matrices, axis1=-2, axis2=-1) - 1.0))
    if trace_error > TRACE_ATOL:
        raise ValueError(f"trace deviates from 1 by {trace_error:.3e}")


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace operator on ``n_qubits`` qubits.

    Hermiticity and trace are checked on construction (O(dim^2)); the
    positivity of the spectrum is not, since an eigendecomposition on every
    construction would dominate run time.  :func:`random_states` builds
    positive matrices by construction, and the ``raw`` spec parser checks
    a matrix it is given against an eigenvalue floor of -1e-8: one Cholesky
    factorization, with the spectrum computed only when that fails.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix of shape {mat.shape} does not match {self.n_qubits} qubits")
        check_density(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def trace_site(matrix: np.ndarray, position: int) -> np.ndarray:
    """Trace one site out of a 2^k x 2^k operator on k sites, or out of
    each operator of a (..., 2^k, 2^k) stack.

    ``position`` is the 0-based place of the site in the operator's own
    big-endian order.  Viewed as an (a, 2, b, a, 2, b) tensor with
    a = 2^position, the reduced operator is the sum of the two diagonal
    blocks of the traced axis pair; it acts on the other k - 1 sites in
    their order.  Each operator of a stack is reduced as it would be alone,
    bit for bit.
    """
    a = 2**position
    b = matrix.shape[-1] // (2 * a)
    t = matrix.reshape(-1, a, 2, b, a, 2, b)
    return (t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]).reshape(matrix.shape[:-2] + (a * b, a * b))


def random_states(n_qubits: int, ranks, seeds) -> np.ndarray:
    """Seeded random density matrices of the given ranks, one for each pair
    of ``ranks`` and ``seeds``, as one checked (K, 2^n, 2^n) stack;
    bitwise reproducible for fixed seeds.

    Rank 1 is a Haar-random pure state, rank r a Haar-random pure state on
    the system and an r-dimensional ancilla with the ancilla traced out.
    Each state is drawn from its own ``default_rng(seed)`` (real parts
    before imaginary ones), one after the other; its draws fill the first
    ``rank`` columns of a (2^n, max rank) block whose other columns stay
    zero.  The normalization, Gram product, symmetrization, trace division
    and the :class:`DensityOperator` checks then run once over the stack.
    """
    dim = 2**n_qubits
    ranks = list(ranks)
    for rank in ranks:
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    block = np.zeros((len(ranks), dim, max(ranks)), dtype=complex)
    for k, (rank, seed) in enumerate(zip(ranks, seeds, strict=True)):
        rng = np.random.default_rng(seed)
        block.real[k, :, :rank] = rng.standard_normal((dim, rank))
        block.imag[k, :, :rank] = rng.standard_normal((dim, rank))
    block /= np.linalg.norm(block, axis=(1, 2), keepdims=True)
    mat = block @ block.conj().transpose(0, 2, 1)
    mat = (mat + mat.conj().transpose(0, 2, 1)) / 2
    mat /= np.trace(mat, axis1=1, axis2=2).real[:, None, None]
    check_density(mat)
    return mat

