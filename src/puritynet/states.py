"""Benchmark entangled states and the closed-form cat-state purity.

Provides open-chain linear cluster states, the two interpolating families
between a product state and the cluster state (the idealized two-term
superposition and the state that nearest-neighbour controlled-phase
dynamics actually generates), GHZ states, and macroscopic-superposition
(cat) states together with the closed-form purity of their reductions and
its inversion back to the distinctness parameter epsilon.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import PureState, check_qubit_capacity, product_amplitudes


class InversionError(ValueError):
    """A measured purity cannot be inverted to a distinctness parameter."""


def _adjacent_pairs(n: int) -> np.ndarray:
    """Adjacent 11 pairs of each basis index: popcount(x & (x >> 1))."""
    x = np.arange(2**n)
    pairs = x & (x >> 1)
    return sum((pairs >> k) & 1 for k in range(n - 1))


def linear_cluster(n: int, cap: int | None = None) -> PureState:
    """Open-chain 1D cluster state: CZ between neighbours on |+>^n.

    Amplitudes are 2^(-n/2) * (-1)^(sum_j x_j x_{j+1}).
    """
    if n < 2:
        raise ValueError("cluster states need at least 2 sites")
    check_qubit_capacity(n, cap)
    amps = 1.0 - 2.0 * (_adjacent_pairs(n) & 1)
    return PureState(n, amps / math.sqrt(2**n))


def cluster_family_amplitudes(n: int, phi, cap: int | None = None) -> np.ndarray:
    """Two-term superposition (1+e^{i phi})/2 |0..0> + (1-e^{i phi})/2 |cluster>.

    ``phi`` may be an array: the result has shape ``phi.shape + (2**n,)``,
    one amplitude vector per phase.  phi = 0 gives exactly |0..0>, phi = pi
    exactly the cluster state.  Each vector is renormalized, although the
    two-term form is already exactly normalized for every (n, phi): the
    cross term (1+e^{-i phi})(1-e^{i phi})/4 is purely imaginary while
    <0..0|cluster> is real, so the overlap contributes nothing to the norm.
    The site count is checked against the qubit cap before anything is built.
    """
    e = np.exp(1j * np.asarray(phi, dtype=float))[..., None]
    amps = (1 - e) / 2 * linear_cluster(n, cap).amplitudes
    amps[..., 0] += (1 + e[..., 0]) / 2
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def cluster_family_state(n: int, phi: float, cap: int | None = None) -> PureState:
    """The state of :func:`cluster_family_amplitudes` at one phase, which
    must be finite."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    return PureState(n, cluster_family_amplitudes(n, phi, cap))


def collision_phase_amplitudes(n: int, phi) -> np.ndarray:
    """State generated by nearest-neighbour controlled-phase dynamics.

    Applies the diagonal phase e^{i phi * (number of adjacent 11 pairs)} to
    the uniform superposition |+>^n.  At phi = 0 this is the product state
    |+>^n, at phi = pi exactly the linear cluster state; in between it is
    the partially entangled state that controlled-interaction dynamics
    produce on a chain.  ``phi`` may be an array: the result has shape
    ``phi.shape + (2**n,)``, one amplitude vector per phase.

    This differs from :func:`cluster_family_amplitudes` for n >= 3: the
    two-term superposition keeps only the parity of the adjacent-pair count,
    which changes the purity profile of its reductions (all proper-subset
    purities of the superposition family coincide, so only the full-vs-pair
    violation is visible there).
    """
    if n < 2:
        raise ValueError("need at least 2 sites")
    check_qubit_capacity(n)
    return np.exp(1j * np.asarray(phi, dtype=float)[..., None] * _adjacent_pairs(n)) / math.sqrt(2**n)


def collision_phase_state(n: int, phi: float) -> PureState:
    """The state of :func:`collision_phase_amplitudes` at one phase."""
    return PureState(n, collision_phase_amplitudes(n, phi))


def ghz(n: int, cap: int | None = None) -> PureState:
    """(|0..0> + |1..1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ states need at least 2 sites")
    check_qubit_capacity(n, cap)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return PureState(n, amps)


def cat_state(n: int, phi1: PureState, phi2: PureState, cap: int | None = None) -> tuple[PureState, float]:
    """Superposition (|phi1>^n + |phi2>^n)/sqrt(K) of two product branches,
    and its distinctness epsilon = sqrt(1 - |<phi1|phi2>|^2).

    K = 2 + 2 Re(<phi1|phi2>^n) is exactly the squared norm of the branch
    sum, so dividing by sqrt(K) normalizes.  Raises ValueError when the
    branches cancel (K ~ 0, e.g. antipodal branches at odd n).
    """
    if n < 2:
        raise ValueError("cat states need at least 2 sites")
    if phi1.n_qubits != 1 or phi2.n_qubits != 1:
        raise ValueError("branch states must be single-qubit")
    check_qubit_capacity(n, cap)

    overlap = complex(np.vdot(phi1.amplitudes, phi2.amplitudes))
    K = float(2 + 2 * (overlap**n).real)
    if K <= 1e-12:
        raise ValueError(f"degenerate superposition: branch sum has squared norm {K:.3e}")

    amps = (product_amplitudes([phi1.amplitudes] * n) + product_amplitudes([phi2.amplitudes] * n)) / math.sqrt(K)

    epsilon = math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))
    return PureState(n, amps / np.linalg.norm(amps)), epsilon


def _cat_purity(n, m, gamma: float) -> float:
    half = gamma ** (n / 2)
    return (1 + gamma**m + gamma**n + 4 * half + gamma ** (n - m)) / (2 * (1 + half) ** 2)


def _cat_purity_and_slope(n, m, gamma: float) -> tuple[float, float]:
    """The closed-form cat purity and gamma dPi/dgamma, which has no negative power, so is finite on [0, 1]."""
    value, half = _cat_purity(n, m, gamma), gamma ** (n / 2)
    gamma_dnum = m * gamma**m + n * gamma**n + 2 * n * half + (n - m) * gamma ** (n - m)
    return value, gamma_dnum / (2 * (1 + half) ** 2) - value * n * half / (1 + half)


def cat_purity_closed_form(n: int, m: int, gamma: float) -> float:
    """Purity of the cat state reduced by m of its n subsystems.

    (1 + gamma^m + gamma^n + 4 gamma^{n/2} + gamma^{n-m}) /
    (2 (1 + gamma^{n/2})^2),  gamma = |<phi1|phi2>|^2.

    Exact for real nonnegative branch overlap, where gamma^{n/2} equals the
    overlap to the n-th power; for complex overlaps use a brute-force
    reduction of the constructed state instead.  Identities: 1 at m = 0 for
    every gamma, and 1/2 at gamma = 0 for 0 < m < n.
    """
    if not 0 <= m <= n:
        raise ValueError(f"m must be in 0..{n}, got {m}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return _cat_purity(n, m, gamma)


def estimate_epsilon(purity_measured: float, n_sites: int, n_lost: float) -> float:
    """Invert the closed-form purity to the distinctness parameter epsilon.

    Finds the gamma in [0, 1] with cat_purity_closed_form(n_sites, n_lost,
    gamma) = purity_measured and returns sqrt(1 - gamma); n_lost may be
    fractional, e.g. a mean over runs.  For 0 < n_lost < n_sites the purity
    rises strictly from exactly 1/2 at gamma = 0 to exactly 1 at gamma = 1.
    A safeguarded Newton solve starts at the leading-term root
    (2 Pi - 1)^(1/n_lost), keeps the bracket [lo, hi] that each residual's
    sign gives and bisects when a step would leave it.  It stops at an exact
    zero, at a step of at most 4 ulps of gamma or a bracket 1e-10 wide, and
    after 64 evaluations at most.  Purities at or past 1/2 and 1 give exactly 1 and 0.

    A float64 purity determines epsilon only to spacing(Pi) / |dPi/deps|,
    however fine the solve: that is below 1e-6 while gamma^n >= 1e-12
    (README bound) and grows to ~3e-4 at epsilon = 0.9, n = 20, where Pi
    sits within ~2e-15 of 1/2.

    Raises :class:`InversionError` when the reduction count carries no
    information (n_lost <= 0: the purity is identically 1) or the measured
    purity falls outside the achievable band [1/2, 1].
    """
    if not 0 < n_lost < n_sites:
        raise InversionError(
            f"reduction count n={n_lost} outside (0, {n_sites}): the purity of a "
            "cat state reduced by 0 subsystems is 1 for every epsilon, so no "
            "inversion is possible"
        )
    lo_val, hi_val, slack = 0.5, 1.0, 1e-9
    if not lo_val - slack <= purity_measured <= hi_val + slack:
        raise InversionError(
            f"purity {purity_measured} outside the achievable band "
            f"[{lo_val}, {hi_val}] for N={n_sites}, n={n_lost}"
        )

    lo, hi = 0.0, 1.0
    gamma = min(1.0, max(0.0, 2 * purity_measured - 1)) ** (1 / n_lost)
    for _ in range(64):
        value, gamma_slope = _cat_purity_and_slope(n_sites, n_lost, gamma)
        if value < purity_measured:
            lo = gamma
        elif value > purity_measured:
            hi = gamma
        else:
            break
        step = gamma * (value - purity_measured) / gamma_slope if gamma_slope > 0 else math.inf
        if abs(step) <= 4 * math.ulp(gamma) or hi - lo <= 1e-10:
            break
        gamma = gamma - step if lo < gamma - step < hi else (lo + hi) / 2
    return math.sqrt(1.0 - gamma)
