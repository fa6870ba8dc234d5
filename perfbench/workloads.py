"""Seeded operation lists for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng([seed, pass_no])``
here, in the benchmark, and reaches the program only as CLI arguments, spec
files or a density matrix.  Each pass of a run draws fresh inputs, so that
a cache keyed by input gains nothing a fresh CLI process would not; only
the parameter-free items (GHZ specs, the cluster state at even N, the
fig2a/fig2b sweeps) repeat.  One pass runs its item list once, in order,
one item at a time (a closed loop with a single caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("cluster_family", "cat", "ghz", "product")

#: Passes a run always makes.
MIN_PASSES = {"probe_scaling": 1, "artifacts": 10, "lattice_two_column": 10}

#: Points per fig2a/fig2b sweep (odd, so phi = pi is on the fig2a grid).
SWEEP_POINTS = 201
CAT_ATOMS = 300
CAT_RUNS = 1000


@dataclass(frozen=True, eq=False)
class Item:
    """One operation: a CLI command, or one lattice pipeline item.

    ``params`` holds the seeded inputs; ``state`` the benchmark's own copy
    of the state the item describes (amplitudes if ``pure``, else a
    density matrix), used only for reference values.
    """

    kind: str
    size: int
    params: dict = field(default_factory=dict)
    state: np.ndarray | None = None
    pure: bool = False

    def key(self):
        """Plain-data view, for comparing generated inputs."""
        state = None if self.state is None else self.state.tobytes()
        return (self.kind, self.size, repr(sorted(self.params.items())), state, self.pure)


def _bloch(theta: float, azim: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), np.exp(1j * azim) * math.sin(theta / 2)])


def _kron_power(v: np.ndarray, n: int) -> np.ndarray:
    out = v
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out


def adjacent_pairs(n: int) -> np.ndarray:
    """Number of adjacent 11 pairs in each basis state of ``n`` sites."""
    x = np.arange(2**n)
    return np.array([bin(v).count("1") for v in (x & (x >> 1))])


def cluster_amplitudes(n: int) -> np.ndarray:
    """(-1)^(number of adjacent 11 pairs) / 2^(n/2)."""
    return (-1.0) ** adjacent_pairs(n) / math.sqrt(2**n)


def cluster_family_amplitudes(n: int, phi: float) -> np.ndarray:
    """Normalized u|0...0> + v|C_n>, u, v = (1 +- e^(i phi))/2."""
    u, v = (1 + np.exp(1j * phi)) / 2, (1 - np.exp(1j * phi)) / 2
    amps = v * cluster_amplitudes(n).astype(complex)
    amps[0] += u
    return amps / np.linalg.norm(amps)


def probe_item(family: str, n: int, rng: np.random.Generator) -> Item:
    """A pure ``probe`` spec of the given family and size."""
    if family == "ghz":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        return Item("probe", n, {"family": family, "spec": f"statespec v1\nkind = ghz\nn = {n}\n"}, amps, True)
    if family == "cluster_family":
        # even N uses phi = pi, the cluster state, whose purities have a closed form
        phi = math.pi if n % 2 == 0 else float(rng.uniform(0.1, 2 * math.pi - 0.1))
        spec = f"statespec v1\nkind = cluster_family\nn = {n}\nphi = {phi!r}\n"
        return Item("probe", n, {"family": family, "phi": phi, "spec": spec}, cluster_family_amplitudes(n, phi), True)
    if family == "product":
        angles = [(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))) for _ in range(n)]
        amps = np.array([1.0 + 0j])
        for theta, azim in angles:
            amps = np.kron(amps, _bloch(theta, azim))
        qubits = "; ".join(f"{t!r},{a!r}" for t, a in angles)
        spec = f"statespec v1\nkind = product\nqubits = {qubits}\n"
        return Item("probe", n, {"family": family, "spec": spec}, amps, True)
    if family == "cat":
        while True:
            b1 = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            b2 = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            amps = _kron_power(_bloch(*b1), n) + _kron_power(_bloch(*b2), n)
            if np.linalg.norm(amps) ** 2 > 0.5:  # branches far from cancelling
                break
        spec = (
            f"statespec v1\nkind = cat\nn = {n}\n"
            f"phi1 = {b1[0]!r},{b1[1]!r}\nphi2 = {b2[0]!r},{b2[1]!r}\n"
        )
        return Item("probe", n, {"family": family, "spec": spec}, amps / np.linalg.norm(amps), True)
    raise ValueError(f"unknown family {family!r}")


def shuffled(items: list[Item], rng: np.random.Generator) -> list[Item]:
    """Seeded order, so that the items of one size spread over the pass."""
    return [items[i] for i in rng.permutation(len(items))]


def random_density_matrix(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    d = 2**n
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


def raw_matrix_item(n: int, rng: np.random.Generator) -> Item:
    """A mixed ``raw`` spec: a seeded density matrix of rank 2..6."""
    rho = random_density_matrix(n, int(rng.integers(2, 7)), rng)
    rows = "; ".join(" ".join(repr(complex(z)) for z in row) for row in rho)
    spec = f"statespec v1\nkind = raw\nmatrix = {rows}\n"
    return Item("probe", n, {"family": "raw", "spec": spec}, rho, False)


def probe_scaling(rng: np.random.Generator) -> list[Item]:
    """probe at N = 4..10 and mixed raw-matrix specs at N = 4..7: the 8^N
    subset-purity table takes ~95% of the time; mixed specs defeat a
    pure-state shortcut"""
    items = []
    for n in range(4, 9):
        items += [probe_item(f, n, rng) for f in 6 * FAMILIES]
    # The seed picks two families at N = 9 and one at N = 10, where a single
    # probe takes ~10 s.
    items += [probe_item(str(f), 9, rng) for f in rng.choice(FAMILIES, 2, replace=False)]
    items.append(probe_item(str(rng.choice(FAMILIES)), 10, rng))
    for n in range(4, 8):
        items += [raw_matrix_item(n, rng) for _ in range(6)]
    return shuffled(items, rng)


def validate_item(rng: np.random.Generator) -> Item:
    params = {
        "J": float(rng.uniform(0.5, 2.0)),
        "U": float(rng.uniform(0.0, 0.5)),
        "seed": int(rng.integers(0, 2**31)),
    }
    return Item("lattice-validate", 1, params)


def artifacts(rng: np.random.Generator) -> list[Item]:
    """scaled-up run_artifacts.py: thousands of small calls where per-call
    overhead dominates, so a large-N optimisation that costs small inputs
    shows"""
    items = [
        Item("fig2a", SWEEP_POINTS, {"family": "collision"}),
        Item("fig2a", SWEEP_POINTS, {"family": "superposition"}),
        Item("fig2b", SWEEP_POINTS, {"n": CAT_ATOMS, "m": (1, 7, 14, 20)}),
    ]
    items += [probe_item(f, n, rng) for n in range(2, 6) for f in FAMILIES]
    items.append(validate_item(rng))
    # Twelve cat-experiments make, with the two fig2a sweeps, the slowest
    # class of 14 operations, so the tail percentile falls inside it.
    n_cat = 12
    for k in range(n_cat):
        # one epsilon per stratum of [0.1, 0.9]
        params = {
            "epsilon": 0.1 + 0.8 * (k + float(rng.uniform())) / n_cat,
            "survival": float(rng.uniform(0.90, 0.99)),
            "seed": int(rng.integers(0, 2**31)),
        }
        items.append(Item("cat-experiment", CAT_ATOMS, params))
    return shuffled(items, rng)


def lattice_two_column(rng: np.random.Generator) -> list[Item]:
    """lattice-validate and the two-copy pipeline at 2 columns: the dense
    Fock basis and eigh do the work; no purity table runs"""
    # 30 operations, so that the tail percentile has ten beyond it
    items = [validate_item(rng) for _ in range(6)]
    for rank in (1, 2, 3, 4) * 6:
        rho = random_density_matrix(2, rank, rng)
        items.append(Item("pipeline", 2, {"J": float(rng.uniform(0.5, 2.0)), "rank": rank}, rho, False))
    return shuffled(items, rng)


BUILDERS = {
    "probe_scaling": probe_scaling,
    "artifacts": artifacts,
    "lattice_two_column": lattice_two_column,
}

#: Why each workload exists: its builder's docstring, also the ``why`` of
#: BENCHMARK.json.
WHY = {name: " ".join(build.__doc__.split()) for name, build in BUILDERS.items()}


def generate(workload: str, seed: int, pass_no: int) -> list[Item]:
    """The item list of one pass; the same seed and pass give the same items.
    Pass 0 is the untimed warm-up."""
    return BUILDERS[workload](np.random.default_rng([seed, pass_no]))


def warmup_items(items: list[Item]) -> list[Item]:
    """The items but the probes above N = 7, run once before timing."""
    return [it for it in items if not (it.kind == "probe" and it.size > 7)]
