"""Correctness gate for every benchmark operation.

Reference values come from the benchmark's own copy of each input state
and from the independent oracles in ``tests/conftest.py``, imported (not
copied) from the checkout.  A check returns ``None`` when the output is
correct and a one-line reason otherwise; the runner counts every reason
as a failed operation.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import adjacent_pairs, cluster_family_amplitudes

ROOT = Path(__file__).resolve().parent.parent

#: Subset purities against the elementwise oracle, and report identities.
PURITY_ATOL = 1e-10
#: Sign-table normalization and purity round trip.
TABLE_ATOL = 1e-9
#: Lattice occupancy against (1 - tr rho_j^2)/2, and lattice-validate fields.
LATTICE_ATOL = 1e-9
#: README: the noiseless inversion round trip holds to 1e-6 while
#: gamma^n >= 1e-12.
INVERSION_ATOL = 1e-6
INVERSION_GAMMA_POW = 1e-12
#: Largest N whose subset purities are checked against the oracle.
ORACLE_MAX_N = 5


@functools.cache
def oracles():
    """The elementwise oracles of ``tests/conftest.py``."""
    spec = importlib.util.spec_from_file_location("puritynet_test_oracles", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# parsing


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity tokens the stdlib accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            raise ValueError(f"bad CSV row {row}")
    return header, rows


# ---------------------------------------------------------------------------
# reference values


def subset_keys(n: int) -> list[tuple[int, ...]]:
    sites = range(1, n + 1)
    return [s for k in range(1, n + 1) for s in itertools.combinations(sites, k)]


def _key(subset) -> str:
    return ",".join(str(s) for s in subset)


def _density(item) -> np.ndarray:
    return np.outer(item.state, item.state.conj()) if item.pure else item.state


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def cluster_purity(n: int, subset) -> float:
    """Linear cluster state: tr rho_T^2 = 2^-rank_GF2(Gamma[T, T^c])."""
    rest = [j for j in range(1, n + 1) if j not in subset]
    rows = [sum(1 << k for k, j in enumerate(rest) if abs(i - j) == 1) for i in subset]
    return 2.0 ** -_gf2_rank(rows)


def closed_form_purities(item) -> dict[str, float] | None:
    n, family = item.size, item.params["family"]
    if family == "ghz":
        return {_key(s): 1.0 if len(s) == n else 0.5 for s in subset_keys(n)}
    if family == "product":
        return {_key(s): 1.0 for s in subset_keys(n)}
    if family == "cluster_family" and item.params["phi"] == math.pi:
        return {_key(s): cluster_purity(n, s) for s in subset_keys(n)}
    return None


def reference(item) -> dict:
    """Reference data for one item, computed once before timing."""
    ref: dict = {}
    if item.kind == "probe":
        n = item.size
        if n <= ORACLE_MAX_N:
            mat = _density(item)
            ref["oracle"] = {_key(s): oracles().ref_subset_purity(mat, n, s) for s in subset_keys(n)}
        ref["closed"] = closed_form_purities(item)
        if ref["closed"] is not None:
            # GHZ and cluster states lose purity under reduction; products do not
            ref["verdict"] = "no_violation" if item.params["family"] == "product" else "entangled_detected"
    elif item.kind == "fig2a":
        ref["rows"] = fig2a_reference(item.params["family"], item.size)
    elif item.kind == "cat-experiment":
        p = item.params
        q = 1.0 - p["survival"]
        # loss counts beyond mean + 10 sigma have probability < 1e-20
        n_hi = math.ceil(item.size * q + 10 * math.sqrt(item.size * q * (1 - q)))
        gamma = 1.0 - p["epsilon"] ** 2
        ref["bound_applies"] = gamma**n_hi >= INVERSION_GAMMA_POW
    elif item.kind == "pipeline":
        ref["p_minus"] = [(1 - oracles().ref_subset_purity(item.state, 2, [j])) / 2 for j in (1, 2)]
    return ref


@functools.cache
def fig2a_reference(family: str, points: int) -> list[tuple[float, float, float, float]]:
    """(phi, V1, V2, V3) from the oracle on the benchmark's own 3-site states."""
    pairs = adjacent_pairs(3)
    rows = []
    for phi in np.linspace(0.0, 2 * math.pi, points):
        if family == "collision":
            amps = np.exp(1j * phi * pairs) / math.sqrt(8)
        else:
            amps = cluster_family_amplitudes(3, phi)
        mat = np.outer(amps, amps.conj())
        p = {s: oracles().ref_subset_purity(mat, 3, s) for s in ((1, 2, 3), (1, 2), (1,), (2,))}
        rows.append((float(phi), p[1, 2, 3] - p[1, 2], p[1, 2] - p[1,], p[1, 2] - p[2,]))
    return rows


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= atol


def check_probe(report: dict, item, ref: dict, package) -> str | None:
    n = item.size
    purities = report["purities"]
    keys = [_key(s) for s in subset_keys(n)]
    if sorted(purities) != sorted(keys):
        return "purity table does not list every nonempty subset"
    if not all(type(purities[k]) in (int, float) for k in keys):
        return "purity is not a number"
    signs = report["sign_probabilities"]
    if len(signs) != 2**n:
        return f"sign table has {len(signs)} entries, expected {2**n}"
    total = math.fsum(signs.values())
    if not _close(total, 1.0, TABLE_ATOL):
        return f"sign table sums to {total!r}"
    table = package.bs_network.JointSignProbabilityTable(
        n, {tuple(1 if c == "+" else -1 for c in k): p for k, p in signs.items()}
    )
    back = package.bs_network.purities_from_probabilities(table)
    for s in subset_keys(n):
        if not _close(back.purity(s), purities[_key(s)], TABLE_ATOL):
            return f"sign table does not round-trip at subset {_key(s)}"
    for name in ("oracle", "closed"):
        expected = ref.get(name)
        for k, v in (expected or {}).items():
            if not _close(purities[k], v, PURITY_ATOL):
                return f"purity of {k} is {purities[k]!r}, {name} gives {v!r}"
    if item.pure:
        full = _key(range(1, n + 1))
        if not _close(purities[full], 1.0, PURITY_ATOL):
            return f"pure state has full purity {purities[full]!r}"
        for s in subset_keys(n)[:-1]:
            comp = _key(j for j in range(1, n + 1) if j not in s)
            if not _close(purities[_key(s)], purities[comp], PURITY_ATOL):
                return f"pure state: purity of {_key(s)} differs from its complement {comp}"
    if ref.get("verdict") and report["verdict"] != ref["verdict"]:
        return f"verdict {report['verdict']!r}, expected {ref['verdict']!r}"
    return None


def check_fig2a(text: str, item, ref: dict) -> str | None:
    header, rows = parse_csv(text)
    if header != ["phi", "V1", "V2", "V3"] or len(rows) != item.size:
        return "fig2a CSV has the wrong header or row count"
    for got, want in zip(rows, ref["rows"]):
        if not all(_close(g, w, PURITY_ATOL) for g, w in zip(got, want)):
            return f"fig2a row {got} differs from oracle {want}"
    return None


def check_fig2b(text: str, item, ref: dict) -> str | None:
    header, rows = parse_csv(text)
    m = item.params["m"]
    if header != ["epsilon"] + [f"Pi_m{k}" for k in m] or len(rows) != item.size:
        return "fig2b CSV has the wrong header or row count"
    cols = list(zip(*rows))[1:]
    for col in cols:
        if not (_close(col[0], 1.0, PURITY_ATOL) and _close(col[-1], 0.5, PURITY_ATOL)):
            return "fig2b purity is not 1 at epsilon 0 and 1/2 at epsilon 1"
        if any(b > a + PURITY_ATOL for a, b in zip(col, col[1:])):
            return "fig2b purity increases with epsilon"
    return None


def check_cat(report: dict, item, ref: dict) -> str | None:
    p = item.params
    if report["informative_runs"] + report["uninformative_runs"] != report["params"]["runs"]:
        return "informative and uninformative runs do not add up"
    est = report["epsilon_estimated"]
    if not 0.0 <= est <= 1.0:
        return f"epsilon estimate {est!r} outside [0, 1]"
    if not _close(report["abs_error"], abs(est - p["epsilon"]), 1e-15):
        return "abs_error does not match the estimate"
    if ref["bound_applies"] and report["abs_error"] > INVERSION_ATOL:
        return f"abs_error {report['abs_error']!r} above {INVERSION_ATOL} where gamma^n >= 1e-12"
    return None


def check_validate(report: dict, item, ref: dict) -> str | None:
    hom = report["hom"]
    if not (_close(hom["identical_pair_p_diff"], 0.0, LATTICE_ATOL) and _close(hom["singlet_p_diff"], 1.0, LATTICE_ATOL)):
        return f"two-boson interference off: {hom}"
    if not all(ph["passed"] for ph in report["interaction_phase"]):
        return "interaction phase check failed"
    if report["end_to_end_max_error"] > LATTICE_ATOL:
        return f"end-to-end error {report['end_to_end_max_error']!r}"
    if not _close(report["uj_sweep"][0]["min_fidelity"], 1.0, LATTICE_ATOL):
        return "splitter fidelity at U = 0 is not 1"
    bs = report["bs_check"]["min_fidelity"]
    if not (0.0 <= bs <= 1.0 + LATTICE_ATOL) or (item.params["U"] == 0.0 and not _close(bs, 1.0, LATTICE_ATOL)):
        return f"splitter fidelity {bs!r} out of range"
    return None


def check_pipeline(p_minus: list[float], item, ref: dict) -> str | None:
    for j, (got, want) in enumerate(zip(p_minus, ref["p_minus"]), start=1):
        if not _close(got, want, LATTICE_ATOL):
            return f"column {j}: P_diff {got!r}, expected (1 - tr rho_j^2)/2 = {want!r}"
    return None


def check_output(item, text: str, ref: dict, package) -> str | None:
    """Parse one CLI output strictly and check it against the reference."""
    if item.kind == "fig2a":
        return check_fig2a(text, item, ref)
    if item.kind == "fig2b":
        return check_fig2b(text, item, ref)
    report = strict_json(text)
    if item.kind == "probe":
        return check_probe(report, item, ref, package)
    if item.kind == "cat-experiment":
        return check_cat(report, item, ref)
    return check_validate(report, item, ref)
