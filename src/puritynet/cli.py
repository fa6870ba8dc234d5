"""Command-line front end: figure data, detection runs, lattice validation.

Subcommands
-----------
probe             run the purity-chain detection pipeline on a state spec
fig2a             violation curves of the three-site family (CSV)
fig2b             reduced cat-state purity vs distinctness (CSV)
lattice-validate  splitter timing, interaction phase and end-to-end checks
cat-experiment    Monte-Carlo distinctness estimation under particle loss

All output is deterministic for fixed flags and seed: floats are written
with 17 significant digits and key order is fixed, so reruns are
byte-identical.  Exit codes: 0 success, 2 usage or spec parse error,
3 capacity exceeded, 4 inversion not possible, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bs_network import pair_projection_probabilities, sign_probabilities_from_purities, sign_vectors
from .lattice import (
    FockState,
    LatticeParams,
    build_fock_basis,
    build_hamiltonians,
    embed_two_copies,
    hopping_bs_check,
    interaction_phase_check,
    occupancy_probabilities,
    propagator,
    sample_loss,
    standard_test_states,
)
from .qstate import CapacityError, DensityOperator, PureState, check_qubit_capacity, random_state, validate
from .separability import (
    VIOLATION_THRESHOLD,
    all_subset_purities,
    check_chain,
    fig2a_violations,
    left_to_right_chain,
    maximal_chains,
)
from .states import InversionError, ClusterFamilySpec, cat_purity_closed_form, cat_state, cluster_family_state, estimate_epsilon, ghz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INVERSION = 4
EXIT_IO = 5

SPEC_HEADER = "statespec v1"

#: Accepted range of ``lattice-validate --j`` and of ``|--u|``.  Past it
#: float64 overflows: t_bs = pi/(4J) for J below ~1e-308, the hopping
#: energies for J near 1e308, and the phase U t_bs as U/J nears 1e308.
#: Inside it every energy and phase stays below 1e200.
COUPLING_MIN, COUPLING_MAX = 1e-100, 1e100

#: The fields each state kind takes besides ``kind``; any other is an error.
SPEC_FIELDS = {
    "cluster_family": {"n", "phi"},
    "ghz": {"n"},
    "cat": {"n", "phi1", "phi2"},
    "product": {"qubits"},
    "raw": {"amplitudes", "matrix"},
}


class SpecParseError(ValueError):
    """A state spec file or string could not be parsed."""


# ---------------------------------------------------------------------------
# deterministic serialization


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be written to a report")
    return format(float(x), ".17g")


def json_text(obj, indent: int = 0) -> str:
    """Minimal JSON writer with 17-significant-digit floats.

    The stdlib encoder offers no hook for float formatting, and shortest
    round-trip reprs are not what the byte-identity contract asks for.
    Raises ValueError on NaN or infinity, which JSON cannot represent.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON.  The text is rendered before the file is
    opened, so a value that cannot be written leaves no file behind."""
    text = json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a CSV table, rendered in full before the file is opened."""
    lines = [",".join(header)]
    lines += [",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# state-spec grammar


def _parse_bloch(text: str) -> PureState:
    try:
        theta, azim = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecParseError(f"Bloch angles must be 'theta,azimuth', got {text!r}") from exc
    if not (math.isfinite(theta) and math.isfinite(azim)):
        raise SpecParseError(f"Bloch angles must be finite, got {text!r}")
    return PureState.from_amplitudes(
        [math.cos(theta / 2), np.exp(1j * azim) * math.sin(theta / 2)]
    )


def _parse_complex_list(text: str) -> np.ndarray:
    items = text.replace(",", " ").split()
    try:
        values = np.array([complex(v) for v in items])
    except ValueError as exc:
        raise SpecParseError(f"bad complex literal in {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise SpecParseError(f"non-finite complex literal in {text!r}")
    return values


def _raw_qubits(dim: int, cap: int | None) -> int:
    """Site count of a raw state of dimension ``dim``, checked against the cap."""
    n = dim.bit_length() - 1
    if dim != 2**n:
        raise SpecParseError(f"raw state dimension {dim} is not a power of two")
    if n < 1:
        raise SpecParseError("raw state has dimension 1; a state needs at least one site")
    check_qubit_capacity(n, cap)
    return n


def parse_state_spec(text: str, source: str = "inline", cap: int | None = None) -> tuple[DensityOperator, dict]:
    """Parse the key-value state grammar into a density operator.

    Format: a ``statespec v1`` header line, then ``key = value`` lines;
    ``#`` starts a comment.  Each key may appear once, and only the keys
    of ``SPEC_FIELDS`` for the given kind are accepted.  The site count of
    every kind is checked against the qubit cap (default
    ``DEFAULT_QUBIT_CAP``) before the state is built.  Returns the state
    and an echo dict for reports.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != SPEC_HEADER:
        raise SpecParseError(f"first line must be {SPEC_HEADER!r}")
    fields: dict[str, str] = {}
    for ln_no, ln in enumerate(lines[1:], start=2):
        if "=" not in ln:
            raise SpecParseError(f"line {ln_no}: expected 'key = value', got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key in fields:
            raise SpecParseError(f"line {ln_no}: duplicate key {key!r}")
        fields[key] = value

    kind = fields.get("kind")
    if kind is None:
        raise SpecParseError("missing 'kind' field")
    if kind not in SPEC_FIELDS:
        raise SpecParseError(f"unknown kind {kind!r}; expected one of {', '.join(SPEC_FIELDS)}")
    unknown = sorted(set(fields) - SPEC_FIELDS[kind] - {"kind"})
    if unknown:
        raise SpecParseError(f"kind {kind!r} does not take field(s) {', '.join(map(repr, unknown))}")
    echo = {"source": source, "kind": kind}

    def need(key: str, convert=str):
        if key not in fields:
            raise SpecParseError(f"kind {kind!r} requires field {key!r}")
        try:
            return convert(fields[key])
        except ValueError as exc:
            raise SpecParseError(f"field {key!r} is not a valid {convert.__name__}: {fields[key]!r}") from exc

    if kind == "ghz":
        state = ghz(need("n", int), cap).to_density()
    elif kind == "cluster_family":
        n, phi = need("n", int), need("phi", float)
        state = cluster_family_state(ClusterFamilySpec(n, phi), cap).to_density()
        echo["phi"] = phi
    elif kind == "cat":
        n = need("n", int)
        psi, cat = cat_state(n, _parse_bloch(need("phi1")), _parse_bloch(need("phi2")), cap)
        state = psi.to_density()
        echo["epsilon"] = cat.epsilon
    elif kind == "product":
        qubits = [q.strip() for q in need("qubits").split(";") if q.strip()]
        if not qubits:
            raise SpecParseError("product state needs at least one qubit")
        check_qubit_capacity(len(qubits), cap)
        amps = _parse_bloch(qubits[0]).amplitudes
        for q in qubits[1:]:
            amps = np.kron(amps, _parse_bloch(q).amplitudes)
        state = PureState.from_amplitudes(amps).to_density()
    else:  # raw
        if "amplitudes" in fields and "matrix" in fields:
            raise SpecParseError("kind 'raw' takes 'amplitudes' or 'matrix', not both")
        if "amplitudes" in fields:
            amps = _parse_complex_list(fields["amplitudes"])
            n = _raw_qubits(amps.size, cap)
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > 1e-6:
                raise SpecParseError(f"raw amplitudes have norm {norm!r}, more than 1e-6 from 1")
            state = PureState(n, amps / norm).to_density()
        elif "matrix" in fields:
            rows = [_parse_complex_list(r) for r in fields["matrix"].split(";")]
            mat = np.array(rows)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise SpecParseError(f"raw matrix is not square: shape {mat.shape}")
            n = _raw_qubits(mat.shape[0], cap)
            tr = mat.trace()
            if abs(tr - 1.0) > 1e-6:
                raise SpecParseError(f"raw matrix trace {tr!r} more than 1e-6 from 1")
            mat = mat / tr
            mat = (mat + mat.conj().T) / 2
            report = validate(mat)
            if report.min_eigenvalue < -1e-8:
                raise SpecParseError(
                    f"raw matrix has negative eigenvalue {report.min_eigenvalue!r}"
                )
            state = DensityOperator(n, mat)
        else:
            raise SpecParseError("kind 'raw' requires 'amplitudes' or 'matrix'")
    echo["n_sites"] = state.n_qubits
    return state, echo


def parse_chains(text: str, n_sites: int) -> list[tuple[tuple[int, ...], ...]]:
    """Chains like '1,2,3>1,2>1;1,2>2': ';' chains, '>' subsets, ',' sites."""
    chains = []
    for chain_text in text.split(";"):
        subsets = []
        for subset_text in chain_text.split(">"):
            try:
                subsets.append(tuple(sorted(int(s) for s in subset_text.split(","))))
            except ValueError as exc:
                raise SpecParseError(f"bad subset {subset_text!r} in chain spec") from exc
        chains.append(tuple(subsets))
    return chains


# ---------------------------------------------------------------------------
# report rendering helpers


def _subset_key(subset) -> str:
    return ",".join(str(s) for s in subset)


def _sign_key(signs) -> str:
    return "".join("+" if s == 1 else "-" for s in signs)


def _chain_report_dict(report) -> dict:
    return {
        "chain": [_subset_key(s) for s in report.chain],
        "links": [
            {
                "larger": _subset_key(l.larger),
                "smaller": _subset_key(l.smaller),
                "violation": l.violation,
            }
            for l in report.links
        ],
        "violations": [
            {"larger": _subset_key(l.larger), "smaller": _subset_key(l.smaller), "violation": l.violation}
            for l in report.violations
        ],
        "entangled": report.entangled,
    }


# ---------------------------------------------------------------------------
# commands


def run_probe(args) -> int:
    if not math.isfinite(args.threshold):
        raise SpecParseError(f"--threshold must be finite, got {args.threshold}")
    if args.spec_text is not None:
        text, source = args.spec_text, "inline"
    else:
        with open(args.spec) as fh:
            text = fh.read()
        source = args.spec
    rho, echo = parse_state_spec(text, source, cap=args.qubit_cap)
    n = rho.n_qubits

    purities = all_subset_purities(rho, cap=args.qubit_cap)
    if args.chains:
        chains = parse_chains(args.chains, n)
    elif n == 1:
        chains = []
    elif n <= 4:
        chains = maximal_chains(n)
    else:
        chains = [left_to_right_chain(n)]
    reports = [check_chain(purities, chain, threshold=args.threshold) for chain in chains]
    table = sign_probabilities_from_purities(purities)

    entangled = any(r.entangled for r in reports)
    report = {
        "tool": "puritynet",
        "version": __version__,
        "input": {**echo, "text": text},
        "seed": None,
        "threshold": args.threshold,
        "purities": {_subset_key(s): purities.purity(s) for s in purities.subsets()},
        "sign_probabilities": {_sign_key(s): p for s, p in zip(sign_vectors(n), table.values.tolist())},
        "chains": [_chain_report_dict(r) for r in reports],
        "max_violation": max((r.max_violation for r in reports), default=0.0),
        "verdict": "entangled_detected" if entangled else "no_violation",
    }
    write_json(args.out, report)
    return EXIT_OK


def _require_points(args) -> None:
    if args.points < 1:
        raise SpecParseError(f"--points must be at least 1, got {args.points}")


def run_fig2a(args) -> int:
    if args.n != 3:
        raise SpecParseError("the three-curve violation sweep is defined for --n 3")
    _require_points(args)
    rows = []
    for phi in np.linspace(0.0, 2 * math.pi, args.points):
        pt = fig2a_violations(float(phi), family=args.family)
        rows.append((pt.phi, pt.v1, pt.v2, pt.v3))
    write_csv(args.out, ["phi", "V1", "V2", "V3"], rows)
    return EXIT_OK


def run_fig2b(args) -> int:
    _require_points(args)
    try:
        m_list = [int(m) for m in args.m.split(",")]
    except ValueError as exc:
        raise SpecParseError(f"--m must be comma-separated integers, got {args.m!r}") from exc
    for m in m_list:
        if not 0 < m < args.n:
            raise SpecParseError(f"m values must lie strictly between 0 and N={args.n}, got {m}")
    rows = []
    for eps in np.linspace(0.0, 1.0, args.points):
        gamma = 1.0 - float(eps) ** 2
        rows.append((float(eps), *(cat_purity_closed_form(args.n, m, gamma) for m in m_list)))
    write_csv(args.out, ["epsilon"] + [f"Pi_m{m}" for m in m_list], rows)
    return EXIT_OK


def run_lattice_validate(args) -> int:
    if args.end_to_end_states < 1:
        raise SpecParseError(f"--end-to-end-states must be at least 1, got {args.end_to_end_states}")
    for flag, value in (("--j", args.j), ("--u", args.u)):
        if not math.isfinite(value):
            raise SpecParseError(f"{flag} must be finite, got {value}")
    if not COUPLING_MIN <= args.j <= COUPLING_MAX:
        raise SpecParseError(f"--j must lie in [{COUPLING_MIN:g}, {COUPLING_MAX:g}], got {args.j}")
    if abs(args.u) > COUPLING_MAX:
        raise SpecParseError(f"--u must lie in [-{COUPLING_MAX:g}, {COUPLING_MAX:g}], got {args.u}")
    params = LatticeParams(n_sites=1, J=args.j, U_a=args.u, U_b=args.u, U_ab=args.u)
    basis = build_fock_basis(params.n_modes, 2)
    test_states = standard_test_states(seed=args.seed)

    bs_report = hopping_bs_check(params, test_states)

    h_bs, _ = build_hamiltonians(LatticeParams(n_sites=1, J=args.j), basis)
    bs_prop = propagator(h_bs, params.t_bs)
    hom_bunched = FockState(basis, bs_prop @ test_states[0].amplitudes)
    hom_singlet = FockState(basis, bs_prop @ test_states[2].amplitudes)
    hom = {
        "identical_pair_p_diff": occupancy_probabilities([(1.0, hom_bunched)], 1).p_diff_mode,
        "singlet_p_diff": occupancy_probabilities([(1.0, hom_singlet)], 1).p_diff_mode,
    }

    phase_checks = []
    for theta in (0.1, math.pi / 2, math.pi):
        rep = interaction_phase_check(U=theta, tau=1.0, basis=basis)
        phase_checks.append(
            {
                "theta": rep.theta,
                "max_deviation": rep.max_deviation,
                "checked_configs": rep.checked_configs,
                "passed": rep.passed,
            }
        )

    end_to_end = []
    for k in range(args.end_to_end_states):
        rho = random_state(1, 1 + k % 2, seed=args.seed + 1000 + k)
        _, ensemble = embed_two_copies(rho, basis)
        evolved = [(w, FockState(basis, bs_prop @ s.amplitudes)) for w, s in ensemble]
        got = occupancy_probabilities(evolved, 1).p_diff_mode
        expected = pair_projection_probabilities(rho).p_minus
        end_to_end.append({"seed": args.seed + 1000 + k, "p_diff": got, "expected": expected, "abs_error": abs(got - expected)})

    sweep = []
    for ratio in (0.0, 0.01, 0.1, 1.0):
        sweep_params = LatticeParams(
            n_sites=1, J=args.j, U_a=ratio * args.j, U_b=ratio * args.j, U_ab=ratio * args.j
        )
        rep = hopping_bs_check(sweep_params, test_states)
        sweep.append({"u_over_j": ratio, "min_fidelity": rep.min_fidelity})

    report = {
        "tool": "puritynet",
        "version": __version__,
        "seed": args.seed,
        "params": {"n_sites": 1, "J": args.j, "U": args.u, "t_bs": params.t_bs},
        "bs_check": {
            "include_interactions": args.u != 0.0,
            "fidelities": list(bs_report.fidelities),
            "min_fidelity": bs_report.min_fidelity,
        },
        "hom": hom,
        "interaction_phase": phase_checks,
        "end_to_end": end_to_end,
        "end_to_end_max_error": max(e["abs_error"] for e in end_to_end),
        "uj_sweep": sweep,
    }
    write_json(args.out, report)
    return EXIT_OK


def run_cat_experiment(args) -> int:
    if not 0.0 <= args.epsilon <= 1.0:
        raise SpecParseError(f"epsilon must lie in [0, 1], got {args.epsilon}")
    if args.runs < 1:
        raise SpecParseError(f"--runs must be at least 1, got {args.runs}")
    if args.n < 2:
        # an informative run keeps 0 < n < N atoms, which needs N >= 2
        raise SpecParseError(f"--n must be at least 2, got {args.n}")
    gamma = 1.0 - args.epsilon**2

    n_values, purities, per_run_estimates = [], [], []
    uninformative = 0
    for run in range(args.runs):
        outcome = sample_loss(args.n, args.survival, seed=args.seed + run)
        n_values.append(outcome.n)
        if not 0 < outcome.n < args.n:
            # a run that lost nothing (or everything) carries no purity signal
            uninformative += 1
            continue
        pi = cat_purity_closed_form(args.n, outcome.n, gamma)
        purities.append(pi)
        per_run_estimates.append(estimate_epsilon(pi, args.n, outcome.n))

    if not per_run_estimates:
        raise InversionError(
            "no informative runs: every sampled loss count was 0 or N, and the "
            "reduced purity at those counts is 1 regardless of epsilon"
        )

    mean_n = float(np.mean(n_values))
    mean_purity = float(np.mean(purities))
    epsilon_estimated = float(np.mean(per_run_estimates))
    # Diagnostic alternative: invert the run-averaged purity at the mean
    # loss count.  gamma^n is convex in n, so this estimator carries a
    # Jensen bias that grows with epsilon; reported for comparison only.
    try:
        epsilon_from_mean = estimate_epsilon(mean_purity, args.n, mean_n)
    except InversionError:
        epsilon_from_mean = None

    report = {
        "tool": "puritynet",
        "version": __version__,
        "seed": args.seed,
        "params": {
            "n_atoms": args.n,
            "epsilon_true": args.epsilon,
            "survival_prob": args.survival,
            "runs": args.runs,
        },
        "informative_runs": args.runs - uninformative,
        "uninformative_runs": uninformative,
        "mean_n": mean_n,
        "mean_purity": mean_purity,
        "epsilon_estimated": epsilon_estimated,
        "abs_error": abs(epsilon_estimated - args.epsilon),
        "epsilon_from_mean_purity": epsilon_from_mean,
        "abs_error_from_mean_purity": (
            None if epsilon_from_mean is None else abs(epsilon_from_mean - args.epsilon)
        ),
    }
    write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puritynet",
        description="Purity-based multipartite entanglement detection toolkit",
    )
    parser.add_argument("--version", action="version", version=f"puritynet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="run the detection pipeline on a state spec")
    src = probe.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="path to a statespec file")
    src.add_argument("--spec-text", help="inline statespec text")
    probe.add_argument("--chains", help="chain spec, e.g. '1,2,3>1,2>1;1,2>2'")
    probe.add_argument("--threshold", type=float, default=VIOLATION_THRESHOLD)
    probe.add_argument("--qubit-cap", type=int, default=None)
    probe.add_argument("--out", required=True)
    probe.set_defaults(handler=run_probe)

    fig2a = sub.add_parser("fig2a", help="three-site violation curves (CSV)")
    fig2a.add_argument("--n", type=int, default=3)
    fig2a.add_argument("--points", type=int, default=101)
    fig2a.add_argument(
        "--family",
        choices=["collision", "superposition"],
        default="collision",
        help="interpolating family: controlled-phase dynamics or two-term superposition",
    )
    fig2a.add_argument("--out", required=True)
    fig2a.set_defaults(handler=run_fig2a)

    fig2b = sub.add_parser("fig2b", help="reduced cat-state purity vs epsilon (CSV)")
    fig2b.add_argument("--n", type=int, default=300)
    fig2b.add_argument("--m", default="1,7,14,20", help="comma-separated reduction counts")
    fig2b.add_argument("--points", type=int, default=101)
    fig2b.add_argument("--out", required=True)
    fig2b.set_defaults(handler=run_fig2b)

    lat = sub.add_parser("lattice-validate", help="splitter timing and phase checks")
    lat.add_argument("--j", type=float, default=1.0)
    lat.add_argument("--u", type=float, default=0.0)
    lat.add_argument("--seed", type=int, default=0)
    lat.add_argument("--end-to-end-states", type=int, default=10)
    lat.add_argument("--out", required=True)
    lat.set_defaults(handler=run_lattice_validate)

    cat = sub.add_parser("cat-experiment", help="distinctness estimation under loss")
    cat.add_argument("--n", type=int, default=300)
    cat.add_argument("--epsilon", type=float, required=True)
    cat.add_argument("--survival", type=float, default=0.95)
    cat.add_argument("--runs", type=int, default=1000)
    cat.add_argument("--seed", type=int, default=0)
    cat.add_argument("--out", required=True)
    cat.set_defaults(handler=run_cat_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVERSION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
