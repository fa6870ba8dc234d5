"""Command-line front end: figure data, detection runs, lattice validation.

Subcommands
-----------
probe             run the purity-chain detection pipeline on a state spec
fig2a             violation curves of the three-site family (CSV)
fig2b             reduced cat-state purity vs distinctness (CSV)
lattice-validate  splitter timing, interaction phase and end-to-end checks
cat-experiment    Monte-Carlo distinctness estimation under particle loss

All output is deterministic for fixed flags and seed, so reruns are
byte-identical: a JSON report is one line in fixed key order, each float
its shortest round-trip repr (``python -m json.tool`` pretty-prints it),
and a CSV float has 17 significant digits.  Exit codes: 0 success, 2
usage or spec parse error, 3 capacity exceeded, 4 inversion not
possible, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bs_network import sign_probabilities_from_purities
from .lattice import (
    COUPLING_MAX,
    COUPLING_MIN,
    LatticeParams,
    embed_two_copies_stack,
    hopping_bs_check,
    interaction_phase_check,
    occupancy_p_diff_stack,
    sample_loss,
    standard_test_states,
)
from .qstate import (
    DEFAULT_QUBIT_CAP,
    CapacityError,
    DensityOperator,
    PureState,
    check_normalized,
    check_qubit_capacity,
    product_amplitudes,
    random_states,
)
from .separability import (
    PLAN_SIZES_KEPT,
    PURITY_ERROR,
    VIOLATION_THRESHOLD,
    ChainLinks,
    all_subset_purities,
    chain_links,
    fig2a_violations,
    left_to_right_chain,
    maximal_chains,
    subset_order,
)
from .states import (
    PHASE_FAMILIES, InversionError, cat_purity_closed_form, cat_state, cluster_family_state, estimate_epsilon, ghz
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INVERSION = 4
EXIT_IO = 5

SPEC_HEADER = "statespec v1"

#: The U/J ratios of the ``lattice-validate`` interaction sweep.
UJ_RATIOS = (0.0, 0.01, 0.1, 1.0)

#: Caps of the count flags, of ``--n`` atoms and of the ``fig2b --m`` list;
#: README "Command line" gives the time each command takes at its bound.
MAX_POINTS = 100_000
MAX_M_VALUES = 20
MAX_RUNS = 1_000_000
MAX_END_TO_END_STATES = 100_000
MAX_ATOMS = 10**9

#: Cap of ``probe --qubit-cap``: a 31-qubit pure state alone takes 32 GiB,
#: and no spec text reaches its length bound at 30 qubits.
MAX_QUBIT_CAP = 30

#: Characters a spec may spend per density-matrix entry at the qubit cap
#: (4^cap entries), plus a fixed allowance for the header, keys and
#: comments.  A 17-digit complex literal and its separator take under 50.
SPEC_CHARS_PER_ENTRY = 64
SPEC_HEADER_CHARS = 4096

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


class Domain:
    """A numeric flag's ``type``, ``default`` (``None``: required) and values:
    ``low <= value <= high`` and, for a float, finite (exit 2 otherwise); exit 3 above ``cap``."""

    def __init__(self, type, default, low, high=math.inf, cap=math.inf):
        self.type, self.default, self.low, self.high, self.cap = type, default, low, high, cap

    def check(self, flag: str, value) -> None:
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecParseError(f"{flag} must be finite, got {value}")
        if not self.low <= value <= self.high:
            bounds = f"be at least {self.low}" if self.high == math.inf else f"lie in [{self.low}, {self.high}]"
            raise SpecParseError(f"{flag} must {bounds}, got {value}")
        if value > self.cap:
            raise CapacityError(f"{flag} {value} is beyond the cap of {self.cap}")


#: The one declaration of every ``int`` and ``float`` flag, by command:
#: ``build_parser`` adds each from here, and ``main`` checks each domain in
#: this order before the command's handler runs.
FLAG_DOMAINS = {
    "probe": {
        # below the purities' own rounding error, separable states would read as entangled
        "--threshold": Domain(float, VIOLATION_THRESHOLD, PURITY_ERROR),
        "--qubit-cap": Domain(int, DEFAULT_QUBIT_CAP, 1, cap=MAX_QUBIT_CAP),
    },
    "fig2a": {"--n": Domain(int, 3, 3, 3), "--points": Domain(int, 101, 1, cap=MAX_POINTS)},
    "fig2b": {"--points": Domain(int, 101, 1, cap=MAX_POINTS), "--n": Domain(int, 300, 2, cap=MAX_ATOMS)},
    "lattice-validate": {
        "--end-to-end-states": Domain(int, 10, 1, cap=MAX_END_TO_END_STATES),
        "--seed": Domain(int, 0, 0),
        # past these, float64 overflows in the splitter time pi/(4J) or the evolution
        "--j": Domain(float, 1.0, COUPLING_MIN, COUPLING_MAX),
        "--u": Domain(float, 0.0, -COUPLING_MAX, COUPLING_MAX),
    },
    "cat-experiment": {
        "--epsilon": Domain(float, None, 0, 1),
        "--survival": Domain(float, 0.95, 0, 1),
        "--runs": Domain(int, 1000, 1, cap=MAX_RUNS),
        "--seed": Domain(int, 0, 0),
        # an informative run keeps 0 < n < N atoms, which needs N >= 2
        "--n": Domain(int, 300, 2, cap=MAX_ATOMS),
    },
}

#: Exit code of each exception ``main`` reports, the first match winning.
EXIT_CODES = {
    SpecParseError: EXIT_USAGE,
    CapacityError: EXIT_CAPACITY,
    MemoryError: EXIT_CAPACITY,
    InversionError: EXIT_INVERSION,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


# ---------------------------------------------------------------------------
# deterministic serialization


def write_json(path: str, obj) -> None:
    """Write ``obj`` as one line of JSON, floats as their shortest round-trip
    repr.  The text is rendered before the file is opened, so a value that
    cannot be written (NaN, infinity, a numpy integer) leaves no file behind."""
    text = json.dumps(obj, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a CSV table of floats, each to 17 significant digits.

    Each row of the iterable ``rows``, one float per header column, is
    rendered as it arrives, through one ``%.17g`` format for the whole row,
    and appended to one growing buffer, so no per-line string is kept.  The
    file is opened after the last row, so a value that cannot be written
    leaves no file behind."""
    line = (",".join(["%.17g"] * len(header)) + "\n").encode()
    text = bytearray((",".join(header) + "\n").encode())
    for row in rows:
        if not all(map(math.isfinite, row)):
            bad = next(v for v in row if not math.isfinite(v))
            raise ValueError(f"non-finite value {bad!r} cannot be written to a report")
        text += line % tuple(row)
    with open(path, "wb") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# state-spec grammar


def _parse_bloch(text: str) -> PureState:
    try:
        theta, azim = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecParseError(f"Bloch angles must be 'theta,azimuth', got {text!r}") from exc
    if not (math.isfinite(theta) and math.isfinite(azim)):
        raise SpecParseError(f"Bloch angles must be finite, got {text!r}")
    return PureState(1, [math.cos(theta / 2), np.exp(1j * azim) * math.sin(theta / 2)])


def _complex_literals(tokens: list[str], field: str, row_length: int = 0) -> np.ndarray:
    """Convert every literal of a raw field in one pass; all must be finite
    and of modulus at most 2.  No entry of a state the parser accepts comes
    near 2, and the bound keeps every later sum, norm and trace from
    overflowing.  A malformed literal is named with its row and entry when
    ``row_length`` gives the rows' length, else with its position."""
    try:
        values = np.fromiter(map(complex, tokens), complex, len(tokens))
    except ValueError as exc:
        # only once the conversion has failed: the accept path makes no per-token call
        i = next(i for i, token in enumerate(tokens) if not _parses_as(complex, token))
        where = f"row {i // row_length + 1}, entry {i % row_length + 1}" if row_length else f"position {i + 1}"
        raise SpecParseError(f"bad complex literal in field {field!r}: {tokens[i]!r} ({where})") from exc
    if not np.isfinite(values).all():
        raise SpecParseError(f"non-finite complex literal in field {field!r}")
    large = np.flatnonzero(np.abs(values) > 2)
    if large.size:
        raise SpecParseError(f"complex literal {tokens[large[0]]} in field {field!r} has modulus above 2")
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


def _check_spec_length(length: int, cap: int | None) -> None:
    """Raise :class:`CapacityError` for a spec longer than the cap allows."""
    cap = DEFAULT_QUBIT_CAP if cap is None else cap
    # no text reaches the bound at MAX_QUBIT_CAP, and 4^cap beyond it only costs time
    limit = SPEC_HEADER_CHARS + SPEC_CHARS_PER_ENTRY * 4 ** max(0, min(cap, MAX_QUBIT_CAP))
    if length > limit:
        raise CapacityError(f"spec is longer than the {limit} characters allowed at the qubit cap of {cap}")


def parse_state_spec(
    text: str, source: str = "inline", cap: int | None = None
) -> tuple[PureState | DensityOperator, dict]:
    """Parse the key-value state grammar into a state.

    Format: a ``statespec v1`` header line, then ``key = value`` lines; ``#``
    starts a comment anywhere on a line, and errors number lines as in
    ``text``.  Each key may appear once, and only the keys of ``SPEC_FIELDS``
    for the given kind are accepted.  The site count of every kind is checked
    against the qubit cap (default ``DEFAULT_QUBIT_CAP``) before the state is
    built.  Returns the state and an echo dict for reports (``source``,
    ``kind``, any derived values, ``n_sites``; not the text).  Every kind but
    ``raw`` with ``matrix`` describes a pure state and yields a
    :class:`PureState` (2^N amplitudes); a raw ``matrix`` yields a
    :class:`DensityOperator`, after its trace is divided out, its rounding
    dust symmetrized away and its smallest eigenvalue checked against -1e-8
    (one Cholesky factorization of the matrix plus 0.5e-8 I; ``eigvalsh``
    decides, and words the error, only when that fails).  No pure kind ever
    builds the 4^N density matrix.  Text longer than ``SPEC_HEADER_CHARS +
    SPEC_CHARS_PER_ENTRY * 4^cap`` characters raises :class:`CapacityError`
    before it is split.
    """
    _check_spec_length(len(text), cap)
    lines = [(ln_no, ln.partition("#")[0].strip()) for ln_no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(ln_no, ln) for ln_no, ln in lines if ln]
    if not lines or lines[0][1] != SPEC_HEADER:
        raise SpecParseError(f"first line must be {SPEC_HEADER!r}")
    fields: dict[str, str] = {}
    for ln_no, ln in lines[1:]:
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
        state = ghz(need("n", int), cap)
    elif kind == "cluster_family":
        n, phi = need("n", int), need("phi", float)
        state = cluster_family_state(n, phi, cap)
        echo["phi"] = phi
    elif kind == "cat":
        n = need("n", int)
        state, echo["epsilon"] = cat_state(n, _parse_bloch(need("phi1")), _parse_bloch(need("phi2")), cap)
    elif kind == "product":
        qubits = [q.strip() for q in need("qubits").split(";") if q.strip()]
        if not qubits:
            raise SpecParseError("product state needs at least one qubit")
        check_qubit_capacity(len(qubits), cap)
        state = PureState(len(qubits), product_amplitudes([_parse_bloch(q).amplitudes for q in qubits]))
    else:  # raw
        if "amplitudes" in fields and "matrix" in fields:
            raise SpecParseError("kind 'raw' takes 'amplitudes' or 'matrix', not both")
        if "amplitudes" in fields:
            tokens = fields["amplitudes"].replace(",", " ").split()
            n = _raw_qubits(len(tokens), cap)
            amps = _complex_literals(tokens, "amplitudes")
            norm = float(np.linalg.norm(amps))
            if abs(norm - 1.0) > 1e-6:
                raise SpecParseError(f"raw amplitudes have norm {norm!r}, more than 1e-6 from 1")
            state = PureState(n, amps / norm)
        elif "matrix" in fields:
            rows = fields["matrix"].split(";")
            check_qubit_capacity(len(rows).bit_length() - 1, cap)  # before any row is read
            rows = [r.replace(",", " ").split() for r in rows]
            for i, row in enumerate(rows, start=1):
                if len(row) != len(rows[0]):
                    raise SpecParseError(f"raw matrix row {i} has {len(row)} entries, row 1 has {len(rows[0])}")
            n = _raw_qubits(len(rows), cap)
            if len(rows[0]) != len(rows):
                raise SpecParseError(f"raw matrix is not square: {len(rows)} rows of {len(rows[0])} entries")
            tokens = list(itertools.chain.from_iterable(rows))
            mat = _complex_literals(tokens, "matrix", len(rows)).reshape(len(rows), -1)
            herm = float(np.abs(mat - mat.conj().T).max())
            if herm > 1e-6:
                raise SpecParseError(f"raw matrix is not Hermitian: max |rho - rho^dag| = {herm!r}, more than 1e-6")
            tr = complex(mat.trace())
            if abs(tr - 1.0) > 1e-6:
                raise SpecParseError(f"raw matrix trace {tr!r} more than 1e-6 from 1")
            mat = mat / tr
            # symmetrize away rounding dust below the tolerance
            mat = (mat + mat.conj().T) / 2
            # The floor is -1e-8.  A Cholesky factorization of mat + 0.5e-8 I
            # succeeds only if no eigenvalue lies below -0.5e-8 (less rounding,
            # about 1e-14 here), so only a failed one needs the spectrum.
            try:
                np.linalg.cholesky(mat + 0.5e-8 * np.eye(len(mat)))
            except np.linalg.LinAlgError:
                min_eigenvalue = float(np.linalg.eigvalsh(mat)[0])
                if min_eigenvalue < -1e-8:
                    raise SpecParseError(f"raw matrix has negative eigenvalue {min_eigenvalue!r}") from None
            state = DensityOperator(n, mat)
        else:
            raise SpecParseError("kind 'raw' requires 'amplitudes' or 'matrix'")
    echo["n_sites"] = state.n_qubits
    return state, echo


def parse_chains(text: str) -> list[tuple[tuple[int, ...], ...]]:
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

@dataclass(frozen=True, eq=False)
class _ReportPlan:
    """What every ``probe`` report on N sites shares, built once per N."""

    keys: tuple[str, ...]  # subset keys ("1,3") in report order
    order: np.ndarray  # their site masks, read-only
    key_of: tuple[str, ...]  # the key of each site mask ("" for the empty one)
    sign_keys: tuple[str, ...]  # "+-" strings in sign-table order: "-" sites are the mask's bits
    default_chains: ChainLinks  # maximal chains at N <= 4, left to right above


@functools.lru_cache(maxsize=PLAN_SIZES_KEPT)
def _report_plan(n: int) -> _ReportPlan:
    keys, order = subset_order(n)
    key_of = [""] * 2**n
    for key, mask in zip(keys, order.tolist()):
        key_of[mask] = key
    order.flags.writeable = False
    chains = [] if n == 1 else maximal_chains(n) if n <= 4 else [left_to_right_chain(n)]
    return _ReportPlan(
        tuple(keys),
        order,
        tuple(key_of),
        tuple(map("".join, itertools.product("+-", repeat=n))),
        chain_links(chains, n),
    )


def _chain_report_dicts(
    links: ChainLinks, key_of: tuple[str, ...], violations: list[float], flags: list[bool]
) -> list[dict]:
    """One report dict per chain of ``links``, each site mask replaced by its
    key; a violation is the same dict as its entry under ``links``."""
    entries = [
        {"larger": key_of[big], "smaller": key_of[small], "violation": v}
        for big, small, v in zip(links.larger.tolist(), links.smaller.tolist(), violations)
    ]
    bounds = links.offsets.tolist()
    return [
        {
            "chain": [key_of[m] for m in chain],
            "links": entries[lo:hi],
            "violations": list(itertools.compress(entries[lo:hi], flags[lo:hi])),
            "entangled": any(flags[lo:hi]),
        }
        for chain, lo, hi in zip(links.chains, bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------------
# commands


def run_probe(args) -> int:
    if args.spec_text is not None:
        text, source = args.spec_text, "inline"
    else:
        with open(args.spec) as fh:
            _check_spec_length(os.fstat(fh.fileno()).st_size, args.qubit_cap)  # before reading it
            text = fh.read()
        source = args.spec
    state, echo = parse_state_spec(text, source, cap=args.qubit_cap)
    n = state.n_qubits
    if echo["kind"] == "raw":
        # a raw spec is mostly its literals, so its report names the text rather than holding it;
        # hashlib loads OpenSSL (about 3 ms), which no other report needs
        import hashlib

        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
        echo.update(text_sha256=digest, text_length=len(text))
    else:
        echo["text"] = text

    purities = all_subset_purities(state, cap=args.qubit_cap)
    plan = _report_plan(n)
    links = plan.default_chains if args.chains is None else chain_links(parse_chains(args.chains), n)
    # every link of every chain in one gather
    violations = links.violations(purities)
    flags = violations > args.threshold
    violations = violations.tolist()
    table = sign_probabilities_from_purities(purities)

    report = {
        "tool": "puritynet",
        "version": __version__,
        "input": echo,
        "seed": None,
        "threshold": args.threshold,
        "purities": dict(zip(plan.keys, purities.values[plan.order].tolist())),
        "sign_probabilities": dict(zip(plan.sign_keys, table.values.tolist())),
        "chains": _chain_report_dicts(links, plan.key_of, violations, flags.tolist()),
        "max_violation": max(violations, default=0.0),
        "verdict": "entangled_detected" if flags.any() else "no_violation",
    }
    write_json(args.out, report)
    return EXIT_OK


def run_fig2a(args) -> int:
    phi = np.linspace(0.0, 2 * math.pi, args.points)
    columns = (c.tolist() for c in (phi, *fig2a_violations(phi, family=args.family)))
    write_csv(args.out, ["phi", "V1", "V2", "V3"], zip(*columns))
    return EXIT_OK


def run_fig2b(args) -> int:
    m_texts = args.m.split(",")
    if len(m_texts) > MAX_M_VALUES:
        raise CapacityError(f"--m lists {len(m_texts)} values, beyond the cap of {MAX_M_VALUES}")
    try:
        m_list = [int(m) for m in m_texts]
    except ValueError as exc:
        raise SpecParseError(f"--m must be comma-separated integers, got {args.m!r}") from exc
    if len(set(m_list)) < len(m_list):
        raise SpecParseError(f"--m lists a value more than once, got {args.m!r}")
    for m in m_list:
        if not 0 < m < args.n:
            raise SpecParseError(f"m values must lie strictly between 0 and N={args.n}, got {m}")
    rows = (
        (eps, *(cat_purity_closed_form(args.n, m, 1.0 - eps**2) for m in m_list))
        for eps in np.linspace(0.0, 1.0, args.points).tolist()
    )
    write_csv(args.out, ["epsilon"] + [f"Pi_m{m}" for m in m_list], rows)
    return EXIT_OK


def run_lattice_validate(args) -> int:
    basis, test_states = standard_test_states(seed=args.seed)
    # one splitter stack of every distinct U: --u and the sweep's U = ratio * J can coincide
    couplings = list(dict.fromkeys([args.u] + [ratio * args.j for ratio in UJ_RATIOS]))
    fidelities, propagators = hopping_bs_check(args.j, couplings, basis, test_states)
    # the sweep starts at U = 0, whose member is the bare hopping splitter exp(-i h_bs t_bs)
    bs_prop = propagators[couplings.index(0.0)]
    # the identical a-pair (row 0) and the singlet (row 2), each a pure ensemble of its own
    pair_p_diff, singlet_p_diff = occupancy_p_diff_stack(
        basis, np.arange(2), np.ones(2), test_states[[0, 2]] @ bs_prop.T, 1
    ).tolist()
    hom = {"identical_pair_p_diff": pair_p_diff, "singlet_p_diff": singlet_p_diff}

    # Each state is drawn from its own seed; the states are then built,
    # embedded, evolved and read out together, one array pass over all members.
    seeds = range(args.seed + 1000, args.seed + 1000 + args.end_to_end_states)
    matrices = random_states(1, [1 + k % 2 for k in range(len(seeds))], seeds)
    # each state's antisymmetric-projection probability P_- = (1 - tr rho^2) / 2 on two copies
    expected = ((1 - (matrices.conj() * matrices).real.sum(axis=(1, 2))) / 2).tolist()
    _, owner, weights, members = embed_two_copies_stack(matrices)
    check_normalized(members)  # bs_prop is unitary, so the evolved members keep the norm
    got = occupancy_p_diff_stack(basis, owner, weights, members @ bs_prop.T, 1).tolist()
    end_to_end = [
        {"seed": seed, "p_diff": p, "expected": e, "abs_error": abs(p - e)} for seed, p, e in zip(seeds, got, expected)
    ]

    report = {
        "tool": "puritynet",
        "version": __version__,
        "seed": args.seed,
        "params": {"n_sites": 1, "J": args.j, "U": args.u, "t_bs": LatticeParams(n_sites=1, J=args.j).t_bs},
        "bs_check": {
            "include_interactions": args.u != 0.0,
            # --u leads the stack
            "fidelities": fidelities[0].tolist(),
            "min_fidelity": float(fidelities[0].min()),
        },
        "hom": hom,
        "interaction_phase": interaction_phase_check((0.1, math.pi / 2, math.pi), basis),
        "end_to_end": end_to_end,
        "end_to_end_max_error": max(e["abs_error"] for e in end_to_end),
        "uj_sweep": [
            {"u_over_j": ratio, "min_fidelity": float(fidelities[couplings.index(ratio * args.j)].min())}
            for ratio in UJ_RATIOS
        ],
    }
    write_json(args.out, report)
    return EXIT_OK


def run_cat_experiment(args) -> int:
    gamma = 1.0 - args.epsilon**2
    # a run keeps N - max(m, m') usable site pairs: it is reduced by max(m, m')
    n_values = sample_loss(args.n, args.survival, args.runs, args.seed).max(axis=1)
    # a run that lost nothing (or everything) carries no purity signal
    informative = n_values[(0 < n_values) & (n_values < args.n)]
    if not informative.size:
        raise InversionError(
            "no informative runs: every sampled loss count was 0 or N, and the "
            "reduced purity at those counts is 1 regardless of epsilon"
        )
    # A run's purity and its inversion depend only on its loss count, and
    # runs share a few dozen counts, so each count is inverted once and the
    # per-run values are gathered back in run order.
    counts, run_count = np.unique(informative, return_inverse=True)
    counts = counts.tolist()
    purity_of = [cat_purity_closed_form(args.n, k, gamma) for k in counts]
    estimate_of = [estimate_epsilon(pi, args.n, k) for pi, k in zip(purity_of, counts)]

    mean_n = float(np.mean(n_values))
    mean_purity = float(np.mean(np.array(purity_of)[run_count]))
    epsilon_estimated = float(np.mean(np.array(estimate_of)[run_count]))
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
        "informative_runs": informative.size,
        "uninformative_runs": args.runs - informative.size,
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
    # no parser takes a prefix of a flag for the flag: every flag is spelled in full
    parser = argparse.ArgumentParser(
        prog="puritynet",
        description="Purity-based multipartite entanglement detection toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"puritynet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        """The parser of one command, holding its ``FLAG_DOMAINS`` flags and ``--out``."""
        cmd = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag, domain in FLAG_DOMAINS[name].items():
            cmd.add_argument(flag, type=domain.type, default=domain.default, required=domain.default is None)
        cmd.add_argument("--out", required=True)
        return cmd

    probe = command("probe", "run the detection pipeline on a state spec")
    src = probe.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="path to a statespec file")
    src.add_argument("--spec-text", help="inline statespec text")
    probe.add_argument("--chains", help="chain spec, e.g. '1,2,3>1,2>1;1,2>2'")
    command("fig2a", "three-site violation curves (CSV)").add_argument(
        "--family",
        choices=list(PHASE_FAMILIES),
        default="collision",
        help="interpolating family: controlled-phase dynamics or two-term superposition",
    )
    command("fig2b", "reduced cat-state purity vs epsilon (CSV)").add_argument(
        "--m", default="1,7,14,20", help="comma-separated reduction counts"
    )
    command("lattice-validate", "splitter timing and phase checks")
    command("cat-experiment", "distinctness estimation under loss")
    return parser


#: ``parse_args`` leaves the parser unchanged, so one serves every call.
_parser = functools.cache(build_parser)


def _parses_as(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _join_numeric_values(argv: list[str]) -> list[str]:
    """``argv`` with each numeric flag of ``FLAG_DOMAINS`` and a following
    token that parses as a float joined into ``--flag=value``.  argparse
    reads a bare ``-1e-05`` (or ``-inf``) as an option, not as a value, so
    the flag would never reach its domain check."""
    flags = FLAG_DOMAINS.get(argv[0], {}) if argv else {}
    joined, i = [], 0
    while i < len(argv):
        if argv[i] in flags and i + 1 < len(argv) and _parses_as(float, argv[i + 1]):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return joined


def main(argv=None) -> int:
    args = _parser().parse_args(_join_numeric_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        for flag, domain in FLAG_DOMAINS[args.command].items():
            domain.check(flag, getattr(args, flag[2:].replace("-", "_")))
        # looked up at call time, so a replaced handler is the one that runs
        return globals()["run_" + args.command.replace("-", "_")](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
