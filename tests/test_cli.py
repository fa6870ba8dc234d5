import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puritynet.cli import (
    EXIT_CAPACITY,
    EXIT_INVERSION,
    EXIT_OK,
    EXIT_USAGE,
    FLAG_DOMAINS,
    MAX_ATOMS,
    MAX_END_TO_END_STATES,
    MAX_M_VALUES,
    MAX_POINTS,
    MAX_QUBIT_CAP,
    MAX_RUNS,
    SPEC_CHARS_PER_ENTRY,
    SPEC_HEADER_CHARS,
    SpecParseError,
    main,
    parse_chains,
    parse_state_spec,
    write_csv,
    write_json,
)
from puritynet import cli, lattice, qstate, separability, states
from puritynet.bs_network import sign_probabilities_from_purities
from puritynet.lattice import COUPLING_MAX, COUPLING_MIN, build_fock_basis
from puritynet.qstate import CapacityError, DensityOperator, PureState
from puritynet.states import cat_purity_closed_form, estimate_epsilon, ghz

from conftest import (
    random_pure_state,
    ref_cat_experiment,
    ref_end_to_end,
    ref_interaction_phase,
    ref_lattice_checks,
    ref_loss_count_distribution,
    ref_purity,
    ref_random_state,
    ref_subset_purity,
    tensor,
)

GHZ_SPEC = "statespec v1\nkind = ghz\nn = 3\n"
PRODUCT_SPEC = "statespec v1\nkind = product\nqubits = 0,0; 0,0; 0,0\n"

#: One three-site spec body per kind (and both raw forms).
THREE_SITE_SPECS = {
    "ghz": "kind = ghz\nn = 3",
    "cluster_family": "kind = cluster_family\nn = 3\nphi = 1.0",
    "cat": "kind = cat\nn = 3\nphi1 = 0,0\nphi2 = 1,0",
    "product": "kind = product\nqubits = 0,0; 0,0; 0,0",
    "raw-amplitudes": "kind = raw\namplitudes = 1 0 0 0 0 0 0 0",
    "raw-matrix": "kind = raw\nmatrix = 1" + " 0" * 7 + (";" + "0 " * 7 + "0") * 7,
}


def run(*argv):
    return main(list(argv))


def _raw_matrix_spec(mat: np.ndarray) -> str:
    """A ``raw`` spec of ``mat``, each entry a round-trip complex literal."""
    rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in mat)
    return f"statespec v1\nkind = raw\nmatrix = {rows}\n"


class TestStateSpecParsing:
    def test_ghz(self):
        state, echo = parse_state_spec(GHZ_SPEC)
        assert echo["kind"] == "ghz" and echo["n_sites"] == 3
        assert ref_purity(state.to_density().matrix) == pytest.approx(1.0, abs=1e-12)

    def test_product_bloch_angles(self):
        state, _ = parse_state_spec(PRODUCT_SPEC)
        assert state.to_density().matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cluster_family(self):
        state, echo = parse_state_spec("statespec v1\nkind = cluster_family\nn = 2\nphi = 3.141592653589793\n")
        assert echo["phi"] == pytest.approx(math.pi)
        assert ref_purity(state.to_density().matrix) == pytest.approx(1.0, abs=1e-12)

    def test_cat_with_bloch_angles(self):
        text = "statespec v1\nkind = cat\nn = 3\nphi1 = 0,0\nphi2 = 3.141592653589793,0\n"
        _, echo = parse_state_spec(text)
        assert echo["epsilon"] == pytest.approx(1.0, abs=1e-9)

    def test_raw_amplitudes_renormalized_within_tolerance(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2) * (1 + 5e-7)
        text = "statespec v1\nkind = raw\namplitudes = " + " ".join(str(complex(a)) for a in amps)
        state, _ = parse_state_spec(text)
        assert ref_purity(state.to_density().matrix) == pytest.approx(1.0, abs=1e-10)

    def test_raw_amplitudes_rejected_when_norm_off(self):
        with pytest.raises(SpecParseError, match="norm"):
            parse_state_spec("statespec v1\nkind = raw\namplitudes = 1+0j 1+0j\n")

    def test_raw_matrix_mixture(self):
        mixture = 0.5 * np.kron(np.diag([1, 0]), np.diag([1, 0])) + 0.5 * np.kron(
            np.diag([0, 1]), np.diag([0, 1])
        )
        rows = ";".join(" ".join(str(complex(v)) for v in row) for row in mixture)
        rho, _ = parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")
        assert ref_purity(rho.matrix) == pytest.approx(0.5, abs=1e-12)

    def test_raw_matrix_negative_rejected(self):
        rows = "1.2+0j 0j;0j -0.2+0j"
        with pytest.raises(SpecParseError, match="eigenvalue"):
            parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")

    @pytest.mark.parametrize("field", ["matrix", "amplitudes"])
    def test_malformed_literal_is_named_among_many(self, field):
        # one bad literal among the 16384 entries of an N = 7 matrix, or the 128 amplitudes of a state
        rng = np.random.default_rng(36)
        values = ref_random_state(7, 3, seed=36).matrix if field == "matrix" else random_pure_state(7, 36).amplitudes
        values = values.reshape(-1, 128)
        row, entry = int(rng.integers(values.shape[0])), int(rng.integers(128))
        entries = [[repr(complex(v)) for v in r] for r in values]
        entries[row][entry] = "0.25+0.5i"
        where = f"row {row + 1}, entry {entry + 1}" if field == "matrix" else f"position {entry + 1}"
        message = f"bad complex literal in field {field!r}: '0.25+0.5i' ({where})"
        with pytest.raises(SpecParseError) as info:
            parse_state_spec(f"statespec v1\nkind = raw\n{field} = {';'.join(map(' '.join, entries))}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("floor", [-2e-8, -1.01e-8, -0.99e-8, -0.6e-8, -0.4e-8, 0.0, 1e-12])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_eigenvalue_floor_matches_the_spectrum(self, n, floor, monkeypatch):
        """A planted smallest eigenvalue under a random unitary, beside 1, 2
        or all but one positive eigenvalues: accepted exactly when eigvalsh of
        the matrix as parsed (divided by its trace, symmetrized) gives at
        least -1e-8, rejected with that eigenvalue; eigvalsh runs only when
        the Cholesky test at -0.5e-8 fails."""
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        dim = 2**n
        for rank in sorted({r for r in (1, 2, dim - 1) if r < dim}):
            rng = np.random.default_rng([n, rank, round(abs(floor) * 1e12)])
            unitary, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            weights = rng.uniform(0.5, 1.5, rank)
            spectrum = np.zeros(dim)
            spectrum[0], spectrum[1 : rank + 1] = floor, weights * (1 - floor) / weights.sum()
            mat = (unitary * spectrum) @ unitary.conj().T
            text = _raw_matrix_spec(mat)  # its literals round-trip, so it parses to mat
            parsed = mat / complex(mat.trace())
            parsed = (parsed + parsed.conj().T) / 2
            lowest = float(eigvalsh(parsed)[0])
            calls.clear()
            if lowest >= -1e-8:
                state, _ = parse_state_spec(text)
                np.testing.assert_array_equal(state.matrix, parsed)
            else:
                with pytest.raises(SpecParseError) as info:
                    parse_state_spec(text)
                assert str(info.value) == f"raw matrix has negative eigenvalue {lowest!r}"
            assert len(calls) == (floor < -0.5e-8), (rank, lowest)

    def test_workload_matrices_never_compute_the_spectrum(self, monkeypatch):
        # mixed N = 7 matrices of rank 2..6, as the benchmark's raw specs draw them
        def unreachable(*args):
            raise AssertionError("eigvalsh ran on a positive matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        for seed in range(50):
            state, _ = parse_state_spec(_raw_matrix_spec(ref_random_state(7, 2 + seed % 5, seed=seed).matrix))
            assert state.n_qubits == 7

    def test_header_required(self):
        with pytest.raises(SpecParseError, match="statespec"):
            parse_state_spec("kind = ghz\nn = 3\n")

    def test_unknown_kind(self):
        with pytest.raises(SpecParseError, match="unknown kind"):
            parse_state_spec("statespec v1\nkind = wormhole\n")

    def test_missing_field(self):
        with pytest.raises(SpecParseError, match="requires field"):
            parse_state_spec("statespec v1\nkind = cluster_family\nn = 2\n")

    def test_comments_and_blank_lines(self):
        state, _ = parse_state_spec("statespec v1\n# a comment\n\nkind = ghz\nn = 2\n")
        assert state.n_qubits == 2

    def test_readme_example_spec_parses_to_ghz3(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme[readme.index("### State spec format") :].split("```")[1]
        assert "kind = ghz          # cluster_family" in example  # its inline comment included
        state, echo = parse_state_spec(example)
        assert echo == {"source": "inline", "kind": "ghz", "n_sites": 3}
        np.testing.assert_array_equal(state.amplitudes, ghz(3).amplitudes)

    def test_trailing_comment_on_a_raw_matrix_line(self):
        rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in ref_random_state(2, 3, seed=4).matrix)
        plain, _ = parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")
        commented, _ = parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}  # a rank-3 mixture\n")
        np.testing.assert_array_equal(commented.matrix, plain.matrix)

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param("kind = ghz\nn = 3\nn = 4", "duplicate key 'n'", id="duplicate-n"),
            pytest.param("kind = ghz\nkind = raw\nn = 3", "duplicate key 'kind'", id="duplicate-kind"),
            pytest.param("kind = ghz\nn = 3\nphi = 0.5", "does not take field.*'phi'", id="ghz-phi"),
            pytest.param("kind = product\nqubits = 0,0\ncolour = red", "does not take field.*'colour'", id="unknown"),
            pytest.param("kind = raw\namplitudes = 1 0\nmatrix = 1 0;0 0", "not both", id="raw-both"),
            pytest.param("kind = raw\nmatrix = 1+0j", "at least one site", id="raw-1x1"),
            pytest.param("kind = raw\namplitudes = 1+0j", "at least one site", id="raw-one-amplitude"),
            pytest.param("kind = raw\nmatrix = 1 0 0 0;0 0 0 0", "not square: 2 rows of 4", id="raw-2x4"),
            pytest.param(
                "kind = raw\nmatrix = 1 x;0 0", r"bad complex literal in field 'matrix': 'x' \(row 1, entry 2\)",
                id="raw-bad-literal",
            ),
            pytest.param(
                "kind = raw\namplitudes = 1 0 0 1e5j+", r"literal in field 'amplitudes': '1e5j\+' \(position 4\)",
                id="raw-bad-amplitude",
            ),
            # a line is numbered as it stands in the text, comment and blank lines counted
            pytest.param("# a comment\n\nkind ghz", "line 4: expected 'key = value', got 'kind ghz'", id="line-4"),
            pytest.param("# a comment\n\nkind = ghz\nkind = ghz", "line 5: duplicate key 'kind'", id="line-5"),
        ],
    )
    def test_strict_grammar_names_the_bad_input(self, body, message):
        with pytest.raises(SpecParseError, match=message):
            parse_state_spec(f"statespec v1\n{body}\n")

    @pytest.mark.parametrize(
        "body",
        [
            "kind = cluster_family\nn = 3\nphi = nan",
            "kind = cluster_family\nn = 3\nphi = inf",
            "kind = product\nqubits = nan,0",
            "kind = cat\nn = 3\nphi1 = 0,0\nphi2 = 1,inf",
            "kind = raw\namplitudes = nan 1",
            "kind = raw\nmatrix = 1 nan;nan 0",
        ],
        ids=["phi-nan", "phi-inf", "bloch-nan", "bloch-inf", "amplitude-nan", "matrix-nan"],
    )
    def test_non_finite_spec_values_rejected(self, body):
        with pytest.raises(ValueError, match="finite"):
            parse_state_spec(f"statespec v1\n{body}\n")

    def test_unparsable_integer_field_is_named(self):
        with pytest.raises(SpecParseError, match="field 'n'"):
            parse_state_spec("statespec v1\nkind = ghz\nn = x\n")

    @pytest.mark.parametrize("body", THREE_SITE_SPECS.values(), ids=THREE_SITE_SPECS.keys())
    def test_every_kind_checked_against_the_cap(self, body, monkeypatch):
        with pytest.raises(CapacityError):
            parse_state_spec(f"statespec v1\n{body}\n", cap=2)
        # an explicit cap above the default is honoured too
        monkeypatch.setattr(qstate, "DEFAULT_QUBIT_CAP", 2)
        state, _ = parse_state_spec(f"statespec v1\n{body}\n", cap=3)
        assert state.n_qubits == 3

    @pytest.mark.parametrize("body", THREE_SITE_SPECS.values(), ids=THREE_SITE_SPECS.keys())
    def test_only_raw_matrix_parses_to_a_density_operator(self, body):
        state, _ = parse_state_spec(f"statespec v1\n{body}\n")
        expected = DensityOperator if "matrix" in body else PureState
        assert type(state) is expected

    def test_parse_chains(self):
        chains = parse_chains("1,2,3>1,2>1;1,2>2")
        assert chains == [((1, 2, 3), (1, 2), (1,)), ((1, 2), (2,))]


#: Strings that need escaping: quotes, backslashes, control and non-ASCII characters.
_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u2028\u2603\U0001f600') | st.characters())
_SCALARS = st.none() | st.booleans() | st.integers() | _TEXT


def _trees(leaves):
    return st.recursive(leaves, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4))


def _hex_floats(obj):
    """``obj`` with every float replaced by its ``float.hex`` text, so an
    equality test compares floats bit for bit, the sign of zero included."""
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, list):
        return [_hex_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    return obj


def _written(tmp_path, obj):
    out = tmp_path / "t.json"
    write_json(str(out), obj)
    return out.read_text()


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(_trees(_SCALARS | st.floats(allow_nan=False, allow_infinity=False)))
    def test_floats_parse_back_bit_identical(self, tmp_path_factory, obj):
        text = _written(tmp_path_factory.mktemp("json"), obj)
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert _hex_floats(json.loads(text)) == _hex_floats(obj)

    def test_json_round_trip(self, tmp_path):
        obj = {"a": 1 / 3, "b": [True, None, 7], "c": {"k": "v"}, "d": [1.0, -0.0, 0.0]}
        parsed = json.loads(_written(tmp_path, obj))
        assert parsed["a"] == 1 / 3
        assert parsed["b"] == [True, None, 7]
        # an integral float stays a float, and -0.0 keeps its sign
        assert [(type(v), math.copysign(1.0, v)) for v in parsed["d"]] == [(float, 1.0), (float, -1.0), (float, 1.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_never_serialized(self, tmp_path, bad):
        # bare NaN/Infinity tokens are not JSON
        out = tmp_path / "t.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(out), {"ok": 1.0, "nested": [bad]})
        assert not out.exists()


class TestWriteCsv:
    def test_rows_render_as_format_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = (rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)).tolist()
        values[:8] = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 0.1]
        rows = [tuple(values[i : i + 4]) for i in range(0, len(values), 4)]
        out = tmp_path / "t.csv"
        write_csv(str(out), ["a", "b", "c", "d"], iter(rows))
        want = "a,b,c,d\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_leaves_no_file(self, tmp_path, bad):
        out = tmp_path / "t.csv"
        rows = iter([(0.0, 1.0), (2.0, bad), (3.0, 4.0)])
        with pytest.raises(ValueError, match=f"non-finite value {bad!r} cannot be written"):
            write_csv(str(out), ["x", "y"], rows)
        assert not out.exists()
        # an earlier file at the path is left as it was
        out.write_text("kept")
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(str(out), ["x", "y"], [(bad, 1.0)])
        assert out.read_text() == "kept"


class TestProbeCommand:
    def test_ghz_detected(self, tmp_path):
        out = tmp_path / "ghz.json"
        spec = tmp_path / "ghz.spec"
        spec.write_text(GHZ_SPEC)
        assert run("probe", "--spec", str(spec), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["verdict"] == "entangled_detected"
        assert report["max_violation"] == pytest.approx(0.5, abs=1e-9)
        assert report["purities"]["1,2,3"] == pytest.approx(1.0, abs=1e-10)
        assert report["sign_probabilities"]["+++"] == pytest.approx(0.625, abs=1e-10)

    def test_product_not_detected(self, tmp_path):
        out = tmp_path / "prod.json"
        assert run("probe", "--spec-text", PRODUCT_SPEC, "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "no_violation"

    def test_custom_chain(self, tmp_path):
        out = tmp_path / "r.json"
        assert (
            run("probe", "--spec-text", GHZ_SPEC, "--chains", "1,2,3>2,3>3", "--out", str(out))
            == EXIT_OK
        )
        report = json.loads(out.read_text())
        assert len(report["chains"]) == 1
        assert report["chains"][0]["chain"] == ["1,2,3", "2,3", "3"]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_reports_keyed_and_valued_per_subset(self, tmp_path, n):
        # seeded strictly nested chains, each subset's labels in a random order
        rng = np.random.default_rng(100 + n)
        rho = ref_random_state(n, 1 + n % 2, seed=n)
        rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in rho.matrix)
        chains = []
        for _ in range(4):
            sites = rng.permutation(np.arange(1, n + 1)).tolist()
            sizes = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(2, n + 1), replace=False).tolist())
            chains.append([sites[:k] for k in reversed(sizes)])
        chain_text = ";".join(">".join(",".join(map(str, rng.permutation(s))) for s in c) for c in chains)
        threshold = float(10 ** rng.uniform(-12, -1))
        out = tmp_path / "r.json"
        spec = f"statespec v1\nkind = raw\nmatrix = {rows}\n"
        argv = ["probe", "--spec-text", spec, "--chains", chain_text, "--threshold", repr(threshold)]
        assert run(*argv, "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        for got, subsets in zip(report["chains"], chains, strict=True):
            keys = [",".join(map(str, sorted(s))) for s in subsets]
            assert got["chain"] == keys
            assert [(l["larger"], l["smaller"]) for l in got["links"]] == list(zip(keys, keys[1:]))
            for link, big, small in zip(got["links"], subsets, subsets[1:]):
                expected = ref_subset_purity(rho.matrix, n, big) - ref_subset_purity(rho.matrix, n, small)
                assert link["violation"] == pytest.approx(expected, abs=1e-12)
            assert got["violations"] == [l for l in got["links"] if l["violation"] > threshold]
            assert got["entangled"] is bool(got["violations"])
        assert report["max_violation"] == max(l["violation"] for c in report["chains"] for l in c["links"])

    def test_separable_mixture_via_matrix(self, tmp_path):
        rho = tensor([ref_random_state(1, 2, 3), ref_random_state(1, 2, 4)])
        rows = ";".join(" ".join(str(complex(v)) for v in row) for row in rho.matrix)
        out = tmp_path / "mix.json"
        assert (
            run("probe", "--spec-text", f"statespec v1\nkind = raw\nmatrix = {rows}\n", "--out", str(out))
            == EXIT_OK
        )
        assert json.loads(out.read_text())["verdict"] == "no_violation"

    def test_parse_error_exit_code(self, tmp_path):
        assert run("probe", "--spec-text", "garbage", "--out", str(tmp_path / "x.json")) == EXIT_USAGE

    def test_capacity_exit_code(self, tmp_path):
        assert (
            run(
                "probe",
                "--spec-text",
                "statespec v1\nkind = ghz\nn = 6\n",
                "--qubit-cap",
                "4",
                "--out",
                str(tmp_path / "x.json"),
            )
            == EXIT_CAPACITY
        )

    @pytest.mark.parametrize("kind", ["product", "raw-amplitudes", "raw-matrix"])
    def test_qubit_cap_stops_the_run_at_parsing(self, tmp_path, monkeypatch, kind):
        def unreachable(*args, **kwargs):
            raise AssertionError("the over-cap state reached the purity step")

        monkeypatch.setattr(cli, "all_subset_purities", unreachable)
        out = tmp_path / "x.json"
        spec = f"statespec v1\n{THREE_SITE_SPECS[kind]}\n"
        assert run("probe", "--spec-text", spec, "--qubit-cap", "2", "--out", str(out)) == EXIT_CAPACITY
        assert not out.exists()

    def test_qubit_cap_above_default_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qstate, "DEFAULT_QUBIT_CAP", 2)
        out = tmp_path / "x.json"
        assert run("probe", "--spec-text", GHZ_SPEC, "--qubit-cap", "3", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "entangled_detected"

    def test_memory_error_exits_capacity(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB")

        monkeypatch.setattr(cli, "all_subset_purities", out_of_memory)
        out = tmp_path / "x.json"
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", str(out)) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_memory_error_without_text_names_its_class(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_probe", out_of_memory)
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", str(tmp_path / "x.json")) == EXIT_CAPACITY
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize(
        "qubit_cap, message",
        [(MAX_QUBIT_CAP, "63 qubits (dimension 2^63) exceeds the cap of 30"), (1000, "--qubit-cap 1000 is beyond")],
    )
    def test_cluster_family_beyond_int64_exits_capacity(self, tmp_path, capsys, qubit_cap, message):
        # 2^63 basis indices overflow int64, so no amplitude may be built
        out = tmp_path / "x.json"
        spec = "statespec v1\nkind = cluster_family\nn = 63\nphi = 1.0\n"
        assert run("probe", "--spec-text", spec, "--qubit-cap", str(qubit_cap), "--out", str(out)) == EXIT_CAPACITY
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self):
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", "/nonexistent-dir/x.json") == 5

    def test_builds_one_purity_table(self, tmp_path, monkeypatch):
        real, calls = separability.all_subset_purities, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (separability, cli):
            monkeypatch.setattr(module, "all_subset_purities", counting)
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", str(tmp_path / "x.json")) == EXIT_OK
        assert len(calls) == 1

    def test_pure_spec_never_builds_the_dense_matrix(self, tmp_path):
        # the 4^12 density matrix alone would take 256 MiB
        spec = "statespec v1\nkind = ghz\nn = 12\n"
        tracemalloc.start()
        try:
            assert run("probe", "--spec-text", spec, "--out", str(tmp_path / "x.json")) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_non_finite_threshold_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        for bad in ("nan", "inf", "-inf"):
            assert run("probe", "--spec-text", GHZ_SPEC, f"--threshold={bad}", "--out", str(out)) == EXIT_USAGE
            assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_below_purity_error_rejected(self, tmp_path, capsys):
        # this separable state's largest link is rounding error, ~2e-16
        spec = "statespec v1\nkind = product\nqubits = 0,0; 0,0; 1.5708,0\n"
        out = tmp_path / "x.json"
        for bad in ("0", "-1"):
            assert run("probe", "--spec-text", spec, f"--threshold={bad}", "--out", str(out)) == EXIT_USAGE
            assert "--threshold" in capsys.readouterr().err
        assert not out.exists()
        assert run("probe", "--spec-text", spec, "--threshold=1e-12", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "no_violation"

    def test_nan_phi_exits_usage_without_output(self, tmp_path):
        out = tmp_path / "x.json"
        spec = "statespec v1\nkind = cluster_family\nn = 3\nphi = nan\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_one_by_one_matrix_exits_usage(self, tmp_path, capsys):
        spec = "statespec v1\nkind = raw\nmatrix = 1+0j\n"
        assert run("probe", "--spec-text", spec, "--out", str(tmp_path / "x.json")) == EXIT_USAGE
        assert "at least one site" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("matrix", ";".join([" ".join(["bad"] * 32)] * 32)), ("amplitudes", " ".join(["bad"] * 32))],
        ids=["matrix", "amplitudes"],
    )
    def test_qubit_cap_is_checked_before_the_literals(self, tmp_path, capsys, field, value):
        # five sites of literals that do not parse: the cap decides first
        out = tmp_path / "x.json"
        spec = f"statespec v1\nkind = raw\n{field} = {value}\n"
        assert run("probe", "--spec-text", spec, "--qubit-cap", "4", "--out", str(out)) == EXIT_CAPACITY
        assert "exceeds the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--spec-text", "--spec"])
    def test_over_long_spec_rejected_before_splitting(self, tmp_path, capsys, source):
        # a 64-row matrix of short literals is longer than a cap of 2 allows
        spec = "statespec v1\nkind = raw\nmatrix = " + ";".join([" ".join("0" * 64)] * 64) + "\n"
        assert len(spec) > SPEC_HEADER_CHARS + SPEC_CHARS_PER_ENTRY * 4**2
        path = tmp_path / "big.spec"
        path.write_text(spec)
        out = tmp_path / "x.json"
        value = spec if source == "--spec-text" else str(path)
        assert run("probe", source, value, "--qubit-cap", "2", "--out", str(out)) == EXIT_CAPACITY
        assert "allowed at the qubit cap of 2" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_at_the_cap_with_long_literals_parses(self, tmp_path):
        # 16 x 16 entries of 60 characters each (zero-padded) under a cap of 4
        entries = [
            [f"{1 / 16 if i == j else 0.0:+040.17f}{0.0:+019.15f}j" for j in range(16)] for i in range(16)
        ]
        assert {len(e) for row in entries for e in row} == {60}
        spec = "statespec v1\nkind = raw\nmatrix = " + "; ".join(map(" ".join, entries)) + "\n"
        out = tmp_path / "x.json"
        assert run("probe", "--spec-text", spec, "--qubit-cap", "4", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "no_violation"

    @pytest.mark.parametrize(
        "matrix, message",
        [("0.5 0; 0", "row 2 has 1 entries"), ("0.5 0;0 0.5;", "row 3 has 0 entries")],
        ids=["short-row", "trailing-semicolon"],
    )
    def test_ragged_matrix_names_the_row(self, tmp_path, capsys, matrix, message):
        out = tmp_path / "x.json"
        spec = f"statespec v1\nkind = raw\nmatrix = {matrix}\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "chains, message",
        [
            pytest.param("1,1>1", "duplicate site labels", id="duplicate"),
            pytest.param("1,4>1", "outside 1..3", id="out-of-range"),
            pytest.param("0,1>1", "outside 1..3", id="zero"),
            pytest.param("1,>1", "bad subset '1,'", id="empty-label"),
            # an explicit empty --chains is a chain spec with no subsets, not the default chains
            pytest.param("", "bad subset ''", id="empty-spec"),
            pytest.param(" ", "bad subset ' '", id="blank-spec"),
        ],
    )
    def test_bad_chain_labels_exit_usage_without_output(self, tmp_path, capsys, chains, message):
        out = tmp_path / "x.json"
        assert run("probe", "--spec-text", GHZ_SPEC, "--chains", chains, "--out", str(out)) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, message",
        [
            # the anti-Hermitian part would be dropped, leaving I/2
            pytest.param("matrix = 0.5 1; -1 0.5", "not Hermitian: max |rho - rho^dag| = 2.0,", id="non-hermitian"),
            pytest.param("amplitudes = 1e308 1e308", "literal 1e308 in field 'amplitudes'", id="huge-amplitudes"),
            pytest.param("matrix = 1e308 0; 0 1e308", "literal 1e308 in field 'matrix'", id="huge-diagonal"),
            pytest.param("matrix = 0.5 1e308; 1e308 0.5", "literal 1e308 in field 'matrix'", id="huge-off-diagonal"),
            pytest.param("amplitudes = 0.6 0.9j", "norm 1.0816653826391966,", id="norm-off"),
            pytest.param("matrix = 0.6 0; 0 0.6", "trace (1.2+0j) more", id="trace-off"),
            pytest.param("amplitudes = 0.6 0.8 0", "dimension 3 is not a power of two", id="three-amplitudes"),
            pytest.param("matrix = 1 0 0; 0 0 0; 0 0 0", "dimension 3 is not a power of two", id="three-rows"),
            pytest.param("amplitudes = 1", "dimension 1; a state needs at least one site", id="one-amplitude"),
        ],
    )
    def test_raw_input_it_cannot_mean_exits_usage(self, tmp_path, capsys, field, message):
        out = tmp_path / "x.json"
        spec = f"statespec v1\nkind = raw\n{field}\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "matrix, code",
        [("1.000000005 0; 0 -0.000000005", EXIT_OK), ("1.00000002 0; 0 -0.00000002", EXIT_USAGE)],
        ids=["above-floor", "below-floor"],
    )
    def test_raw_matrix_eigenvalue_floor(self, tmp_path, capsys, matrix, code):
        # a raw matrix may dip to -1e-8 below zero in its spectrum, and no further
        out = tmp_path / "x.json"
        spec = f"statespec v1\nkind = raw\nmatrix = {matrix}\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == code
        assert out.exists() == (code == EXIT_OK)
        assert ("negative eigenvalue -2e-08" in capsys.readouterr().err) == (code == EXIT_USAGE)

    def test_raw_matrix_rounding_dust_symmetrized(self, tmp_path):
        out = tmp_path / "x.json"
        spec = "statespec v1\nkind = raw\nmatrix = 0.5 1e-9; -1e-9 0.5\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["purities"]["1"] == 0.5

    @pytest.mark.parametrize("source", ["--spec", "--spec-text"])
    def test_raw_report_names_its_text_by_digest(self, tmp_path, source):
        text = _raw_matrix_spec(ref_random_state(3, 2, seed=36).matrix)
        out, spec = tmp_path / "r.json", tmp_path / "r.spec"
        # a file is read in text mode, so the digest covers its text with newlines normalized
        spec.write_bytes(text.replace("\n", "\r\n").encode())
        assert run("probe", source, str(spec) if source == "--spec" else text, "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["input"] == {
            "source": str(spec) if source == "--spec" else "inline",
            "kind": "raw",
            "n_sites": 3,
            "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "text_length": len(text),
        }
        table = separability.all_subset_purities(parse_state_spec(text)[0])
        keys, order = separability.subset_order(3)
        assert {k: v.hex() for k, v in report["purities"].items()} == {
            k: float(table.values[m]).hex() for k, m in zip(keys, order)
        }
        signs = sign_probabilities_from_purities(table).values
        assert {k: v.hex() for k, v in report["sign_probabilities"].items()} == {
            "".join(s): float(p).hex() for s, p in zip(itertools.product("+-", repeat=3), signs)
        }

    def test_non_raw_report_echoes_its_text(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", str(out)) == EXIT_OK
        echo = json.loads(out.read_text())["input"]
        assert echo == {"source": "inline", "kind": "ghz", "n_sites": 3, "text": GHZ_SPEC}

    @pytest.mark.parametrize("body", ["kind = raw\nmatrix = 1 0; 0 0", "kind = ghz\nn = 2"], ids=["raw", "ghz"])
    def test_lone_surrogate_in_a_comment_exits_ok(self, tmp_path, body):
        # a byte that is not UTF-8 reaches argv as a lone surrogate
        text = f"statespec v1\n{body}  # \udc80\n"
        out = tmp_path / "r.json"
        assert run("probe", "--spec-text", text, "--out", str(out)) == EXIT_OK
        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
        expected = {"text_sha256": digest} if "raw" in body else {"text": text}
        assert expected.items() <= json.loads(out.read_text())["input"].items()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("probe", "--spec-text", GHZ_SPEC, "--out", str(a))
        run("probe", "--spec-text", GHZ_SPEC, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommands:
    def test_fig2a_rows(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        assert run("fig2a", "--points", "11", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,V1,V2,V3"
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("family", ["collision", "superposition"])
    def test_fig2a_builds_no_purity_table(self, tmp_path, monkeypatch, family):
        def unreachable(*args, **kwargs):
            raise AssertionError("fig2a built a subset-purity table")

        monkeypatch.setattr(separability, "all_subset_purities", unreachable)
        out = tmp_path / "fig2a.csv"
        assert run("fig2a", "--points", "11", "--family", family, "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 12

    def test_fig2a_requires_three_sites(self, tmp_path):
        assert run("fig2a", "--n", "4", "--out", str(tmp_path / "x.csv")) == EXIT_USAGE

    def test_fig2a_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("fig2a", "--points", "31", "--out", str(a))
        run("fig2a", "--points", "31", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fig2b_endpoints(self, tmp_path):
        out = tmp_path / "fig2b.csv"
        assert run("fig2b", "--points", "3", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,Pi_m1,Pi_m7,Pi_m14,Pi_m20"
        eps0 = [float(v) for v in lines[1].split(",")]
        eps1 = [float(v) for v in lines[-1].split(",")]
        assert eps0[1:] == pytest.approx([1.0] * 4, abs=1e-12)
        assert eps1[1:] == pytest.approx([0.5] * 4, abs=1e-12)

    def test_fig2b_m_validation(self, tmp_path):
        assert run("fig2b", "--m", "0,7", "--out", str(tmp_path / "x.csv")) == EXIT_USAGE

    @pytest.mark.parametrize("m", ["1,1", "7,1,07"])
    def test_fig2b_repeated_m_exits_usage_without_output(self, tmp_path, capsys, m):
        # a repeated m would repeat its column name in the header
        out = tmp_path / "x.csv"
        assert run("fig2b", "--m", m, "--out", str(out)) == EXIT_USAGE
        assert f"--m lists a value more than once, got {m!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_fig2b_unparsable_m_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("fig2b", "--m", "1,x", "--out", str(out)) == EXIT_USAGE
        assert "--m" in capsys.readouterr().err
        assert not out.exists()

    def test_m_count_beyond_cap_rejected_before_any_row(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a row was computed")

        out = tmp_path / "x.csv"
        at_cap = ",".join(map(str, range(1, MAX_M_VALUES + 1)))
        assert run("fig2b", "--m", at_cap, "--points", "3", "--out", str(out)) == EXIT_OK
        monkeypatch.setattr(cli, "cat_purity_closed_form", unreachable)
        out.unlink()
        assert run("fig2b", "--m", at_cap + ",1", "--out", str(out)) == EXIT_CAPACITY
        assert f"--m lists {MAX_M_VALUES + 1} values, beyond the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2a", "fig2b"])
    def test_zero_points_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert run(command, "--points", "0", "--out", str(out)) == EXIT_USAGE
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**10])
    def test_points_beyond_cap_rejected(self, tmp_path, capsys, command, points):
        out = tmp_path / "x.csv"
        assert run(command, "--points", str(points), "--out", str(out)) == EXIT_CAPACITY
        assert "--points" in capsys.readouterr().err
        assert not out.exists()


class TestLatticeValidateCommand:
    def test_default_report(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run("lattice-validate", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["bs_check"]["min_fidelity"] >= 1 - 1e-10
        assert report["hom"]["identical_pair_p_diff"] == pytest.approx(0.0, abs=1e-10)
        assert report["hom"]["singlet_p_diff"] == pytest.approx(1.0, abs=1e-10)
        assert all(p["passed"] for p in report["interaction_phase"])
        assert report["end_to_end_max_error"] <= 1e-9
        fids = [s["min_fidelity"] for s in report["uj_sweep"]]
        assert fids == sorted(fids, reverse=True)
        assert fids[-1] < fids[0]

    def test_zero_end_to_end_states_rejected(self, tmp_path, capsys):
        code = run("lattice-validate", "--end-to-end-states", "0", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE
        assert "--end-to-end-states" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--j", "--u"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_rejected(self, tmp_path, capsys, flag, bad):
        out = tmp_path / "x.json"
        assert run("lattice-validate", f"{flag}={bad}", "--out", str(out)) == EXIT_USAGE
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, bad", [("--j", "1e308"), ("--u", "1e308"), ("--j", "1e-320")])
    def test_overflowing_coupling_rejected(self, tmp_path, capsys, flag, bad):
        out = tmp_path / "x.json"
        assert run("lattice-validate", f"{flag}={bad}", "--out", str(out)) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states", [1, 2, 10, 57])
    @pytest.mark.parametrize("j, u, seed", [(1.0, 0.0, 0), (1.7, 0.3, 12)])
    def test_end_to_end_matches_a_per_state_loop(self, tmp_path, states, j, u, seed):
        # the command embeds, evolves and reads out all states in one array pass
        out = tmp_path / "lat.json"
        argv = ["--end-to-end-states", str(states), "--j", repr(j), "--u", repr(u), "--seed", str(seed)]
        assert run("lattice-validate", *argv, "--out", str(out)) == EXIT_OK
        entries = json.loads(out.read_text())["end_to_end"]
        want = ref_end_to_end(states, j, seed)
        assert len(entries) == len(want) == states
        for got, ref in zip(entries, want):
            assert got.keys() == ref.keys()
            assert got["seed"] == ref["seed"]
            for key in ("p_diff", "expected", "abs_error"):
                assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12)

    @pytest.mark.parametrize("j, u, seed", [(1.0, 0.0, 0), (1.7, 0.3, 12)])
    def test_checks_match_per_state_oracles(self, tmp_path, j, u, seed):
        # the splitter check and HOM lines run on one amplitude stack
        out = tmp_path / "lat.json"
        argv = ["--end-to-end-states", "1", "--j", repr(j), "--u", repr(u), "--seed", str(seed)]
        assert run("lattice-validate", *argv, "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        want = ref_lattice_checks(j, u, seed)
        np.testing.assert_allclose(report["bs_check"]["fidelities"], want["fidelities"], rtol=0, atol=1e-12)
        assert report["bs_check"]["min_fidelity"] == pytest.approx(min(want["fidelities"]), rel=0, abs=1e-12)
        assert report["hom"].keys() == want["hom"].keys()
        for key, value in want["hom"].items():
            assert report["hom"][key] == pytest.approx(value, rel=0, abs=1e-12)
        assert len(report["uj_sweep"]) == len(want["uj_sweep"])
        for got, ref in zip(report["uj_sweep"], want["uj_sweep"]):
            assert got["u_over_j"] == ref["u_over_j"]
            assert got["min_fidelity"] == pytest.approx(ref["min_fidelity"], rel=0, abs=1e-12)

    @pytest.mark.parametrize("argv", [[], ["--j", "1.7", "--u", "0.3", "--seed", "12"]], ids=["defaults", "j-u-seed"])
    def test_phase_entries_match_the_per_configuration_oracle(self, tmp_path, argv):
        out = tmp_path / "lat.json"
        assert run("lattice-validate", *argv, "--out", str(out)) == EXIT_OK
        entries = json.loads(out.read_text())["interaction_phase"]
        want = [ref_interaction_phase(theta, build_fock_basis(4, 2)) for theta in (0.1, math.pi / 2, math.pi)]
        assert len(entries) == len(want)
        for got, ref in zip(entries, want):
            assert list(got) == list(ref)
            assert got["max_deviation"] == pytest.approx(ref["max_deviation"], rel=0, abs=1e-12)
            assert {**got, "max_deviation": None} == {**ref, "max_deviation": None}

    @pytest.mark.parametrize(
        "argv, checks",
        [([], 4), (["--u", "0.3"], 5), (["--j", "2", "--u", "0.2"], 4), (["--u", "-0.0"], 4)],
        ids=["defaults", "u-off-the-sweep", "u-on-the-sweep", "signed-zero-u"],
    )
    def test_each_distinct_coupling_checked_once(self, tmp_path, monkeypatch, argv, checks):
        # --u and the sweep's U = ratio * J share one member of the one
        # splitter stack where they coincide
        real_check, real_propagator, stacks, evolved = cli.hopping_bs_check, lattice.propagator, [], []

        def check(J, us, basis, amplitudes):
            stacks.append(list(us))
            return real_check(J, us, basis, amplitudes)

        def counted(hamiltonian, t):
            evolved.append(hamiltonian.shape)
            return real_propagator(hamiltonian, t)

        monkeypatch.setattr(cli, "hopping_bs_check", check)
        monkeypatch.setattr(lattice, "propagator", counted)
        out = tmp_path / "lat.json"
        assert run("lattice-validate", *argv, "--end-to-end-states", "1", "--out", str(out)) == EXIT_OK
        [couplings] = stacks
        assert len(couplings) == len(set(couplings)) == checks
        # one stack of every splitter coupling and one of the three phase checks
        assert evolved == [(checks, 10, 10), (3, 10, 10)]

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("lattice-validate", "--out", str(a))
        run("lattice-validate", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_signed_zero_coupling_differs_only_in_params(self, tmp_path):
        # -0.0 == 0.0, so --u -0.0 shares the U = 0 check and echoes its own sign
        neg, pos = tmp_path / "neg.json", tmp_path / "pos.json"
        assert run("lattice-validate", "--u", "-0.0", "--out", str(neg)) == EXIT_OK
        assert run("lattice-validate", "--u", "0", "--out", str(pos)) == EXIT_OK
        # numbers kept as their text, so a sign flip anywhere shows
        neg_report, pos_report = (json.loads(p.read_text(), parse_int=str, parse_float=str) for p in (neg, pos))
        assert (neg_report["params"]["U"], pos_report["params"]["U"]) == ("-0.0", "0.0")
        neg_report["params"]["U"] = pos_report["params"]["U"]
        assert neg_report == pos_report
        signs = [math.copysign(1.0, json.loads(p.read_text())["params"]["U"]) for p in (neg, pos)]
        assert signs == [-1.0, 1.0]

    def test_negative_exponent_coupling_after_equals_runs(self, tmp_path):
        # argparse reads a bare -1e-05 as an option; --u=-1e-05 reaches the domain check
        out = tmp_path / "lat.json"
        assert run("lattice-validate", "--u=-1e-05", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["params"]["U"] == -1e-05

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-100, 100),
        u=st.just(0.0) | st.builds(lambda sign, y: sign * 10.0**y, st.sampled_from([-1.0, 1.0]), st.floats(-100, 100)),
    )
    def test_whole_coupling_domain_gives_a_finite_passing_report(self, x, u):
        # 10.0 ** x may round one ulp past the domain's ends, so J and |U| are clamped to them
        j = min(max(10.0**x, COUPLING_MIN), COUPLING_MAX)
        u = math.copysign(min(abs(u), COUPLING_MAX), u)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "lat.json"
            assert main(["lattice-validate", f"--j={j!r}", f"--u={u!r}", "--out", str(out)]) == EXIT_OK
            report = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"{token} in the report"))
        assert all(0.0 <= f <= 1 + 1e-12 for f in report["bs_check"]["fidelities"])
        assert report["uj_sweep"][0]["min_fidelity"] == pytest.approx(1.0, rel=0, abs=1e-12)
        assert report["end_to_end_max_error"] <= 1e-12
        assert all(entry["passed"] for entry in report["interaction_phase"])


#: The Python types a report may hold; numpy scalars are not among them.
_REPORT_TYPES = (dict, list, str, int, float, bool, type(None))


def _python_values(obj) -> bool:
    if type(obj) not in _REPORT_TYPES:
        return False
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return all(_python_values(v) for v in values)


class TestReportValues:
    def test_ghz4_probe_numbers_are_floats(self, tmp_path):
        out = tmp_path / "ghz4.json"
        assert run("probe", "--spec-text", "statespec v1\nkind = ghz\nn = 4\n", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        links = [l for c in report["chains"] for l in c["links"] + c["violations"]]
        numbers = [*report["purities"].values(), *report["sign_probabilities"].values()]
        numbers += [l["violation"] for l in links]
        # the integral ones included: the full purity 1, sign probabilities and violations 0
        assert 1.0 in numbers and 0.0 in numbers
        assert all(type(v) is float for v in numbers)

    def test_lattice_validate_numbers_are_floats(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run("lattice-validate", "--j", "1", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        params = report["params"]
        numbers = [params["J"], params["U"], params["t_bs"], *report["hom"].values()]
        numbers += [*report["bs_check"]["fidelities"], report["bs_check"]["min_fidelity"]]
        numbers += [s[key] for s in report["uj_sweep"] for key in ("u_over_j", "min_fidelity")]
        numbers += [p[key] for p in report["interaction_phase"] for key in ("theta", "max_deviation")]
        numbers += [e[key] for e in report["end_to_end"] for key in ("p_diff", "expected", "abs_error")]
        assert (params["J"], params["U"]) == (1.0, 0.0)
        assert all(type(v) is float for v in numbers)

    @pytest.mark.parametrize(
        "argv",
        [
            *(["probe", "--spec-text", f"statespec v1\n{body}\n"] for body in THREE_SITE_SPECS.values()),
            ["lattice-validate", "--j", "1.7", "--u=0.3", "--seed", "3"],
            ["cat-experiment", "--epsilon", "0.6", "--runs", "50"],
        ],
        ids=[*THREE_SITE_SPECS, "lattice-validate", "cat-experiment"],
    )
    def test_every_report_holds_python_values(self, tmp_path, monkeypatch, argv):
        written = []

        def record(path, obj):
            written.append(obj)
            write_json(path, obj)

        monkeypatch.setattr(cli, "write_json", record)
        assert run(*argv, "--out", str(tmp_path / "r.json")) == EXIT_OK
        assert len(written) == 1 and _python_values(written[0])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_subsets_follow_the_report_key_order(self, tmp_path, n):
        out = tmp_path / "p.json"
        spec = "statespec v1\nkind = product\nqubits = " + "; ".join(["0,0"] * n) + "\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_OK
        subsets = separability.SubsetPurityMap(n, np.ones(2**n)).subsets()
        sites = range(1, n + 1)
        assert subsets == [s for k in sites for s in itertools.combinations(sites, k)]
        assert [",".join(map(str, s)) for s in subsets] == list(json.loads(out.read_text())["purities"])


class TestCatExperimentCommand:
    def test_recovers_epsilon(self, tmp_path):
        out = tmp_path / "cat.json"
        assert (
            run("cat-experiment", "--epsilon", "0.6", "--runs", "200", "--seed", "7", "--out", str(out))
            == EXIT_OK
        )
        report = json.loads(out.read_text())
        assert report["abs_error"] <= 0.02
        assert report["informative_runs"] == 200

    def test_missing_epsilon_exits_usage_naming_it(self, tmp_path):
        # --epsilon has no default: argparse's usage error, in a fresh process
        out = tmp_path / "cat.json"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-m", "puritynet", "cat-experiment", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert fresh.returncode == EXIT_USAGE
        assert "error: the following arguments are required: --epsilon" in fresh.stderr
        assert "Traceback" not in fresh.stderr and not out.exists()

    def test_no_loss_is_rejected(self, tmp_path):
        code = run(
            "cat-experiment", "--epsilon", "0.6", "--survival", "1.0", "--out", str(tmp_path / "x.json")
        )
        assert code == EXIT_INVERSION

    def test_total_loss_is_rejected(self, tmp_path):
        # every run loses all N atoms, the other uninformative edge
        out = tmp_path / "x.json"
        assert run("cat-experiment", "--epsilon", "0.6", "--survival", "0", "--out", str(out)) == EXIT_INVERSION
        assert not out.exists()

    def test_zero_runs_is_a_usage_error(self, tmp_path, capsys):
        # not an inversion failure: no run was sampled at all
        code = run("cat-experiment", "--epsilon", "0.6", "--runs", "0", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("atoms", ["0", "1"])
    def test_too_few_atoms_is_a_usage_error(self, tmp_path, capsys, atoms):
        # not an inversion failure: 0 < n < N cannot hold for N < 2
        out = tmp_path / "x.json"
        assert run("cat-experiment", "--epsilon", "0.5", "--n", atoms, "--runs", "5", "--out", str(out)) == EXIT_USAGE
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_validation(self, tmp_path):
        assert (
            run("cat-experiment", "--epsilon", "1.5", "--out", str(tmp_path / "x.json")) == EXIT_USAGE
        )

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("survival", [0.90, 0.99])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 0.9, 1.0])
    def test_matches_per_run_oracle(self, tmp_path, epsilon, survival, seed):
        out = tmp_path / "cat.json"
        argv = ["--n", "300", "--epsilon", str(epsilon), "--survival", str(survival), "--runs", "300"]
        assert run("cat-experiment", *argv, "--seed", str(seed), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        expected = ref_cat_experiment(300, epsilon, survival, 300, seed)
        assert {key: report[key] for key in expected} == expected
        assert report["params"] == {
            "n_atoms": 300, "epsilon_true": epsilon, "survival_prob": survival, "runs": 300,
        }
        assert report["seed"] == seed

    @pytest.mark.parametrize(
        "atoms, epsilon, survival, seed",
        [(300, 0.6, 0.95, 0), (50, 0.5, 0.6, 8), (20, 0.3, 0.97, 3), (5, 0.9, 0.2, 11)],
    )
    def test_matches_exact_loss_distribution(self, tmp_path, atoms, epsilon, survival, seed):
        # Each run draws its loss count afresh, so every run mean lies within
        # z sigma / sqrt(sample size) of its exact expectation.
        runs, z = 2000, 5.0
        out = tmp_path / "cat.json"
        argv = ["--n", str(atoms), "--epsilon", str(epsilon), "--survival", str(survival), "--runs", str(runs)]
        assert run("cat-experiment", *argv, "--seed", str(seed), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())

        def assert_within(got, values, weights, size):
            mean = float(np.dot(weights, values))
            sigma = math.sqrt(max(0.0, float(np.dot(weights, values**2)) - mean**2))
            assert abs(got - mean) <= z * sigma / math.sqrt(size) + 1e-12

        p = np.array(ref_loss_count_distribution(atoms, survival))
        counts = np.arange(atoms + 1.0)
        uninformative = np.zeros(atoms + 1)
        uninformative[[0, -1]] = 1.0
        assert_within(report["mean_n"], counts, p, runs)
        assert_within(report["uninformative_runs"] / runs, uninformative, p, runs)
        # the mean purity is over the informative runs, 0 < n < N
        purities = np.array([cat_purity_closed_form(atoms, k, 1.0 - epsilon**2) for k in range(1, atoms)])
        p_informative = p[1:-1] / p[1:-1].sum()
        assert_within(report["mean_purity"], purities, p_informative, report["informative_runs"])

    def test_each_loss_count_inverted_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return estimate_epsilon(*args)

        monkeypatch.setattr(cli, "estimate_epsilon", counted)
        argv = ["--n", "300", "--epsilon", "0.6", "--survival", "0.95", "--runs", "1000", "--seed", "0"]
        assert run("cat-experiment", *argv, "--out", str(tmp_path / "cat.json")) == EXIT_OK
        losses = np.random.default_rng(0).binomial(300, 1.0 - 0.95, size=(1000, 2))
        counts = set(losses.max(axis=1).tolist()) - {0, 300}
        # one inversion per distinct informative count, plus the mean-purity diagnostic
        assert len(calls) == len(counts) + 1

    def test_median_inversion_takes_at_most_two_evaluations(self, tmp_path, monkeypatch):
        # estimate_epsilon's Newton solve evaluates the closed form and its
        # slope through one private helper, at most 64 times (its loop guard)
        evaluations, per_inversion = [], []
        helper = states._cat_purity_and_slope

        def counted_helper(*args):
            evaluations.append(args)
            return helper(*args)

        def counted(*args):
            before = len(evaluations)
            value = estimate_epsilon(*args)
            per_inversion.append(len(evaluations) - before)
            return value

        monkeypatch.setattr(states, "_cat_purity_and_slope", counted_helper)
        monkeypatch.setattr(cli, "estimate_epsilon", counted)
        argv = ["--n", "300", "--epsilon", "0.6", "--survival", "0.95", "--runs", "1000", "--seed", "0"]
        assert run("cat-experiment", *argv, "--out", str(tmp_path / "cat.json")) == EXIT_OK
        assert per_inversion and float(np.median(per_inversion)) <= 2
        assert max(per_inversion) < 64

    @pytest.mark.parametrize(
        "argv, expected",
        [(["--epsilon", "0"], 0.0), (["--epsilon", "1"], 1.0), (["--n", "1000000000", "--epsilon", "0.5"], 1.0)],
        ids=["epsilon-0", "epsilon-1", "underflow"],
    )
    def test_epsilon_at_the_ends_of_its_range(self, tmp_path, argv, expected):
        # Pi is exactly 1 at epsilon = 0 and exactly 1/2 at epsilon = 1 (or once
        # gamma^n underflows), and the band's ends invert exactly
        out = tmp_path / "cat.json"
        assert run("cat-experiment", *argv, "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["epsilon_estimated"] == expected
        assert report["epsilon_from_mean_purity"] == expected


CAT_ARGV = ["cat-experiment", "--epsilon", "0.6"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (CAT_ARGV + ["--seed", "-5"], "--seed"),
        (["lattice-validate", "--seed", "-2000"], "--seed"),
        (CAT_ARGV + ["--survival", "1.5"], "--survival"),
        (CAT_ARGV + ["--survival", "nan"], "--survival"),
        (["cat-experiment", "--epsilon", "1.5"], "--epsilon"),
        (["probe", "--spec-text", GHZ_SPEC, "--qubit-cap", "0"], "--qubit-cap"),
        (["probe", "--spec-text", GHZ_SPEC, "--qubit-cap", "-3"], "--qubit-cap"),
    ],
    ids=[
        "cat-seed", "lattice-seed", "survival-above-1", "survival-nan", "epsilon-above-1",
        "qubit-cap-0", "qubit-cap-neg",
    ],
)
def test_seed_survival_and_epsilon_name_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.json"
    assert run(*argv, "--out", str(out)) == EXIT_USAGE
    assert f"error: {flag} must " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, count",
    [
        (CAT_ARGV + ["--runs"], MAX_RUNS + 1),
        (CAT_ARGV + ["--runs"], 10**10),
        (["lattice-validate", "--end-to-end-states"], MAX_END_TO_END_STATES + 1),
        (["lattice-validate", "--end-to-end-states"], 10**10),
        # at 10**400 fig2b's closed form overflows a float; at 10**20 numpy's binomial draw does
        (["fig2b", "--m", "1", "--n"], MAX_ATOMS + 1),
        (["fig2b", "--m", "1", "--n"], 10**20),
        (["fig2b", "--m", "1", "--n"], 10**400),
        (CAT_ARGV + ["--n"], MAX_ATOMS + 1),
        (CAT_ARGV + ["--n"], 10**20),
        (CAT_ARGV + ["--n"], 10**400),
        (["probe", "--spec-text", GHZ_SPEC, "--qubit-cap"], MAX_QUBIT_CAP + 1),
    ],
    ids=[
        "runs-cap+1", "runs-1e10", "states-cap+1", "states-1e10",
        "fig2b-atoms-cap+1", "fig2b-atoms-1e20", "fig2b-atoms-1e400",
        "cat-atoms-cap+1", "cat-atoms-1e20", "cat-atoms-1e400",
        "qubit-cap-cap+1",
    ],
)
def test_run_counts_beyond_cap_rejected(tmp_path, capsys, argv, count):
    out = tmp_path / "x.json"
    assert run(*argv, str(count), "--out", str(out)) == EXIT_CAPACITY
    assert f"{argv[-1]} {count} is beyond the cap" in capsys.readouterr().err
    assert not out.exists()


def _numeric_flags() -> list[tuple[str, str, type, str]]:
    """(command, flag, type, dest) of every int or float option of every subcommand."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return [
        (command, option, action.type, action.dest)
        for command, sub in commands.items()
        for action in sub._actions
        if action.type in (int, float)
        for option in action.option_strings
    ]


NUMERIC_FLAGS = _numeric_flags()


def test_every_numeric_flag_has_one_domain():
    flags = [(command, flag) for command, flag, _, _ in NUMERIC_FLAGS]
    assert len(flags) == len(set(flags))
    assert sorted(flags) == sorted((command, flag) for command in FLAG_DOMAINS for flag in FLAG_DOMAINS[command])


#: What each command requires besides ``--out`` and the flag under test.
REQUIRED_ARGV = {"probe": ["--spec-text", GHZ_SPEC], "cat-experiment": ["--epsilon", "0.5"]}


@pytest.mark.parametrize("command", FLAG_DOMAINS)
def test_minimal_argv_gives_each_numeric_flag_its_declared_default(command):
    required = REQUIRED_ARGV.get(command, [])
    args = cli.build_parser().parse_args([command, *required, "--out", os.devnull])
    for flag, domain in FLAG_DOMAINS[command].items():
        # a required flag (default None) takes the value its REQUIRED_ARGV entry gives
        want = domain.type(required[required.index(flag) + 1]) if domain.default is None else domain.default
        value = getattr(args, flag[2:].replace("-", "_"))
        assert type(value) is domain.type and value == want, flag


def _flag_texts(kind: type, domain) -> st.SearchStrategy[str]:
    """Texts of values inside, at and just past each bound of ``domain``,
    non-finite floats and integers of 10**20 and more."""
    edges = [b for b in (domain.low, domain.high, domain.cap) if math.isfinite(b)]
    if kind is int:
        near = [b + step for b in edges for step in (-1, 0, 1)]
        inside = st.integers(domain.low, min(domain.high, domain.cap, 10**30))
    else:
        near = [x for b in edges for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        near += [math.nan, math.inf, -math.inf]
        high = min(domain.high, domain.cap)
        inside = st.floats(domain.low, high if math.isfinite(high) else None, allow_infinity=False)
    huge = [10**20, 10**400, -(10**20)]
    return st.sampled_from(near + huge).map(repr) | inside.map(repr)


def _expected_exit(domain, value) -> int:
    finite = not isinstance(value, float) or math.isfinite(value)
    if not (finite and domain.low <= value <= domain.high):
        return EXIT_USAGE
    return EXIT_CAPACITY if value > domain.cap else EXIT_OK


@pytest.mark.parametrize("command, flag, kind, dest", NUMERIC_FLAGS, ids=[f"{c}{f}" for c, f, _, _ in NUMERIC_FLAGS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flag_domains_at_their_bounds(command, flag, kind, dest, data):
    domain = FLAG_DOMAINS[command][flag]
    text = data.draw(_flag_texts(kind, domain))
    value = kind(text)
    calls, err = [], io.StringIO()
    # handlers are looked up at call time, so a recording stub stands in for the work
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, "run_" + command.replace("-", "_"), lambda args: calls.append(args) or EXIT_OK)
        code = main([command, *REQUIRED_ARGV.get(command, []), f"{flag}={text}", "--out", os.devnull])
    expected = _expected_exit(domain, value)
    assert code == expected
    if expected == EXIT_OK:
        assert len(calls) == 1 and getattr(calls[0], dest) == value
    else:
        assert calls == []
        assert err.getvalue().startswith(f"error: {flag} ") and "Traceback" not in err.getvalue()


#: Literals the spec fuzz draws from: well-formed, malformed, huge, tiny and non-finite.
_SPEC_TOKENS = ["0", "1", "-1", "0.5", "0.8j", "1+0j", "2", "3", "15", "1e308", "-1e308", "1e400", "1e-320",
                "nan", "inf", "-inf", "x", "", "1,0", "1,inf", "10**20"]
_LITERALS = st.sampled_from(_SPEC_TOKENS) | st.floats().map(repr) | st.integers(-5, 20).map(str)


def _mostly(good: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """``good`` four times in five, else a drawn literal."""
    return st.integers(0, 4).flatmap(lambda k: good if k else _LITERALS)


_BLOCH = _mostly(st.tuples(st.floats(-4, 4), st.floats(-4, 4)).map(lambda angles: "%r,%r" % angles))


@st.composite
def _raw_entries(draw, matrix: bool) -> str:
    """Amplitudes of a unit vector v, or the entries of the density matrix
    w |v><v| + (1 - w) diag(v^2), over 1 to 16 dimensions: mostly as they
    are, else all scaled far up or down, and one entry possibly replaced by
    a drawn literal."""
    dim = 2 ** draw(st.integers(0, 4))
    v = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
    v = v / (np.linalg.norm(v) or 1.0)
    w = draw(st.floats(0, 1))
    values = w * np.outer(v, v) + (1 - w) * np.diag(v**2) if matrix else v[None, :]
    values = values * draw(st.sampled_from([1.0, 1e308, 1.0, 1e-300, 1.0, 1.001]))
    entries = [list(map(repr, row)) for row in values.tolist()]
    if draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))][draw(st.integers(0, dim - 1))] = draw(_LITERALS)
    return ";".join(map(" ".join, entries))


_SPEC_VALUES = {
    "n": _mostly(st.integers(1, 4).map(str)),
    "phi": _mostly(st.floats().map(repr)),
    "phi1": _BLOCH,
    "phi2": _BLOCH,
    "qubits": st.lists(_BLOCH, max_size=5).map("; ".join),
    "amplitudes": _raw_entries(matrix=False),
    "matrix": _raw_entries(matrix=True),
    "colour": _LITERALS,
}


@st.composite
def _spec_texts(draw) -> str:
    """Spec text near the grammar: one kind with values for its fields, now
    and then one field swapped for another key or a bad header; or any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    kind = draw(st.sampled_from(sorted(cli.SPEC_FIELDS)))
    keys = [draw(st.sampled_from(["amplitudes", "matrix"]))] if kind == "raw" else sorted(cli.SPEC_FIELDS[kind])
    if draw(st.integers(0, 4)) == 0:
        keys[draw(st.integers(0, len(keys) - 1))] = draw(st.sampled_from(sorted(_SPEC_VALUES)))
    header = cli.SPEC_HEADER if draw(st.integers(0, 19)) else "statespec v2"
    return "\n".join([header, f"kind = {kind}"] + [f"{key} = {draw(_SPEC_VALUES[key])}" for key in keys])


@settings(max_examples=300, deadline=None)
@given(
    spec=_spec_texts(),
    chains=st.none() | st.sampled_from(["1,2>1", "1,1>1", "0,1>1", "1,>1", ";"]) | st.text("0123,>;-", max_size=10),
)
def test_spec_text_ends_in_a_documented_exit(spec, chains):
    """The real handlers on drawn spec text end in a documented exit code
    with no exception or RuntimeWarning, writing valid JSON or no file."""
    argv = ["probe", f"--spec-text={spec}", "--qubit-cap", "3"] + ([f"--chains={chains}"] if chains is not None else [])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY, EXIT_INVERSION, cli.EXIT_IO)
        if code == EXIT_OK:
            json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"{token} in the report"))
        else:
            assert not out.exists()


def _plan_specs() -> dict[str, tuple[str, str | None]]:
    """(spec text, --chains or None) of ``ghz``, odd-N ``cluster_family`` and
    ``product`` at N = 1..8 (each kind from its smallest N), and a ``raw``
    N = 4 matrix given ragged chains of lengths 2..4, labels in random order."""
    rng = np.random.default_rng(26)
    specs = {}
    for n in range(1, 9):
        if n >= 2:
            specs[f"ghz-{n}"] = (f"statespec v1\nkind = ghz\nn = {n}\n", None)
        if n % 2 and n >= 3:
            phi = rng.uniform(0.1, 6)
            specs[f"cluster_family-{n}"] = (f"statespec v1\nkind = cluster_family\nn = {n}\nphi = {phi!r}\n", None)
        qubits = "; ".join(f"{rng.uniform(0, 3)!r},{rng.uniform(0, 6)!r}" for _ in range(n))
        specs[f"product-{n}"] = (f"statespec v1\nkind = product\nqubits = {qubits}\n", None)
    rows = ";".join(" ".join(repr(complex(v)) for v in row) for row in ref_random_state(4, 3, seed=26).matrix)
    chains = []
    for length in (2, 3, 4, 3, 2):
        sites = rng.permutation(np.arange(1, 5)).tolist()
        sizes = sorted(rng.choice(np.arange(1, 5), size=length, replace=False).tolist(), reverse=True)
        chains.append(">".join(",".join(map(str, rng.permutation(sites[:k]))) for k in sizes))
    specs["raw-4-chains"] = (f"statespec v1\nkind = raw\nmatrix = {rows}\n", ";".join(chains))
    return specs


PLAN_SPECS = _plan_specs()


def _probe_argv(name: str, out) -> list[str]:
    spec, chains = PLAN_SPECS[name]
    return ["probe", "--spec-text", spec, *(["--chains", chains] if chains else []), "--out", str(out)]


class TestProbePlans:
    """``probe`` builds its per-N report plan and pure-state root plan once
    per process; a report must not depend on whether they were cached."""

    def test_warm_cold_and_fresh_process_reports_are_byte_identical(self, tmp_path):
        cli._report_plan.cache_clear()
        separability._pure_roots.cache_clear()
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for name in PLAN_SPECS:
            runs = [tmp_path / f"{name}-{k}.json" for k in ("first", "second", "fresh")]
            for out in runs[:2]:
                assert main(_probe_argv(name, out)) == EXIT_OK
            fresh = subprocess.run([sys.executable, "-m", "puritynet", *_probe_argv(name, runs[2])], env=env)
            assert fresh.returncode == EXIT_OK
            first, *others = (out.read_bytes() for out in runs)
            assert others == [first, first], name

    def test_chain_reports_match_check_chain_link_by_link(self, tmp_path):
        # each link checked against purities of an independent partial trace
        spec, chains = PLAN_SPECS["raw-4-chains"]
        out = tmp_path / "r.json"
        assert main(_probe_argv("raw-4-chains", out)) == EXIT_OK
        report = json.loads(out.read_text())
        rho = parse_state_spec(spec)[0].matrix
        parsed = parse_chains(chains)
        assert sorted(len(c) for c in parsed) == [2, 2, 3, 3, 4]
        for got, chain in zip(report["chains"], parsed, strict=True):
            keys = [",".join(map(str, s)) for s in chain]
            assert got["chain"] == keys
            links = got["links"]
            assert [(l["larger"], l["smaller"]) for l in links] == list(zip(keys, keys[1:]))
            for link, big, small in zip(links, chain, chain[1:]):
                want = ref_subset_purity(rho, 4, big) - ref_subset_purity(rho, 4, small)
                assert link["violation"] == pytest.approx(want, abs=1e-12)
            assert got["violations"] == [l for l in links if l["violation"] > report["threshold"]]
            assert got["entangled"] is bool(got["violations"])
        assert report["max_violation"] == max(l["violation"] for c in report["chains"] for l in c["links"])

    def test_cached_plans_cannot_be_mutated(self):
        plan = cli._report_plan(4)
        assert cli._report_plan(4) is plan
        for array in (plan.order, *(getattr(plan.default_chains, a) for a in ("larger", "smaller", "offsets"))):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        for keys in (plan.keys, plan.key_of, plan.sign_keys, plan.default_chains.chains):
            assert isinstance(keys, tuple)
            with pytest.raises(TypeError):
                keys[0] = keys[-1]

    def test_interleaved_sizes_build_each_plan_once(self, tmp_path):
        # probes at N = 4..10 taken in turn, twice over: every size's plans stay cached
        cli._report_plan.cache_clear()
        separability._pure_roots.cache_clear()
        for _ in range(2):
            for n in range(4, 11):
                spec = f"statespec v1\nkind = ghz\nn = {n}\n"
                assert main(["probe", "--spec-text", spec, "--out", str(tmp_path / "p.json")]) == EXIT_OK
        for plan in (cli._report_plan, separability._pure_roots):
            assert plan.cache_info().misses == 7
            assert plan.cache_info().maxsize == separability.PLAN_SIZES_KEPT

    def test_default_chains(self):
        # all 4! / 1! = 24 maximal chains at N = 4, one left-to-right chain above, none at N = 1
        assert len(cli._report_plan(4).default_chains.chains) == 24
        assert cli._report_plan(5).default_chains.chains == ((31, 30, 28, 24, 16),)
        assert cli._report_plan(1).default_chains.chains == ()


#: How a report echoes a numeric flag that may be given a negative value.
_FLAG_ECHO = {("lattice-validate", "--u"): lambda report: report["params"]["U"]}

#: Arguments that keep each command short besides the flag under test.
_QUICK_ARGV = {**REQUIRED_ARGV, "lattice-validate": ["--end-to-end-states", "1"]}


def _negative_text(kind: type) -> str:
    """A negative value of the flag's type: exponent form for a float."""
    return "-1e-05" if kind is float else "-3"


def _check_negative_value(command, flag, kind, code, err, out) -> None:
    text = _negative_text(kind)
    if _expected_exit(FLAG_DOMAINS[command][flag], kind(text)) == EXIT_OK:
        assert code == EXIT_OK and err == ""
        # numbers kept as their text, so the echo is exact
        assert _FLAG_ECHO[command, flag](json.loads(out.read_text(), parse_float=str)) == text
    else:
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {flag} must ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command, flag, kind, dest", NUMERIC_FLAGS, ids=[f"{c}{f}" for c, f, _, _ in NUMERIC_FLAGS])
def test_negative_value_after_a_space_reaches_the_domain_check(tmp_path, capsys, command, flag, kind, dest):
    # argparse alone reads a bare -1e-05 as an option and stops at "expected one argument"
    out = tmp_path / "r.out"
    code = main([command, *_QUICK_ARGV.get(command, []), flag, _negative_text(kind), "--out", str(out)])
    _check_negative_value(command, flag, kind, code, capsys.readouterr().err, out)


def test_negative_values_after_a_space_in_fresh_processes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for k, (command, flag, kind, _) in enumerate(NUMERIC_FLAGS):
        out = tmp_path / f"r{k}.out"
        argv = [command, *_QUICK_ARGV.get(command, []), flag, _negative_text(kind), "--out", str(out)]
        fresh = subprocess.run([sys.executable, "-m", "puritynet", *argv], env=env, capture_output=True, text=True)
        _check_negative_value(command, flag, kind, fresh.returncode, fresh.stderr, out)


#: A prefix of a flag is not the flag: each is rejected by argparse as unrecognized.
_ABBREVIATED_ARGV = [
    ["probe", "--spec-text", GHZ_SPEC, "--thresh", "1e-5"],
    ["probe", "--spec-text", GHZ_SPEC, "--thresh", "-1e-5"],
    ["lattice-validate", "--end-to-end", "2"],
    ["cat-experiment", "--epsilon", "0.5", "--surv", "0.9"],
]


@pytest.mark.parametrize("argv", _ABBREVIATED_ARGV, ids=["thresh", "thresh-negative", "end-to-end", "surv"])
def test_abbreviated_flag_is_unrecognized(tmp_path, capsys, argv):
    out = tmp_path / "r.out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_flags_are_unrecognized_in_fresh_processes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for k, argv in enumerate(_ABBREVIATED_ARGV):
        out = tmp_path / f"r{k}.out"
        fresh = subprocess.run(
            [sys.executable, "-m", "puritynet", *argv, "--out", str(out)], env=env, capture_output=True, text=True
        )
        assert fresh.returncode == EXIT_USAGE
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in fresh.stderr
        assert "Traceback" not in fresh.stderr and not out.exists()


class TestOneParserPerProcess:
    """``main`` reuses one argument parser, so no call may see another's
    options or defaults."""

    def test_in_process_calls_match_fresh_interpreters(self, tmp_path, capsys):
        commands = [
            ["probe", "--spec-text", GHZ_SPEC, "--chains", "1,2,3>2,3>3", "--out", "{out}.json"],
            ["probe", "--spec-text", GHZ_SPEC, "--chains", "1,2>1", "--threshold", "0.5", "--out"],
            ["probe", "--spec-text", GHZ_SPEC, "--out", "{out}.json"],
            ["fig2a", "--points", "5", "--out", "{out}.csv"],
            ["lattice-validate", "--end-to-end-states", "2", "--out", "{out}.json"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for k, argv in enumerate(commands):
            here = [a.format(out=tmp_path / f"in{k}") for a in argv]
            alone = [a.format(out=tmp_path / f"alone{k}") for a in argv]
            try:
                code = main(here)
            except SystemExit as exc:  # the argparse usage error
                code = exc.code
            err = capsys.readouterr().err
            fresh = subprocess.run(
                [sys.executable, "-m", "puritynet", *alone], env=env, capture_output=True, text=True
            )
            assert (code, err) == (fresh.returncode, fresh.stderr)
            if code == EXIT_OK:
                assert Path(here[-1]).read_bytes() == Path(alone[-1]).read_bytes()

    def test_a_replaced_handler_is_the_one_that_runs(self, tmp_path, monkeypatch):
        assert run("fig2a", "--points", "3", "--out", str(tmp_path / "x.csv")) == EXIT_OK
        monkeypatch.setattr(cli, "run_fig2a", lambda args: 42)
        assert run("fig2a", "--points", "3", "--out", str(tmp_path / "x.csv")) == 42
