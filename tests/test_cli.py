import json
import math

import numpy as np
import pytest

from puritynet.cli import (
    EXIT_CAPACITY,
    EXIT_INVERSION,
    EXIT_OK,
    EXIT_USAGE,
    SpecParseError,
    format_float,
    json_text,
    main,
    parse_chains,
    parse_state_spec,
)
from puritynet import bs_network, cli, qstate, separability
from puritynet.qstate import CapacityError, purity, random_state

from conftest import tensor

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


class TestStateSpecParsing:
    def test_ghz(self):
        rho, echo = parse_state_spec(GHZ_SPEC)
        assert echo["kind"] == "ghz" and echo["n_sites"] == 3
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_bloch_angles(self):
        rho, _ = parse_state_spec(PRODUCT_SPEC)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cluster_family(self):
        rho, echo = parse_state_spec("statespec v1\nkind = cluster_family\nn = 2\nphi = 3.141592653589793\n")
        assert echo["phi"] == pytest.approx(math.pi)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_cat_with_bloch_angles(self):
        text = "statespec v1\nkind = cat\nn = 3\nphi1 = 0,0\nphi2 = 3.141592653589793,0\n"
        rho, echo = parse_state_spec(text)
        assert echo["epsilon"] == pytest.approx(1.0, abs=1e-9)

    def test_raw_amplitudes_renormalized_within_tolerance(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2) * (1 + 5e-7)
        text = "statespec v1\nkind = raw\namplitudes = " + " ".join(str(complex(a)) for a in amps)
        rho, _ = parse_state_spec(text)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_raw_amplitudes_rejected_when_norm_off(self):
        with pytest.raises(SpecParseError, match="norm"):
            parse_state_spec("statespec v1\nkind = raw\namplitudes = 1+0j 1+0j\n")

    def test_raw_matrix_mixture(self):
        mixture = 0.5 * np.kron(np.diag([1, 0]), np.diag([1, 0])) + 0.5 * np.kron(
            np.diag([0, 1]), np.diag([0, 1])
        )
        rows = ";".join(" ".join(str(complex(v)) for v in row) for row in mixture)
        rho, _ = parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_raw_matrix_negative_rejected(self):
        rows = "1.2+0j 0j;0j -0.2+0j"
        with pytest.raises(SpecParseError, match="eigenvalue"):
            parse_state_spec(f"statespec v1\nkind = raw\nmatrix = {rows}\n")

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
        rho, _ = parse_state_spec("statespec v1\n# a comment\n\nkind = ghz\nn = 2\n")
        assert rho.n_qubits == 2

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
        rho, _ = parse_state_spec(f"statespec v1\n{body}\n", cap=3)
        assert rho.n_qubits == 3

    def test_parse_chains(self):
        chains = parse_chains("1,2,3>1,2>1;1,2>2", 3)
        assert chains == [((1, 2, 3), (1, 2), (1,)), ((1, 2), (2,))]


class TestSerialization:
    def test_float_17_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(0.5) == "0.5"

    def test_json_round_trip(self):
        obj = {"a": 1 / 3, "b": [True, None, 7], "c": {"k": "v"}}
        parsed = json.loads(json_text(obj))
        assert parsed["a"] == 1 / 3
        assert parsed["b"] == [True, None, 7]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_never_serialized(self, bad):
        # bare NaN/Infinity tokens are not JSON
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"ok": 1.0, "nested": [bad]})
        with pytest.raises(ValueError, match="non-finite"):
            format_float(bad)


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

    def test_separable_mixture_via_matrix(self, tmp_path):
        rho = tensor([random_state(1, 2, 3), random_state(1, 2, 4)])
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

    def test_io_error_exit_code(self):
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", "/nonexistent-dir/x.json") == 5

    def test_builds_one_purity_table(self, tmp_path, monkeypatch):
        real, calls = separability.all_subset_purities, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (separability, bs_network, cli):
            monkeypatch.setattr(module, "all_subset_purities", counting)
        assert run("probe", "--spec-text", GHZ_SPEC, "--out", str(tmp_path / "x.json")) == EXIT_OK
        assert len(calls) == 1

    def test_non_finite_threshold_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        for bad in ("nan", "inf", "-inf"):
            assert run("probe", "--spec-text", GHZ_SPEC, f"--threshold={bad}", "--out", str(out)) == EXIT_USAGE
            assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_phi_exits_usage_without_output(self, tmp_path):
        out = tmp_path / "x.json"
        spec = "statespec v1\nkind = cluster_family\nn = 3\nphi = nan\n"
        assert run("probe", "--spec-text", spec, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_one_by_one_matrix_exits_usage(self, tmp_path, capsys):
        spec = "statespec v1\nkind = raw\nmatrix = 1+0j\n"
        assert run("probe", "--spec-text", spec, "--out", str(tmp_path / "x.json")) == EXIT_USAGE
        assert "at least one site" in capsys.readouterr().err

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

    def test_fig2b_unparsable_m_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("fig2b", "--m", "1,x", "--out", str(out)) == EXIT_USAGE
        assert "--m" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig2a", "fig2b"])
    def test_zero_points_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert run(command, "--points", "0", "--out", str(out)) == EXIT_USAGE
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

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("lattice-validate", "--out", str(a))
        run("lattice-validate", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


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

    def test_no_loss_is_rejected(self, tmp_path):
        code = run(
            "cat-experiment", "--epsilon", "0.6", "--survival", "1.0", "--out", str(tmp_path / "x.json")
        )
        assert code == EXIT_INVERSION

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
