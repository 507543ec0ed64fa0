import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ritzbounds
from ritzbounds import cli
from ritzbounds.bounds import csv_to_rows
from ritzbounds.densela import write_matrix_text
from ritzbounds.models import hkappa_matrix, hkappa_reference

import mp_oracle
from conftest import graded_dad, haar_orthogonal, random_subspace


@pytest.fixture
def kappa_files(tmp_path):
    matrix = tmp_path / "h10.txt"
    write_matrix_text(matrix, hkappa_matrix(10.0).entries)
    subspace = tmp_path / "e1.txt"
    write_matrix_text(subspace, np.array([[1.0], [0.0], [0.0]]))
    return matrix, subspace


def run_cli(*argv):
    return cli.main(list(argv))


class TestBoundsCommand:
    def test_kappa_json_report(self, kappa_files, tmp_path):
        matrix, subspace = kappa_files
        out = tmp_path / "report.json"
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", str(subspace),
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mu"][0] == pytest.approx(1 / 101, abs=1e-16)
        assert report["etas"][0] == pytest.approx(hkappa_reference(10.0).eta, rel=1e-12)
        assert report["flags"]["routes_agree"]

    def test_identity_matrix_zero_width(self, tmp_path, capsys):
        matrix = tmp_path / "eye.txt"
        write_matrix_text(matrix, np.eye(3))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(3)[:, :1])
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", str(subspace),
            "--format", "json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mu"] == [1.0]
        assert report["etas"][0] <= 1e-14
        first_order = [e for e in report["entries"] if e["theorem"] == "first_order"]
        assert first_order and all(e["upper"] - e["lower"] <= 1e-13 for e in first_order)

    def test_rotated_cluster_trace_sandwich(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        q = haar_orthogonal(rng, 3)
        h = (q * np.array([1.0, 1.0, 5.0])) @ q.T
        basis, _ = np.linalg.qr(q[:, :2] + 0.1 * rng.standard_normal((3, 2)))
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, 0.5 * (h + h.T))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, basis)
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", str(subspace),
            "--format", "json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        mu = np.array(report["mu"])
        true_sum = float(((mu - 1.0) / mu).sum())
        assert report["aggregates"]["trace_lower"] <= true_sum * (1 + 1e-9)
        assert true_sum <= report["aggregates"]["trace_upper"] * (1 + 1e-9)

    @pytest.mark.parametrize("q", ["0", "-10"])
    def test_q_below_one_is_usage_error(self, q, tmp_path, capsys):
        # rejected while parsing, like --k-trunc, with no report attempted
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, np.diag(np.arange(1.0, 7.0)))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(6)[:, :1])
        with pytest.raises(SystemExit) as err:
            run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace), "--q", q)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "--q" in stderr and "Traceback" not in stderr

    def test_missing_file_exit_code(self, tmp_path):
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(3)[:, :1])
        code = run_cli(
            "bounds", "--matrix", str(tmp_path / "nope.txt"),
            "--subspace", str(subspace),
        )
        assert code == cli.EXIT_MISSING_FILE

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1.0 oops\n3.0 4.0\n")
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(2)[:, :1])
        code = run_cli("bounds", "--matrix", str(bad), "--subspace", str(subspace))
        assert code == cli.EXIT_PARSE_ERROR

    def test_non_finite_entry_is_parse_error(self, tmp_path, capsys):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(str)
        h[2, 1] = "nan"
        matrix = tmp_path / "h.txt"
        matrix.write_text("4 4\n" + "\n".join(" ".join(row) for row in h) + "\n")
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(4)[:, :1])
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_PARSE_ERROR
        assert ":4: bad value 'nan' at column 2" in capsys.readouterr().err

    def test_library_value_error_is_reported(self, tmp_path, capsys):
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, np.diag([1.0, 2.0, 3.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == "error: spanning columns are numerically rank deficient\n"

    def test_defect_rounded_to_one_is_reported(self, tmp_path, capsys):
        # H = D A D with D spanning 10 decades factors, but along a random
        # plane 1 - eta_m^2 falls below double precision
        rng = np.random.default_rng(0)
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, graded_dad(rng, 12, 10 / math.log10(2)))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, random_subspace(rng, 12, 2))
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            "error: largest defect 1.000000e+00 rounded to 1: defects of a positive-definite "
            "H are below 1, but 1 - eta_m^2 fell below double precision\n"
        )

    def test_too_many_subspace_columns_is_reported(self, tmp_path, capsys):
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, np.diag([1.0, 2.0, 3.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.arange(12.0).reshape(3, 4) ** 2)  # full rank 3
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            "error: need 1 <= dim < ambient dim, got basis shape (3, 4)\n"
        )

    def test_zero_column_subspace_is_refused_as_a_subspace(self, tmp_path, capsys):
        # a 3 x 0 file parses; the subspace, not the parser, refuses it
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, np.diag([1.0, 2.0, 3.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.empty((3, 0)))
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == "error: need 1 <= dim < ambient dim, got basis shape (3, 0)\n"

    def test_not_positive_definite_exit_code(self, tmp_path):
        matrix = tmp_path / "indef.txt"
        write_matrix_text(matrix, np.diag([-1.0, 2.0, 3.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(3)[:, :1])
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_NOT_PD

    def test_not_positive_definite_names_the_input_row(self, tmp_path, capsys):
        # positive on the subspace, so the Cholesky factorization of H is
        # what fails, at row 1 of the input (the last pivot once sorted)
        matrix = tmp_path / "indef.txt"
        write_matrix_text(matrix, np.diag([3.0, -1.0, 2.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(subspace, np.eye(3)[:, :1])
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == cli.EXIT_NOT_PD
        assert capsys.readouterr().err == (
            "error: operator is not positive definite: Cholesky pivot 1 is -1.000000e+00\n"
        )

    def test_strict_flags_hypothesis_failure(self, tmp_path, capsys):
        # far-off test subspace: eta is large, localization hypotheses fail
        matrix = tmp_path / "h.txt"
        write_matrix_text(matrix, np.diag([1.0, 2.0, 300.0]))
        subspace = tmp_path / "s.txt"
        write_matrix_text(
            subspace, np.array([[0.1], [0.1], [0.99]]) / np.linalg.norm([0.1, 0.1, 0.99])
        )
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", str(subspace), "--strict"
        )
        assert code == cli.EXIT_HYPOTHESIS
        assert "hypothesis failure" in capsys.readouterr().err
        # without --strict the same run succeeds
        code = run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace))
        assert code == 0

    def test_lowest_k_subspace(self, kappa_files, tmp_path, capsys):
        matrix, _ = kappa_files
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", "lowest-1",
            "--precond", str(matrix), "--format", "json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # eigenvectors of the operator itself span an invariant subspace
        assert report["etas"][0] <= 1e-10

    @pytest.mark.parametrize(
        "subspace, precond, message",
        [
            ("lowest-0", "h", "lowest-0 needs 1 <= k < 3"),
            ("lowest-3", "h", "lowest-3 needs 1 <= k < 3"),
            ("lowest-1", None, "--subspace lowest-K needs --precond with a matrix file"),
            ("lowest-1", "p2", "preconditioner shape (2, 2) does not match the operator size 3"),
            ("s2", None, "subspace has 2 rows but the operator is 3 x 3"),
        ],
    )
    def test_subspace_usage_errors(self, subspace, precond, message, kappa_files, tmp_path, capsys):
        matrix, _ = kappa_files
        files = {"h": matrix, "p2": tmp_path / "p2.txt", "s2": tmp_path / "s2.txt"}
        write_matrix_text(files["p2"], np.eye(2))
        write_matrix_text(files["s2"], np.eye(2)[:, :1])
        argv = ["bounds", "--matrix", str(matrix), "--subspace", str(files.get(subspace, subspace))]
        if precond is not None:
            argv += ["--precond", str(files[precond])]
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"\nritzbounds: error: {message}\n")

    def test_malformed_header_exit_code(self, kappa_files, tmp_path, capsys):
        _, subspace = kappa_files
        bad = tmp_path / "bad.txt"
        bad.write_text("# operator\n3 three\n")
        code = run_cli("bounds", "--matrix", str(bad), "--subspace", str(subspace))
        assert code == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"error: {bad}:2: header dimensions must be integers\n"

    def test_csv_output_round_trips(self, kappa_files, tmp_path):
        matrix, subspace = kappa_files
        out = tmp_path / "report.csv"
        code = run_cli(
            "bounds", "--matrix", str(matrix), "--subspace", str(subspace),
            "--format", "csv", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        from ritzbounds.bounds import report_to_csv

        assert report_to_csv(csv_to_rows(text)) == text

    def test_table_lists_flags_entries_and_missing_values(self, kappa_files, capsys):
        # q = 3 = n with m = 1: lambda_(q+m) lies past n, so it is inf
        matrix, subspace = kappa_files
        argv = ("bounds", "--matrix", str(matrix), "--subspace", str(subspace), "--q", "3")
        assert run_cli(*argv, "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert run_cli(*argv, "--format", "table") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "lambda_(q+m)=inf" in lines[lines.index("gap data:") + 1].split()
        for name, ok in report["flags"].items():
            assert f"  {name:<22s} {'ok' if ok else 'FAILED'}" in lines, name
        missing = [key for key, value in report["aggregates"].items() if value is None]
        assert missing
        for key in missing:
            assert f"  {key:<22s} -" in lines, key
        rows = lines[lines.index("  i    theorem        lower         upper        valid") + 1:]
        assert [row.split() for row in rows] == [
            [str(e["index"]), e["theorem"], f"{e['lower']:.4e}", f"{e['upper']:.4e}", "ok" if e["valid"] else "FAILED"]
            for e in report["entries"]
        ]

    def test_deterministic_output(self, kappa_files, capsys):
        matrix, subspace = kappa_files
        run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace),
                "--format", "json")
        first = capsys.readouterr().out
        run_cli("bounds", "--matrix", str(matrix), "--subspace", str(subspace),
                "--format", "json")
        assert capsys.readouterr().out == first


class TestModelCommands:
    def test_kappa_demo_csv(self, capsys):
        code = run_cli("kappa-demo", "--kappas", "10", "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kappa,res_norm,eta,eta_computed,rel_error,ratio"
        values = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(values["res_norm"]) == pytest.approx(1 / 101)
        assert float(values["eta"]) == pytest.approx(float(values["eta_computed"]), rel=1e-12)
        assert float(values["ratio"]) == pytest.approx(1.0, abs=1e-3)

    def test_kappa_demo_error_columns_match_mpmath(self, capsys):
        # (mu - lambda_1)/mu at mu = 1/101 from the larger root of the 2x2
        # block, which the oracle evaluates without subtracting small terms.
        # At kappa = 1.3e154, 1 + kappa^2 is finite but 101 (1 + kappa^2) and
        # kappa^2 + kappa^2 are not; rel_error is subnormal, so only eta is pinned
        kappas = (10.0, 1e3, 1e5, 1e7, 1e9, 1e150, 1.3e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("kappa-demo", "--kappas", ",".join(map(repr, kappas)), "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        for kappa, line in zip(kappas, lines[1:], strict=True):
            row = dict(zip(lines[0].split(","), map(float, line.split(","))))
            exact = mp_oracle.kappa_family(kappa, 60)
            assert abs(row["eta"] / exact.eta - 1) <= 1e-13, (kappa, row)
            assert abs(row["eta_computed"] / exact.eta - 1) <= 1e-13, (kappa, row)
            if kappa < 1e154:
                assert abs(row["rel_error"] / exact.rel_error - 1) <= 1e-13, (kappa, row)
                assert abs(row["ratio"] / exact.ratio - 1) <= 1e-13, (kappa, row)

    def test_schrodinger_csv_with_oracle(self, capsys):
        code = run_cli(
            "schrodinger", "--kappas", "100", "--format", "csv",
            "--oracle-fd", "8", "4000",
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,eta2,taylor,lower,upper,exact"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["lower"]) <= float(row["exact"]) <= float(row["upper"])
        assert any(line.startswith("# fd oracle") for line in lines)

    def test_schrodinger_rejects_small_coupling(self, capsys):
        code = run_cli("schrodinger", "--kappas", "2")
        assert code == cli.EXIT_HYPOTHESIS

    @pytest.mark.parametrize(
        "length, nodes",
        [("10", "20000.7"), ("inf", "1000"), ("10", "nan"), ("10", "50"), ("1.5", "1000"), ("10", "1e9")],
    )
    def test_schrodinger_oracle_fd_usage_errors(self, length, nodes, monkeypatch, capsys):
        # rejected while parsing, before any grid is allocated
        monkeypatch.setattr(cli, "schrodinger_eta2_fd", None)
        with pytest.raises(SystemExit) as err:
            run_cli("schrodinger", "--kappas", "100", "--oracle-fd", length, nodes)
        assert err.value.code == 2
        assert "--oracle-fd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("schrodinger", "--kappas", "4e9"), cli.EXIT_OK),
            (("schrodinger", "--kappas", "1e155"), cli.EXIT_OK),
            (("kappa-demo", "--kappas", "1e160"), cli.EXIT_FAILURE),
        ],
    )
    def test_large_coupling_exits_without_traceback(self, argv, code, capsys):
        # an exception main() does not catch would print a traceback
        assert run_cli(*argv, "--format", "csv") == code
        if code == cli.EXIT_OK:
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert 0.0 < float(row[-1]) < 1e-9
        else:
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["bounds", "kappa-demo", "schrodinger", "fem-periodic"])
    def test_unwritable_out_is_an_error_not_a_traceback(self, command, kappa_files, tmp_path, capsys):
        argv = {
            "bounds": ["--matrix", str(kappa_files[0]), "--subspace", str(kappa_files[1])],
            "fem-periodic": ["--n-list", "16"],
        }.get(command, [])
        out = tmp_path / "missing" / "x.txt"
        assert run_cli(command, *argv, "--out", str(out)) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.parent.exists()

    def test_fem_periodic_single_row(self, capsys):
        code = run_cli("fem-periodic", "--n-list", "16", "--k-trunc", "2000",
                       "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,lower,middle,upper"
        assert len(lines) == 2
        assert lines[1].startswith("16,")

    def test_fem_periodic_refinement_shrinks(self, capsys):
        code = run_cli("fem-periodic", "--n-list", "24,12", "--k-trunc", "2000",
                       "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["12", "24"]  # sorted by mesh count
        for j in (1, 2, 3):
            assert float(rows[1][j]) < float(rows[0][j])

    def test_fem_periodic_rejects_tiny_mesh(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("fem-periodic", "--n-list", "4")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n-list", "inf"),
            ("--n-list", "40.7"),
            ("--n-list", "40,nan"),
            ("--n-list", "1000000000"),
            ("--k-trunc", "0"),
            ("--k-trunc", "-5"),
            ("--k-trunc", "2.5"),
        ],
    )
    def test_fem_periodic_usage_errors(self, argv, monkeypatch, capsys):
        # rejected while parsing, before any row is computed or allocated
        monkeypatch.setattr(cli, "table1_row", None)
        with pytest.raises(SystemExit) as err:
            run_cli("fem-periodic", *argv)
        assert err.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "0.25", "1"])
    def test_fem_periodic_rejects_shift(self, alpha, capsys):
        code = run_cli("fem-periodic", "--n-list", "40", "--alpha", alpha)
        assert code == cli.EXIT_FAILURE
        assert "alpha" in capsys.readouterr().err

    def test_negative_e_notation_is_a_value(self, capsys):
        # argparse alone reads "-1e-3" as an option and exits 2
        outputs = []
        for argv in (("--alpha", "-1e-3"), ("--alpha=-1e-3",)):
            assert run_cli("fem-periodic", "--n-list", "40", *argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, name", [
        (("fem-periodic", "--alpha", "-inf"), "alpha"),
        (("kappa-demo", "--kappas", "-1e3"), "kappa"),
    ])
    def test_negative_non_decimal_reaches_its_check(self, argv, name, capsys):
        assert run_cli(*argv) == cli.EXIT_FAILURE
        assert name in capsys.readouterr().err

    def test_fem_periodic_top_of_range_is_ordered(self, capsys):
        code = run_cli("fem-periodic", "--n-list", "100000,1000000")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [r[0] for r in rows] == [1e5, 1e6]
        for n_mesh, lower, middle, upper in rows:
            assert middle <= upper <= middle * (1 + 1e-4)
            # at N=1e6 the exact middle - lower margin, 6.6e-17 relative, is
            # below a double's rounding
            assert lower <= middle + (2 * math.ulp(middle) if n_mesh == 1e6 else 0.0)

    def test_fem_periodic_k_trunc_changes_no_column(self, capsys):
        outputs = []
        for k_trunc in ("1", "20000"):
            assert run_cli("fem-periodic", "--n-list", "40,1000", "--k-trunc", k_trunc) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_fem_periodic_large_mesh_in_fresh_process(self):
        src = str(Path(ritzbounds.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "ritzbounds.cli", "fem-periodic", "--n-list", "10000"],
            env=env, capture_output=True, text=True, check=True,
        )
        elapsed = time.perf_counter() - started
        assert done.stdout.splitlines()[1].startswith("10000,")
        assert elapsed < 2.0, f"fem-periodic --n-list 10000 took {elapsed:.2f} s"


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        code = run_cli("verify", "--only", "densela.unitary_invariance,report.round_trip")
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok  ] densela.unitary_invariance" in out
        assert "all 2 properties hold" in out

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--only", "no.such.check")
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(": error: unknown check 'no.such.check'")

    def test_spaces_around_only_names_are_stripped(self, capsys):
        assert run_cli("verify", "--only", "report.determinism, report.round_trip ") == 0
        assert "all 2 properties hold" in capsys.readouterr().out

    def test_spaces_around_list_values_are_stripped(self, capsys):
        assert run_cli("fem-periodic", "--n-list", " 16, 24 ,", "--format", "csv") == 0
        assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["16", "24"]
        assert run_cli("kappa-demo", "--kappas", "10, 100,", "--format", "csv") == 0
        assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["10", "100"]

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_only_naming_no_check_is_usage_error(self, only, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_checks", None)
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--only", only)
        assert err.value.code == 2
        assert "--only names no check" in capsys.readouterr().err

    def test_repeated_only_name_runs_once(self, capsys):
        assert run_cli("verify", "--only", "report.determinism,report.determinism") == 0
        out = capsys.readouterr().out
        assert out.count("report.determinism:") == 1
        assert "all 1 properties hold" in out

    def test_negative_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_checks", None)
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--seed", "-1")
        assert err.value.code == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_seed_determinism(self, capsys):
        run_cli("verify", "--only", "defect.route_equivalence", "--seed", "5")
        first = capsys.readouterr().out
        run_cli("verify", "--only", "defect.route_equivalence", "--seed", "5")
        assert capsys.readouterr().out == first


def test_runtime_path_does_not_import_scipy():
    # pytest's own process has scipy loaded already, so a fresh one checks
    # the package, the CLI and the one verify check that used scipy
    code = (
        "import contextlib, io, sys\n"
        "import ritzbounds, ritzbounds.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    ritzbounds.cli.main(['verify', '--only', 'defect.variational_consistency'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(ritzbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("kappa-demo", "--kappas", "abc"), 2, "argument --kappas: bad kappa list: 'abc'"),
        (("kappa-demo", "--kappas", ","), 2, "argument --kappas: empty kappa list"),
        (("schrodinger", "--kappas", "abc"), 2, "argument --kappas: bad kappa list: 'abc'"),
        (("fem-periodic", "--n-list", ","), 2, "argument --n-list: empty mesh list"),
        (("schrodinger", "--oracle-fd", "abc", "100"), 2, "argument --oracle-fd: L must be a finite number >= 2.0, got 'abc'"),
        (("schrodinger", "--oracle-fd", "2000", "1000"), cli.EXIT_FAILURE, "error: the grid step length/nodes must be below 1"),
    ],
)
def test_documented_exits(argv, code, message, capsys):
    # usage errors exit 2 while parsing; a grid step L/N of 1 or more
    # places no node in the well, which the oracle refuses with exit 1
    try:
        got = run_cli(*argv)
    except SystemExit as err:
        got = err.code
    assert got == code
    assert message in capsys.readouterr().err
