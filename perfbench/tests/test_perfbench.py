"""Tests of the benchmark: tiny runs of every workload complete, the
oracle matches closed forms, and each check fails when an error is
injected into an otherwise correct output.

    python3 -m pytest perfbench/tests -q
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [m for m, _, _ in harness.LAYER_METRICS]


@pytest.mark.parametrize("name", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_completes(name, trace):
    r = harness.run_workload(name, seed=5, seconds=0, trace=trace, tiny=True)
    assert r["correct"]
    assert r["attempted"] >= 1
    # only the seed-independent converged cases may fail
    assert r["failed"] <= (1 if name == "report-converged" else 0)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_traced_run_restores_the_program():
    import ritzbounds.bounds as bounds
    from ritzbounds.densela import SymmetricMatrix

    harness.run_workload("report-converged", seed=1, seconds=0, trace=True, tiny=True)
    assert not hasattr(bounds.build_report, "__wrapped__")
    assert not hasattr(SymmetricMatrix.__post_init__, "__wrapped__")


def test_layer_values_leave_out_set_up_spans():
    spans = [
        ["densela.admit", 0.0, 5.0, -1, -1, 0, False],  # while the round was built
        ["densela.admit", 10.0, 11.0, -1, 0, 0, False],
        ["densela.admit", 20.0, 21.0, -1, 1, 0, False],
    ]
    values = harness.layer_values(spans, attempted=2, cli_start=0.0, ops_per_s=1.0)
    assert values["densela.admit_s"] == 1.0


def test_set_up_probes_are_spread_over_the_loop_and_left_out_of_rounds():
    class Op:
        def run(self):
            order.append("op")

    def probe():
        order.append("probe")
        return 0.25

    order = []
    records, rounds, probes = harness.closed_loop([Op()] * 4, 0.0, probe=probe, repeats=3)
    assert probes == [0.25] * 3 and len(records) == 4 and len(rounds) == 1
    assert order[0] == "op" and order.count("probe") == 3
    assert rounds[0] < 0.25


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        SPEC["command"] + ["--workload", "cli-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_defect_and_eigenvalues_match_the_kappa_closed_forms():
    kappa = 100.0
    h = np.array([[1 / 101, 0.0, -1 / 101], [0.0, 1 / 100, 0.0], [-1 / 101, 0.0, 1.0 + kappa**2]])
    op = oracle.ExactOperator(h)
    mu, etas = oracle.ritz_and_defects(op, np.eye(3)[:, :1])
    row = oracle.kappa_demo_row(kappa)
    assert oracle.rel_error(etas[0], row["eta"]) < 1e-14
    lam = oracle.lowest_eigenvalues(op, np.eye(3)[:, :2], 1)
    assert oracle.rel_error((mu[0] - lam[0]) / mu[0], row["rel_error"]) < 1e-12


def test_oracle_eigenvalues_of_a_graded_diagonal_are_exact():
    d = 2.0 ** -np.arange(0, 60, 6)
    guess = np.eye(10)[:, ::-1][:, :5] + 1e-12
    lam = oracle.lowest_eigenvalues(oracle.ExactOperator(np.diag(d)), guess, 3)
    assert [float(x) for x in lam] == sorted(d)[:3]


# ---------------------------------------------------------------------------
# Injected errors
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report_case():
    import ritzbounds

    rng = np.random.default_rng(11)
    h, basis, guess, _ = workloads.clustered_case(rng, 16, 2, 1e-3)
    report = ritzbounds.build_report(h, ritzbounds.TestSubspace(basis))
    d = json.loads(ritzbounds.bounds.report_to_json(report))
    ref = workloads.report_reference(h, basis, guess, 4)
    return d, ritzbounds.bounds.report_to_csv(report), ref


def _check(d, csv_text, ref):
    return workloads.check_report(json.dumps(d), csv_text, ref, lambda_computed=True).violations


def test_report_check_passes_correct_output(report_case):
    d, csv_text, ref = report_case
    assert _check(d, csv_text, ref) == []
    assert any(e["valid"] for e in d["entries"])


@pytest.mark.parametrize("field", ["mu", "lambda_ref"])
def test_report_check_catches_a_shifted_eigenvalue(report_case, field):
    d, csv_text, ref = json.loads(json.dumps(report_case[0])), None, report_case[2]
    d[field][0] *= 1 + 1e-8
    assert _check(d, csv_text, ref)


def test_report_check_catches_a_shrunken_interval(report_case):
    d, _, ref = json.loads(json.dumps(report_case[0])), None, report_case[2]
    entry = next(e for e in d["entries"] if e["valid"])
    entry["lower"] = entry["upper"] = 0.0
    assert any("misses the true relative error" in v for v in _check(d, None, ref))


def test_report_check_catches_a_missing_key(report_case):
    d, _, ref = json.loads(json.dumps(report_case[0])), None, report_case[2]
    del d["aggregates"]["dl"]
    assert _check(d, None, ref)


def test_report_check_catches_a_csv_that_differs(report_case):
    d, csv_text, ref = report_case
    assert _check(d, csv_text.replace("true", "false", 1), ref)


def _edit_csv(stdout, row, col, fn):
    lines = stdout.splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(table))
    j = rows[0].index(col)
    rows[row + 1][j] = repr(fn(float(rows[row + 1][j])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue() + "".join(ln + "\n" for ln in lines if ln.startswith("#"))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    ops = workloads.cli_paper(3, tmp_path_factory.mktemp("cli"), in_process=True, tiny=True)
    return {op.label: (op, op.run(), op.reference()) for op in ops}


@pytest.mark.parametrize(
    "label,row,col,fn",
    [
        ("fem-periodic", 0, "middle", lambda x: x * (1 + 1e-4)),
        ("fem-periodic", 1, "upper", lambda x: x * 0.5),
        ("kappa-demo", 0, "rel_error", lambda x: x * (1 + 1e-4)),
        ("kappa-demo", 2, "eta_computed", lambda x: x * (1 + 1e-8)),
        ("schrodinger", 3, "exact", lambda x: x * (1 + 1e-8)),
    ],
)
def test_cli_table_checks_catch_injected_errors(cli_outputs, label, row, col, fn):
    op, (code, stdout, stderr), ref = cli_outputs[label]
    assert op.check((code, stdout, stderr), ref).violations == []
    assert op.check((code, _edit_csv(stdout, row, col, fn), stderr), ref).violations


def test_schrodinger_check_catches_a_shrunken_sandwich(cli_outputs):
    op, (code, stdout, stderr), ref = cli_outputs["schrodinger"]
    lower = float(list(csv.reader(stdout.splitlines()))[2][3])
    shrunk = _edit_csv(stdout, 1, "upper", lambda x: lower)
    assert any("sandwich misses" in v for v in op.check((code, shrunk, stderr), ref).violations)


@pytest.mark.parametrize("label", ["fem-periodic", "kappa-demo", "schrodinger", "verify", "bounds"])
def test_cli_checks_catch_a_wrong_exit_code(cli_outputs, label):
    op, (code, stdout, stderr), ref = cli_outputs[label]
    assert op.check((code, stdout, stderr), ref).violations == []
    assert op.check((1, stdout, stderr), ref).violations


def test_bounds_check_catches_a_shifted_eigenvalue(cli_outputs):
    op, (code, stdout, stderr), ref = cli_outputs["bounds"]
    d = json.loads(stdout)
    d["lambda_ref"][1] *= 1 + 1e-8
    assert op.check((code, json.dumps(d), stderr), ref).violations
