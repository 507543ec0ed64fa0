import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from ritzbounds import bounds
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds.densela import NormKind, SymmetricMatrix

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_snapshot.py"
_spec = importlib.util.spec_from_file_location("report_snapshot", TOOL)
report_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_snapshot)


def _report(shift):
    h = np.diag([1.0, 2.0, 5.0 + shift])
    h[0, 2] = h[2, 0] = 0.1
    return bounds.build_report(h, Subspace(np.eye(3)[:, :1]))


def test_records_calls_in_order_and_restores(tmp_path):
    original = bounds.build_report
    with report_snapshot.recording(tmp_path / "snap") as out:
        first = bounds.build_report(np.diag([1.0, 3.0]), Subspace(np.eye(2)[:, :1]))
        second = _report(0.0)
    assert bounds.build_report is original
    assert sorted(p.name for p in out.glob("*.json")) == ["00001.json", "00002.json"]
    assert (out / "00001.json").read_text() == bounds.report_to_json(first)
    assert (out / "00002.json").read_text() == bounds.report_to_json(second)
    assert len((out / "index.txt").read_text().splitlines()) == 2


def test_recorded_inputs_rebuild_the_same_json(tmp_path):
    # each report's inputs go next to its JSON; H may come as a
    # SymmetricMatrix, q as a numpy integer and the norm kind as a NormKind
    rng = np.random.default_rng(4)
    h = np.diag([1.0, 2.0, 2.0, 5.0, 9.0]) + 1e-3 * np.ones((5, 5))
    basis = np.linalg.qr(np.eye(5)[:, 1:3] + 1e-2 * rng.standard_normal((5, 2)))[0]
    with report_snapshot.recording(tmp_path / "snap") as out:
        bounds.build_report(np.diag([1.0, 3.0]), Subspace(np.eye(2)[:, :1]))
        bounds.build_report(SymmetricMatrix(h), Subspace(basis), "trace", [1.0, 2.0, 2.0, 5.0], np.int64(2))
        bounds.build_report(h, subspace=Subspace(basis), norm_kind=NormKind.SPECTRAL)
    recorded = sorted(out.glob("*.npz"))
    assert [p.stem for p in recorded] == ["00001", "00002", "00003"]
    for path in recorded:
        assert bounds.report_to_json(report_snapshot.rebuild(path)) == path.with_suffix(".json").read_text()
    with np.load(recorded[0]) as first, np.load(recorded[1]) as second:
        assert "lambda_ref" not in first and str(first["norm_kind"]) == "frobenius"
        assert second["lambda_ref"].tolist() == [1.0, 2.0, 2.0, 5.0] and int(second["q"]) == 2


def test_recording_inside_a_recording_records_in_both(tmp_path):
    # as when the suite runs under the plugin and a test opens its own
    with report_snapshot.recording(tmp_path / "outer") as outer:
        with report_snapshot.recording(tmp_path / "inner") as inner:
            text = bounds.report_to_json(_report(0.0))
    for out in (outer, inner):
        assert (out / "00001.json").read_text() == text
        assert bounds.report_to_json(report_snapshot.rebuild(out / "00001.npz")) == text


def test_diff_lists_moved_values(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    with report_snapshot.recording(a):
        _report(0.0)
        _report(0.0)
    with report_snapshot.recording(b):
        _report(0.0)
        _report(1e-6)
    out = io.StringIO()
    assert report_snapshot.diff(a, a, out) == 0
    assert "2 of 2 reports byte-identical" in out.getvalue()
    out = io.StringIO()
    assert report_snapshot.diff(a, b, out) == 1
    moves, summary = out.getvalue().split("1 of 2 reports byte-identical, 1 differ\n")
    lines = moves.splitlines()
    assert lines and all("test_diff_lists_moved_values #2 ." in line for line in lines)
    assert all("relative" in line for line in lines)
    moved = json.loads((b / "00002.json").read_text())["lambda_ref"][2]
    assert any(repr(moved) in line for line in lines)
    assert summary.startswith("largest relative move per key path, largest defect in A above 1e-08:\n")
    assert "largest relative move per key path, largest defect in A at or below 1e-08:\nflipped" in summary
    assert summary.endswith("flipped flags: 0\n")


def test_diff_ends_with_largest_move_per_path_and_flag_flips(tmp_path):
    # the second report puts mu_1 = 1 on a double lowest eigenvalue, so
    # tk_gap flips; lambda_ref moves in both reports.  The first report's
    # defect is about 0.03, the second's is zero: the summary lists their
    # moves apart
    a, b = tmp_path / "a", tmp_path / "b"
    for directory, shift, lam_2 in ((a, 0.0, 2.0), (b, 1e-6, 1.0)):
        with report_snapshot.recording(directory):
            _report(shift)
            bounds.build_report(np.diag([1.0, lam_2, 3.0]), Subspace(np.eye(3)[:, :1]))
    out = io.StringIO()
    assert report_snapshot.diff(a, b, out) == 2
    summary = out.getvalue().split("0 of 2 reports byte-identical, 2 differ\n")[1].splitlines()

    pairs = [
        [json.loads((d / name).read_text()) for d in (a, b)] for name in ("00001.json", "00002.json")
    ]
    assert max(pairs[0][0]["etas"]) > report_snapshot.WELL_CONDITIONED_ETA
    assert max(pairs[1][0]["etas"]) <= report_snapshot.WELL_CONDITIONED_ETA
    largest = [
        max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(ra["lambda_ref"], rb["lambda_ref"]) if x != y)
        for ra, rb in pairs
    ]
    assert largest[0] < 1e-5 < largest[1]
    below = summary.index("largest relative move per key path, largest defect in A at or below 1e-08:")
    assert summary[0] == "largest relative move per key path, largest defect in A above 1e-08:"
    assert any(line.startswith(f"  .lambda_ref[] {largest[0]:.3g} (") for line in summary[1:below])
    assert any(line.startswith(f"  .lambda_ref[] {largest[1]:.3g} (") for line in summary[below:])
    flags_a, flags_b = pairs[1][0]["flags"], pairs[1][1]["flags"]
    flipped = [f"  .flags.{k} {flags_a[k]} -> {flags_b[k]}: 1" for k in sorted(flags_a) if flags_a[k] != flags_b[k]]
    assert "  .flags.tk_gap True -> False: 1" in flipped
    assert summary[-len(flipped) - 1 :] == [f"flipped flags: {len(flipped)}"] + flipped


def test_summary_counts_rises_and_falls(tmp_path):
    # raising h_33 = 5 + shift raises lambda_1 and lambda_3, keeps
    # lambda_2 = 2 and lowers the defect of e_1
    a, b = tmp_path / "a", tmp_path / "b"
    for directory, shift in ((a, 0.0), (b, 1e-3)):
        with report_snapshot.recording(directory):
            _report(shift)
    out = io.StringIO()
    report_snapshot.diff(a, b, out)
    summary = {line.split()[0]: line for line in out.getvalue().splitlines() if line.startswith("  .")}
    assert summary[".lambda_ref[]"].endswith("(2 moved, 2 rose, 0 fell)")
    assert summary[".etas[]"].endswith("(1 moved, 0 rose, 1 fell)")


def test_cli_records_diff_to_zero_and_a_changed_byte_is_reported(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        report_snapshot.record_cli(directory)
    n = len(report_snapshot.CLI_INVOCATIONS)
    out = io.StringIO()
    assert report_snapshot.diff(a, b, out) == 0
    assert out.getvalue() == f"{n} of {n} CLI invocations byte-identical, 0 differ\n"

    records = json.loads((b / "cli.json").read_text())
    assert [r["argv"] for r in records] == [list(argv) for argv in report_snapshot.CLI_INVOCATIONS]
    assert 2 not in [r["exit"] for r in records]  # every argv parses
    assert records[0]["argv"] == ["kappa-demo"] and "e+01" in records[0]["stdout"]
    records[0]["stdout"] = records[0]["stdout"].replace("e+01", "e+02", 1)
    (b / "cli.json").write_text(json.dumps(records))
    out = io.StringIO()
    assert report_snapshot.diff(a, b, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "cli kappa-demo: exit 0 -> 0"
    assert sum(line.startswith(("-", "+")) and "e+0" in line for line in lines) == 2
    assert lines[-1] == f"{n - 1} of {n} CLI invocations byte-identical, 1 differ"


def test_cli_records_run_bounds_on_every_reader_error_and_report_a_changed_byte(tmp_path):
    # the bounds runs read files written under DIR/inputs and run from DIR,
    # so every message names them alike in two snapshots
    a, b = tmp_path / "a", tmp_path / "b"
    report_snapshot.record_cli(a)
    records = json.loads((a / "cli.json").read_text())
    runs = {r["argv"][2]: r for r in records if r["argv"][0] == "bounds" and len(r["argv"]) == 5}
    errors = [name for name in report_snapshot.CLI_INPUTS if name not in ("h.txt", "u.txt")]
    assert sorted(runs) == sorted([f"inputs/{name}" for name in errors] + ["inputs/missing.txt"])
    assert all(runs[f"inputs/{name}"]["exit"] == 4 for name in errors)
    assert runs["inputs/missing.txt"]["stderr"] == "error: input file not found: inputs/missing.txt\n"
    assert runs["inputs/overstated_n.txt"]["stderr"] == (
        "error: inputs/overstated_n.txt: declared 1000000000000 rows but found 1\n"
    )
    valid = [r for r in records if r["argv"][:5] == list(report_snapshot._BOUNDS)]
    assert [r["argv"][5:] for r in valid] == [["--format", f] for f in ("json", "csv", "table")] + [["--strict"]]
    assert [r["exit"] for r in valid[:3]] == [0, 0, 0] and json.loads(valid[0]["stdout"])["n"] == 6

    runs["inputs/overstated_n.txt"]["stderr"] = runs["inputs/overstated_n.txt"]["stderr"].replace("found 1", "found 2")
    b.mkdir()
    (b / "cli.json").write_text(json.dumps(records))
    out = io.StringIO()
    assert report_snapshot.diff(a, b, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "cli bounds --matrix inputs/overstated_n.txt --subspace inputs/u.txt: exit 4 -> 4"
    assert [line for line in lines if line.startswith(("-e", "+e"))] == [
        "-error: inputs/overstated_n.txt: declared 1000000000000 rows but found 1",
        "+error: inputs/overstated_n.txt: declared 1000000000000 rows but found 2",
    ]
