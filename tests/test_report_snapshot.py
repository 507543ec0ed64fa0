import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from ritzbounds import bounds
from ritzbounds.defect import TestSubspace as Subspace

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
    lines = out.getvalue().splitlines()
    assert all("test_diff_lists_moved_values #2 ." in line for line in lines[:-1])
    assert any("relative" in line for line in lines)
    moved = json.loads((b / "00002.json").read_text())["lambda_ref"][2]
    assert any(repr(moved) in line for line in lines)
