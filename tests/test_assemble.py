"""The two layers of a report: ``measure`` reads H and the subspace into a
small ``Measurements`` record, and ``assemble`` turns a record into the
report without touching a matrix.  A record of exact Ritz data, from the
mpmath oracle and rounded to doubles once, separates a fault of the bound
formulas from the rounding of the measurements."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import ritzbounds
from ritzbounds import bounds, defect, densela
from ritzbounds.bounds import Measurements, assemble, build_report, measure, report_to_json
from ritzbounds.defect import DefectSpectrum
from ritzbounds.defect import TestSubspace as Subspace

import mp_oracle
from conftest import clustered_spd, haar_orthogonal, kappa_matrix, random_spd, random_subspace, tilted_basis


def test_assemble_calls_no_lapack_routine(monkeypatch, rng):
    h, _, eigenspace = clustered_spd(rng, 10, 2)
    s = Subspace(tilted_basis(rng, eigenspace, 1e-3))
    record = measure(h, s, None, 1)
    expected = report_to_json(build_report(h, s, "spectral"))

    def refused(*args, **kwargs):
        raise AssertionError("linear algebra called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refused)
    monkeypatch.setattr(densela, "_lapack", refused)
    monkeypatch.setattr(densela, "singular_values", refused)
    with pytest.raises(AssertionError, match="linear algebra called"):
        np.linalg.eigvalsh(np.eye(2))
    for kind in ("spectral", "frobenius", "trace"):
        report = assemble(record, kind)
        assert report.norm_kind == kind and report.entries
    assert report_to_json(assemble(record, "spectral")) == expected


@pytest.mark.parametrize("n, m, q, supplied", [(30, 3, 1, False), (24, 1, 2, True), (8, 4, 1, False)])
def test_record_fields_are_small(n, m, q, supplied):
    # every array the record holds has at most q + m + 1 entries, however
    # large n is; lambda_ref is cut to the values the report prints
    rng = np.random.default_rng(n)
    h = random_spd(rng, n, log_cond=1.0)
    lam = np.linalg.eigvalsh(h) if supplied else None
    record = measure(h, Subspace(random_subspace(rng, n, m)), lam, q)
    sizes = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        value = getattr(value, "etas", value)  # a route's defects
        if isinstance(value, np.ndarray):
            sizes[field.name] = value.size
        else:
            assert value is None or isinstance(value, (int, float, str)), field.name
    assert max(sizes.values()) <= q + m + 1, sizes
    assert sizes["lambda_ref"] == q + m + 1 and sizes["w_values"] == q


# ---------------------------------------------------------------------------
# Assembly of exact measurements
# ---------------------------------------------------------------------------

def exact_report(h, basis, q=1):
    """``assemble`` of the record of exact Ritz data, and the true relative
    errors each valid entry must contain: against lambda_q when the
    report's cluster is multiple, else against lambda_(q+i-1)."""
    fields, against_q, against_own = mp_oracle.measurements(h, basis, q, 50)
    fields["schur"] = DefectSpectrum(fields["schur"], "schur_block")
    fields["moments"] = DefectSpectrum(fields["moments"], "moments")
    # the exact record rounds no quadratic form
    report = assemble(Measurements(n=len(h), q=q, mu_1_rounding=0.0, **fields), "frobenius")
    return report, against_q if report.flags["cluster_multiplicity"] else against_own


def assert_contains(report, truth, rtol=0.0):
    checked = 0
    for e in report.entries:
        if e.valid:
            x = truth[e.index - 1]
            slack = rtol * abs(x)
            assert e.lower - slack <= x <= e.upper + slack, (e, x)
            checked += 1
    return checked


def interior_cluster(rng, n=10, tilt=1e-3):
    """Spectrum 1, 4, 4, 12..40 and a basis near the double eigenvalue 4:
    a q = 2 cluster with a neighbour on each side."""
    q = haar_orthogonal(rng, n)
    lam = np.concatenate([[1.0, 4.0, 4.0], np.linspace(12.0, 40.0, n - 3)])
    h = (q * lam) @ q.T
    return 0.5 * (h + h.T), tilted_basis(rng, q[:, 1:3], tilt)


CLUSTERED = [(6, 1, 1e-2), (8, 2, 1e-3), (12, 3, 1e-4), (9, 2, 1e-5), (7, 1, 1e-6), (12, 1, 1e-6)]


@pytest.mark.parametrize("n, m, tilt", CLUSTERED)
def test_exact_clustered_records_give_valid_entries_that_hold(n, m, tilt):
    rng = np.random.default_rng(n * 10 + m)
    h, _, eigenspace = clustered_spd(rng, n, m)
    report, truth = exact_report(h, tilted_basis(rng, eigenspace, tilt))
    assert report.flags["routes_agree"] and report.flags["cluster_multiplicity"]
    assert assert_contains(report, truth) >= 4 * m


def test_exact_interior_cluster_gives_valid_entries_that_hold():
    h, basis = interior_cluster(np.random.default_rng(7))
    report, truth = exact_report(h, basis, q=2)
    assert report.flags["eta_vs_gamma"] and report.flags["cluster_multiplicity"]
    assert assert_contains(report, truth) == 4  # first_order and cluster_T33


@pytest.mark.parametrize("kappa", [10.0, 100.0])
def test_exact_kappa_records_give_valid_entries_that_hold(kappa):
    report, truth = exact_report(kappa_matrix(kappa), np.eye(3)[:, :1])
    assert assert_contains(report, truth) >= 3
    assert truth[0] == pytest.approx(mp_oracle.kappa_family(kappa, 50).rel_error, rel=1e-15)


def test_exact_equality_case_meets_the_sandwich_upper_end():
    # diag(1, 1.5, 100) and u ~ (0.01, 1, 0): K_s lies along the eigenvector
    # of w_1, so the sandwich's upper end eta^2/g_1 is the true error 0.3333.
    # g_1 = (w_1 - lambda_1)/w_1 = 5e-5 carries the half ulp by which the
    # record rounds w_1 into the upper end times 1/g_1; the assembly adds a
    # few ulps.  That is the miss allowed here, 2.2e-12 relative: exact
    # measurements miss by 1.7e-12, computed ones by 1.4e-11
    h = np.diag([1.0, 1.5, 100.0])
    basis = np.array([[0.01], [1.0], [0.0]]) / math.hypot(0.01, 1.0)
    report, truth = exact_report(h, basis)
    rtol = (0.5 / report.aggregates["g_1"] + 4.0) * np.finfo(float).eps
    assert rtol < 2.3e-12
    upper = {e.theorem: e.upper for e in report.entries if e.valid}
    assert set(upper) == {"sandwich_T34", "trace_T34", "classical_TK"}
    assert upper["sandwich_T34"] == pytest.approx(truth[0], rel=rtol)
    assert assert_contains(report, truth, rtol=rtol) == 3


def test_bounds_reads_the_measurements_through_public_names_only():
    # defect measures and bounds bounds: bounds.py imports no private name
    # of the library and no numpy.linalg name, and ``measure``,
    # ``Measurements`` and ``exactness_ratio`` live beside the split
    imported = []
    for node in ast.walk(ast.parse(Path(bounds.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "ritzbounds." * node.level + (node.module or "")
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
    assert ("ritzbounds.defect", "measure") in imported
    private = [(m, n) for m, n in imported if m.startswith("ritzbounds") and n.startswith("_")]
    linalg = [(m, n) for m, n in imported if m.startswith("numpy.linalg") or (m, n) == ("numpy", "linalg")]
    assert not private and not linalg, (private, linalg)
    assert bounds.measure is defect.measure and bounds.Measurements is defect.Measurements
    assert ritzbounds.exactness_ratio is defect.exactness_ratio
