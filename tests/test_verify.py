import numpy as np
import pytest

from ritzbounds import defect, verify


@pytest.mark.parametrize("name", list(verify.REGISTRY))
def test_registered_property(name):
    (result,) = verify.run_checks(names=[name])
    assert result.passed, result.detail


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        verify.run_checks(names=["defect.not_a_check"])


def test_results_deterministic_for_fixed_seed():
    a = verify.run_checks(names=["defect.route_equivalence"], seed=11)
    b = verify.run_checks(names=["defect.route_equivalence"], seed=11)
    assert a == b


def test_mutation_in_defect_formula_is_caught(monkeypatch):
    # route equivalence must flag a corrupted block-route defect formula
    original = defect.etas_schur

    def corrupted(split):
        ds = original(split)
        etas = np.minimum(ds.etas * (1.0 + 1e-6), 0.999999)
        etas = np.sort(etas)
        return defect.DefectSpectrum(etas=etas, route=ds.route)

    monkeypatch.setattr(defect, "etas_schur", corrupted)
    results = verify.run_checks(names=["defect.route_equivalence"])
    assert not results[0].passed


def test_crashing_check_reports_failure(monkeypatch):
    def boom(split):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(defect, "etas_schur", boom)
    results = verify.run_checks(names=["defect.route_equivalence"])
    assert not results[0].passed
    assert "injected fault" in results[0].detail


def test_mutation_in_moment_route_is_caught(monkeypatch):
    # route equivalence checks the moment route the report prints
    original = defect.etas_residual

    def corrupted(split):
        ds, dl, ratios = original(split)
        etas = np.minimum(ds.etas * (1.0 + 1e-6), 0.999999)
        return defect.DefectSpectrum(etas=etas, route=ds.route), dl, ratios

    monkeypatch.setattr(defect, "etas_residual", corrupted)
    results = verify.run_checks(names=["defect.route_equivalence"])
    assert not results[0].passed, results[0].detail


def test_route_equivalence_factors_h_once_per_draw(monkeypatch):
    # both routes read the split's factor, one per draw (15 draws); the
    # pencil form is not taken
    calls = []
    factor = defect.sorted_cholesky

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("moment_matrices called")

    monkeypatch.setattr(defect, "sorted_cholesky", counted)
    monkeypatch.setattr(defect, "moment_matrices", refused)
    (result,) = verify.run_checks(names=["defect.route_equivalence"])
    assert result.passed, result.detail
    assert len(calls) == 15


def test_repeated_check_name_runs_once_in_first_order():
    names = ["report.determinism", "densela.unitary_invariance", "report.determinism"]
    results = verify.run_checks(names=names)
    assert [r.name for r in results] == names[:2]
