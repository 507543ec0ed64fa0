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
