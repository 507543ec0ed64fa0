import numpy as np
import pytest

from ritzbounds import bounds, cli, defect, densela, models, verify


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


def test_writer_dropping_a_key_is_caught(monkeypatch, capsys):
    # a writer that drops a key on both paths still round-trips byte for
    # byte; the round trip must compare the content too
    original = bounds.report_to_json

    def dropping(report_or_dict):
        d = dict(report_or_dict) if isinstance(report_or_dict, dict) else bounds.report_to_dict(report_or_dict)
        d.pop("eta_route")
        return original(d)

    monkeypatch.setattr(bounds, "report_to_json", dropping)
    assert cli.main(["verify", "--only", "report.round_trip"]) == cli.EXIT_FAILURE
    assert "[FAIL] report.round_trip: JSON text does not parse back" in capsys.readouterr().out


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


def test_route_equivalence_is_relative(monkeypatch):
    # defects near 1e-7, from subspaces 1e-7 from the lowest eigenvectors
    # of a diagonal H, and a moment route off by 1e-3 relative: the
    # absolute disagreement, about 1e-10, would pass an absolute 1e-9
    def diagonal_spd(rng, n):
        return np.diag(np.linspace(1.0, 2.0, n))

    def near_lowest(rng, n, m):
        basis, _ = np.linalg.qr(np.eye(n)[:, :m] + 1e-7 * rng.standard_normal((n, m)))
        return defect.TestSubspace(basis)

    monkeypatch.setattr(verify, "_random_spd", diagonal_spd)
    monkeypatch.setattr(verify, "_random_subspace", near_lowest)
    (result,) = verify.run_checks(names=["defect.route_equivalence"])
    assert result.passed, result.detail
    original = defect.etas_residual

    def scaled(split):
        ds, dl, ratios = original(split)
        return defect.DefectSpectrum(etas=ds.etas * (1.0 + 1e-3), route=ds.route), dl, ratios

    monkeypatch.setattr(defect, "etas_residual", scaled)
    (result,) = verify.run_checks(names=["defect.route_equivalence"])
    assert not result.passed, result.detail


def test_halved_cluster_bound_is_caught(monkeypatch):
    # the bound exceeds the true norm by only 1.1-1.5 times on these
    # draws, so half of it falls below; the check must compare every draw
    original = bounds.cluster_upper_bound
    monkeypatch.setattr(bounds, "cluster_upper_bound", lambda *args, **kwargs: 0.5 * original(*args, **kwargs))
    (result,) = verify.run_checks(names=["bounds.cluster_bound_validity"])
    assert not result.passed, result.detail
    assert "below actual" in result.detail


@pytest.mark.parametrize("name", ["bounds.cluster_bound_validity", "bounds.corollary_gap_consistency"])
def test_cluster_checks_decide_every_draw(name):
    (result,) = verify.run_checks(names=[name])
    assert result.passed and result.detail.endswith("; 10 of 10 draws checked"), result.detail


def _caught(monkeypatch, name, module, attr, mutate):
    # the check passes, then fails once ``module.attr`` is ``mutate(original)``
    (result,) = verify.run_checks(names=[name])
    assert result.passed, result.detail
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    (result,) = verify.run_checks(names=[name])
    assert not result.passed, result.detail
    return result.detail


@pytest.mark.parametrize("name, field, factor", [
    ("models.kappa_exactness_ratio", "ratio", 1 + 1e-6),
    ("models.kappa_error_expansion", "rel_error", 1.01),
])
def test_skewed_kappa_row_is_caught(monkeypatch, name, field, factor):
    # |ratio - 1| is about 0.0099/kappa^2, so even 1e-6 on the ratio is
    # far outside the model's rate
    def skewed(original):
        def kappa_row(kappa):
            row = original(kappa)
            return row._replace(**{field: getattr(row, field) * factor})
        return kappa_row

    _caught(monkeypatch, name, models, "kappa_row", skewed)


def test_defect_without_complement_scaling_is_caught(monkeypatch):
    # ||R e_i|| / sqrt(mu_i) skips W^{-1/2}: 1/sqrt(101) in place of 9.95e-05
    def unscaled(original):
        def etas_schur(split):
            etas = np.sort(np.linalg.norm(split.residual, axis=0) / np.sqrt(split.mu))
            return defect.DefectSpectrum(etas=etas, route="schur_block")
        return etas_schur

    detail = _caught(monkeypatch, "bounds.residual_dichotomy", models, "etas_schur", unscaled)
    assert detail.startswith("eta = 9.950e-02"), detail


def test_halved_sandwich_upper_end_is_caught(monkeypatch):
    def halved(original):
        def sandwich_bounds(*args, **kwargs):
            lower, upper = original(*args, **kwargs)
            return lower, 0.5 * upper
        return sandwich_bounds

    _caught(monkeypatch, "bounds.sandwich_containment", bounds, "sandwich_bounds", halved)


def test_doubled_corollary_gap_is_caught(monkeypatch):
    detail = _caught(monkeypatch, "bounds.corollary_gap_consistency", bounds, "g1_from_spectral_gap",
                     lambda original: lambda *args: 2.0 * original(*args))
    assert "above exact" in detail, detail


def test_pencil_solver_ignoring_b_is_caught(monkeypatch):
    # A v = lambda v in place of A v = lambda B v: congruence moves it
    detail = _caught(monkeypatch, "densela.pencil_congruence_invariance", densela, "gen_sym_eig",
                     lambda original: lambda a, b: original(a, np.eye(len(b))))
    assert detail.startswith("max relative drift"), detail


def test_skewed_moment_pencil_is_caught(monkeypatch):
    # etas_moments reads its squares from gen_sym_eig; 1% on them is far
    # outside the direct Rayleigh quotient's 1e-8
    def skewed(original):
        def gen_sym_eig(a, b):
            values, vectors = original(a, b)
            return 1.01 * values, vectors
        return gen_sym_eig

    detail = _caught(monkeypatch, "defect.variational_consistency", defect, "gen_sym_eig", skewed)
    assert detail.startswith("pencil max"), detail


def test_skewed_fem_defects_are_caught(monkeypatch):
    # table1_row's lower column reads etas_moments: 1e-3 on the defects
    # puts the N=40 lower end above the middle column
    def skewed(original):
        def etas_moments(psi, omega):
            ds = original(psi, omega)
            return defect.DefectSpectrum(etas=ds.etas * (1.0 + 1e-3), route=ds.route)
        return etas_moments

    detail = _caught(monkeypatch, "models.fem_table_consistency", models, "etas_moments", skewed)
    assert detail.startswith("N=40:"), detail
