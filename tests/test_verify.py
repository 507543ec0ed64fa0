import math

import numpy as np
import pytest

from ritzbounds import bounds, cli, defect, densela, models, verify


@pytest.mark.parametrize("name", list(verify.REGISTRY))
def test_registered_property(name):
    (result,) = verify.run_checks(names=[name])
    assert result.passed, result.detail


@pytest.mark.parametrize("seed", range(10))
def test_every_check_holds_at_seeds_0_to_9(seed):
    # the README documents --seed for any integer >= 0
    failed = [r for r in verify.run_checks(seed=seed) if not r.passed]
    assert not failed, failed


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
            return 1.01 * original(a, b)
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


def test_absolute_gap_is_caught_by_report_scaling(monkeypatch):
    # |lambda_q - w| without the division by w scales with H, and so does
    # the cluster bound built on it
    def absolute(original):
        def relative_gap_gq(spec_rest, lambda_q):
            return float(np.abs(lambda_q - np.asarray(spec_rest, dtype=float)).min())
        return relative_gap_gq

    detail = _caught(monkeypatch, "bounds.scaling_robustness", bounds, "relative_gap_gq", absolute)
    assert detail.startswith("max relative drift"), detail


def test_state_kept_between_reports_is_caught(monkeypatch):
    # a mutable default argument that gathers the residual quotients of
    # every report so far: the first report is right, the second is not
    def accumulating(original):
        def residual_eta_sandwich(omega_diag_mu, dl, _seen=[]):
            _seen.extend(np.asarray(omega_diag_mu, dtype=float))
            return original(_seen, dl)
        return residual_eta_sandwich

    _caught(monkeypatch, "report.determinism", bounds, "residual_eta_sandwich", accumulating)


def test_jittered_factor_is_caught_by_defect_scaling(monkeypatch):
    # an absolute shift H + 1e-12 I, a common guard for a semidefinite H,
    # is not scale invariant: at 1e-8 H it moves the smallest eigenvalues
    # by about 1%
    def jittered(original):
        def sorted_cholesky(a, what="matrix"):
            a = densela._as_array(a)
            return original(a + 1e-12 * np.eye(len(a)), what=what)
        return sorted_cholesky

    detail = _caught(monkeypatch, "defect.scaling_robustness", defect, "sorted_cholesky", jittered)
    assert detail.startswith("max drift over scales"), detail


def test_squared_defects_are_caught_by_the_strict_bound(monkeypatch):
    # eta^2 keeps 0 <= eta_1 <= ... <= eta_m < 1, so only the pencil
    # (H, H_P), whose extreme eigenvalues are 1 -+ eta_m, tells it apart
    def squared(original):
        def etas_schur(split):
            ds = original(split)
            return defect.DefectSpectrum(etas=ds.etas**2, route=ds.route)
        return etas_schur

    detail = _caught(monkeypatch, "defect.eta_bound_strict", defect, "etas_schur", squared)
    assert detail.startswith("eta_m = ") and "(H, H_P) spans" in detail, detail


def test_absolute_shift_of_the_reference_spectrum_is_caught(monkeypatch):
    # lambda + 1e-12 does not scale with H; the report check takes its
    # reference values from H, so at 1e-8 H the shift reaches the gaps
    detail = _caught(monkeypatch, "bounds.scaling_robustness", defect, "_lowest_eigenvalues",
                     lambda original: lambda split, count: original(split, count) + 1e-12)
    assert detail.startswith("max relative drift"), detail


def test_unseeded_reference_spectrum_is_caught(monkeypatch):
    # 1 + 1e-9 u with u from a generator seeded once, when the mutation is
    # installed: each call draws another u, so every report prints other
    # reference values, and two runs of the test draw the same ones
    def jittered(original):
        rng = np.random.default_rng(0)

        def _lowest_eigenvalues(split, count):
            values = original(split, count)
            return values * (1.0 + 1e-9 * rng.random(len(values)))
        return _lowest_eigenvalues

    _caught(monkeypatch, "report.determinism", defect, "_lowest_eigenvalues", jittered)


def test_norms_from_column_norms_are_caught(monkeypatch):
    # the columns' 2-norms in place of the singular values do not change
    # under a rotation from the left, but do under one from the right
    detail = _caught(monkeypatch, "densela.unitary_invariance", densela, "singular_values",
                     lambda original: lambda a: np.sort(np.linalg.norm(np.asarray(a, dtype=float), axis=0))[::-1])
    assert detail.startswith("max relative drift"), detail


def test_frobenius_norm_without_its_root_is_caught(monkeypatch):
    # the sum of squares is unitary invariant but grows quadratically, so
    # only submultiplicativity tells it apart
    def squared(original):
        def values_norm(values, kind):
            if densela.NormKind.coerce(kind) is densela.NormKind.FROBENIUS:
                return float(np.sum(np.square(values)))
            return original(values, kind)
        return values_norm

    detail = _caught(monkeypatch, "densela.triple_submultiplicative", densela, "values_norm", squared)
    assert detail.endswith("for frobenius"), detail


def test_eigenvalues_from_the_svd_of_an_indefinite_matrix_are_caught(monkeypatch):
    # the singular values are the eigenvalues' magnitudes: right only for
    # a positive semidefinite matrix
    def from_svd(original):
        def sym_eig(a):
            return np.sort(densela.singular_values(a)), original(a)[1]
        return sym_eig

    detail = _caught(monkeypatch, "densela.eig_closed_form_2x2", densela, "sym_eig", from_svd)
    assert detail.startswith("max deviation"), detail


@pytest.mark.parametrize("mutation", [
    lambda rd, basis: defect.RitzData(mu=rd.mu[::-1].copy(), vectors=rd.vectors),
    lambda rd, basis: defect.RitzData(mu=0.5 * rd.mu, vectors=rd.vectors),
    lambda rd, basis: defect.RitzData(mu=rd.mu, vectors=basis),
], ids=["reversed", "halved", "unrotated"])
def test_wrong_ritz_pairs_are_caught_by_galerkin_monotonicity(monkeypatch, mutation):
    # each keeps (f, H^-1 f) >= (f, H_P^-1 f) on these draws; the Ritz form
    # no longer matches the direct solve
    def wrong(original):
        return lambda h, subspace: mutation(original(h, subspace), subspace.basis)

    detail = _caught(monkeypatch, "defect.galerkin_monotonicity", defect, "ritz", wrong)
    assert "Ritz form off the direct solve" in detail and "violated" not in detail, detail


def test_complement_through_the_magnitudes_of_b_is_caught(monkeypatch):
    # B^-1 from |eigenvalues| is right only for a definite B; these B are
    # indefinite
    def magnitudes(original):
        def sym_eig(b):
            values, vectors = original(b)
            return np.abs(values), vectors
        return sym_eig

    detail = _caught(monkeypatch, "defect.wilkinson_zero_complement", defect, "sym_eig", magnitudes)
    assert detail.startswith("max relative complement norm"), detail


def test_defect_in_place_of_its_square_is_caught(monkeypatch):
    detail = _caught(monkeypatch, "models.schrodinger_sandwich", models, "schrodinger_eta2",
                     lambda original: lambda kappa: math.sqrt(original(kappa)))
    assert detail.startswith("kappa=5: "), detail


def test_expansion_without_its_fourth_term_is_caught(monkeypatch):
    # the kappa^-4 term is about 2e-11 at kappa = 1000, the remainder 7e-14
    def three_terms(original):
        def schrodinger_taylor(kappa):
            c3 = 8.0 * (0.5 + math.pi**2 / 24.0)
            return ((c3 / kappa - 3.0) / kappa + 2.0) / kappa
        return schrodinger_taylor

    detail = _caught(monkeypatch, "models.schrodinger_taylor_agreement", models, "schrodinger_taylor", three_terms)
    assert detail.startswith("|bisection - series| = 2."), detail


def test_unseeded_matching_root_is_caught(monkeypatch):
    # a bisection started from a random point stops at another double; the
    # generator is seeded once, when the mutation is installed, so each
    # call still draws another point
    def jittered(original):
        rng = np.random.default_rng(0)
        return lambda kappa, q: original(kappa, q) * (1.0 + 1e-12 * rng.random())

    _caught(monkeypatch, "models.determinism", models, "_matching_offset", jittered)
