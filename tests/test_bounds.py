import dataclasses
import functools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritzbounds import bounds
from ritzbounds.bounds import (
    GapData,
    abs_cluster_bounds,
    build_report,
    classical_temple_kato,
    cluster_upper_bound,
    csv_to_rows,
    exactness_ratio,
    g1_from_spectral_gap,
    gamma_s,
    gq_lower_bound_lemma,
    prop_lower_bound,
    relative_gap_gq,
    report_to_csv,
    report_to_dict,
    report_to_json,
    residual_eta_sandwich,
    sandwich_bounds,
    trace_sandwich,
)
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds import defect
from ritzbounds.defect import (
    DefectSpectrum,
    etas_moments,
    etas_schur,
    moment_matrices,
    p_diagonal_split,
    relative_residual_identity,
    ritz,
)
from ritzbounds.densela import NormKind, sym_eig, sym_eigvals, ui_norm
from ritzbounds.errors import HypothesisError, SingularOperatorError

import mp_oracle
from conftest import (
    clustered_spd,
    haar_orthogonal,
    kappa_matrix,
    random_spd,
    random_subspace,
    span_e1,
    tilted_basis,
)


#: Tilt of the test subspaces whose draws must all meet a cluster
#: hypothesis: ``0.025/sqrt(n)``, as in ``verify``'s cluster checks.
DECIDING_TILT = 0.025 / math.sqrt(10)
#: Draws of each hypothesis-guarded loop; each must reach its comparison.
DRAWS = 10


def cluster_setup(rng, n=10, m=2, tilt=0.08):
    """Clustered SPD instance with its split/defect/gap data."""
    h, lam, eigenspace = clustered_spd(rng, n, m)
    s = Subspace(tilted_basis(rng, eigenspace, tilt))
    rd = ritz(h, s)
    split = p_diagonal_split(h, s)
    ds = etas_schur(split)
    g1 = relative_gap_gq(split.w_values, lam[0])
    return h, lam, s, rd, split, ds, g1


class TestGaps:
    def test_single_element(self):
        assert relative_gap_gq([2.0], 1.0) == pytest.approx(0.5)

    def test_collision_gives_zero(self):
        assert relative_gap_gq([1.0, 3.0], 1.0) == 0.0

    def test_empty_is_infinite(self):
        assert math.isinf(relative_gap_gq([], 1.0))

    def test_matches_brute_force_over_complement_spectrum(self, rng):
        q = haar_orthogonal(rng, 3)
        h = (q * np.array([1.0, 1.0, 5.0])) @ q.T
        s = Subspace(tilted_basis(rng, q[:, :2], 0.1))
        split = p_diagonal_split(0.5 * (h + h.T), s)
        g = relative_gap_gq(split.w_values, 1.0)
        brute = min(abs(1.0 - w) / w for w in split.w_values)
        assert g == pytest.approx(brute, rel=1e-14)

    def test_gamma_s_lowest_cluster(self):
        # left branch degenerates to 1 with the lambda_0 = 0 convention
        assert gamma_s(0.0, 4.0, 1.0, 2.0) == pytest.approx((4.0 - 2.0) / (4.0 + 2.0))

    def test_gamma_s_touching_cluster(self):
        assert gamma_s(0.0, 2.0, 1.0, 2.0) == 0.0

    def test_gamma_s_upper_limit(self):
        assert gamma_s(0.0, math.inf, 1.0, 2.0) == 1.0

    def test_gap_data_validation(self):
        with pytest.raises(ValueError):
            GapData(q=1, g_q=-0.1, gamma_s=0.5, lambda_qm1=0, lambda_qpm=2, mu_1=1, mu_m=1)


class TestGqLowerBoundLemma:
    def test_zero_defect_specialization(self):
        got = gq_lower_bound_lemma(0.0, mu1=1.0, mum=2.0, lambda_qm1=0.5, lambda_qpm=4.0)
        expected = min((1.0 - 0.5) / 0.5, (4.0 - 2.0) / 4.0)
        assert got == pytest.approx(expected)

    def test_lowest_cluster_zero_defect(self):
        got = gq_lower_bound_lemma(0.0, mu1=1.0, mum=2.0, lambda_qm1=0.0, lambda_qpm=4.0)
        assert got == pytest.approx((4.0 - 2.0) / 4.0)

    def test_lower_bounds_exact_gap(self, rng):
        decided = 0
        for _ in range(DRAWS):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng, tilt=DECIDING_TILT)
            gam = gamma_s(0.0, lam[2], rd.mu[0], rd.mu[-1])
            if ds.eta_max / (1 - ds.eta_max) >= gam:
                continue
            decided += 1
            lemma = gq_lower_bound_lemma(ds.eta_max, rd.mu[0], rd.mu[-1], 0.0, lam[2])
            assert lemma <= g1 + 1e-12
        assert decided == DRAWS

    def test_rejects_eta_at_least_one(self):
        with pytest.raises(ValueError):
            gq_lower_bound_lemma(1.0, 1.0, 1.0, 0.0, 2.0)


class TestClassicalTempleKato:
    def test_exact_eigenvector(self):
        assert classical_temple_kato(1.5, 0.0, 4.0) == pytest.approx(1.5)

    def test_kappa_family_residual(self):
        # residual of the first coordinate vector has norm 1/101 for any kappa
        for k in (10.0, 100.0):
            h = kappa_matrix(k)
            psi = np.array([1.0, 0.0, 0.0])
            mu = psi @ h @ psi
            r = h @ psi - mu * psi
            assert np.linalg.norm(r) == pytest.approx(1 / 101, abs=1e-18)
            lam = sym_eig(h)[0]
            lower = classical_temple_kato(mu, float(r @ r), lam[1])
            assert lower <= lam[0] <= mu

    def test_two_by_two_sweep_never_exceeds_true_eigenvalue(self):
        h = np.diag([1.0, 2.0])
        for t in np.linspace(1e-3, 0.4, 25):
            psi = np.array([np.cos(t), np.sin(t)])
            mu = psi @ h @ psi
            r = h @ psi - mu * psi
            lower = classical_temple_kato(mu, float(r @ r), 2.0)
            assert lower <= 1.0 + 1e-14

    def test_gap_hypothesis_enforced(self):
        with pytest.raises(HypothesisError):
            classical_temple_kato(2.0, 0.1, 1.5)


def _first_order(report):
    return [e for e in report.entries if e.theorem == "first_order"]


class TestFirstOrder:
    # (1 - eta_m) mu <= lambda <= (1 + eta_m) mu, which the report writes
    # as the interval (-eta_m, eta_m) for (mu - lambda)/mu
    def test_zero_defect_collapses(self):
        (entry,) = _first_order(build_report(np.diag([3.0, 4.0, 7.0]), span_e1()))
        assert (entry.lower, entry.upper, entry.valid) == (0.0, 0.0, True)

    def test_kappa_family_contains_lowest_eigenvalue(self):
        h = kappa_matrix(10.0)
        report = build_report(h, span_e1())
        (entry,) = _first_order(report)
        assert (entry.lower, entry.upper) == (-report.etas[-1], report.etas[-1])
        lam1 = sym_eig(h)[0][0]
        assert entry.lower <= (report.mu[0] - lam1) / report.mu[0] <= entry.upper


class TestClusterUpperBound:
    def test_zero_defects(self, rng):
        q = haar_orthogonal(rng, 4)
        h = (q * np.array([1.0, 2.0, 5.0, 6.0])) @ q.T
        split = p_diagonal_split(0.5 * (h + h.T), Subspace(q[:, :2]))
        ds = etas_schur(split)
        assert cluster_upper_bound(ds, 0.5, "frobenius") <= 1e-12

    def test_dominates_true_norm(self, rng):
        for _ in range(8):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
            actual = ui_norm(np.eye(2) - lam[0] * np.diag(1.0 / rd.mu), "frobenius")
            bound = cluster_upper_bound(ds, g1, "frobenius")
            assert bound >= actual * (1 - 1e-10)

    def test_infinite_gap_convention(self):
        from ritzbounds.defect import DefectSpectrum

        ds = DefectSpectrum(np.array([0.1, 0.2]), route="schur_block")
        assert cluster_upper_bound(ds, math.inf, "frobenius") == 0.0

    def test_nonpositive_gap_rejected(self):
        from ritzbounds.defect import DefectSpectrum

        ds = DefectSpectrum(np.array([0.1]), route="schur_block")
        with pytest.raises(HypothesisError):
            cluster_upper_bound(ds, 0.0, "spectral")


class TestSandwiches:
    def test_zero_defect_interval(self, rng):
        from ritzbounds.defect import DefectSpectrum

        ds = DefectSpectrum(np.zeros(2), route="schur_block")
        assert sandwich_bounds(ds, 0.9, "frobenius") == (0.0, 0.0)
        assert trace_sandwich(ds, 0.9) == (0.0, 0.0)

    def test_brackets_true_norm_all_kinds(self, rng):
        for _ in range(8):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
            for kind in NormKind:
                lo, hi = sandwich_bounds(ds, g1, kind)
                actual = ui_norm(np.eye(2) - lam[0] * np.diag(1.0 / rd.mu), kind)
                assert lo <= actual * (1 + 1e-9)
                assert actual <= hi * (1 + 1e-9)

    def test_trace_brackets_true_sum(self, rng):
        for _ in range(8):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
            true_sum = float(((rd.mu - lam[0]) / rd.mu).sum())
            lo, hi = trace_sandwich(ds, g1)
            assert lo <= true_sum * (1 + 1e-9) + 1e-15
            assert true_sum <= hi * (1 + 1e-9) + 1e-15

    def test_kappa_trace_sandwich(self):
        h = kappa_matrix(10.0)
        s = span_e1()
        rd = ritz(h, s)
        split = p_diagonal_split(h, s)
        ds = etas_schur(split)
        lam = sym_eig(h)[0]
        g1 = relative_gap_gq(split.w_values, lam[0])
        lo, hi = trace_sandwich(ds, g1)
        true_rel = (rd.mu[0] - lam[0]) / rd.mu[0]
        assert lo <= true_rel <= hi


class TestCorollaryGap:
    def test_simple_value(self):
        assert g1_from_spectral_gap(3.0, 1.0) == pytest.approx(0.5)

    def test_rejects_closed_gap(self):
        with pytest.raises(HypothesisError):
            g1_from_spectral_gap(1.0, 2.0)

    def test_below_exact_gap(self, rng):
        decided = 0
        for _ in range(DRAWS):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng, tilt=DECIDING_TILT)
            gam = (lam[2] - rd.mu[-1]) / (lam[2] + rd.mu[-1])
            if ds.eta_max >= gam:
                continue
            decided += 1
            assert g1_from_spectral_gap(lam[2], rd.mu[-1]) <= g1 + 1e-12
        assert decided == DRAWS


class TestPropLowerBound:
    def test_zero_ratios(self):
        assert prop_lower_bound([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_scalar_case_bounds_true_error(self, rng):
        # the 2 eta_m < 1 hypothesis is essential, so test vectors must
        # approximate the lowest eigenvector
        decided = 0
        for _ in range(DRAWS):
            h = random_spd(rng, 6)
            lam, vec = sym_eig(h)
            # a tilt towards v_j adds about sqrt(lambda_j/lambda_1) times
            # itself to the defect, so the dimension-aware tilt also
            # shrinks with the spread of the spectrum
            basis = tilted_basis(rng, vec[:, :1], 0.025 / math.sqrt(6) * math.sqrt(lam[0] / lam[-1]))
            s = Subspace(basis)
            rd = ritz(h, s)
            psi, omega = moment_matrices(h, rd)
            ds = etas_moments(psi, omega)
            if 2 * ds.eta_max >= 1:
                continue
            decided += 1
            ratio = rd.mu[0] * omega.entries[0, 0]
            true_rel = (rd.mu[0] - lam[0]) / rd.mu[0]
            assert prop_lower_bound(rd.mu, [ratio]) <= true_rel + 1e-12
        assert decided == DRAWS

    def test_cluster_case_bounds_trace_sum(self, rng):
        q = haar_orthogonal(rng, 3)
        h = (q * np.array([1.0, 1.1, 5.0])) @ q.T
        h = 0.5 * (h + h.T)
        s = Subspace(tilted_basis(rng, q[:, :2], 0.05))
        rd = ritz(h, s)
        psi, omega = moment_matrices(h, rd)
        ds = etas_moments(psi, omega)
        assert 2 * ds.eta_max < 1
        ratios = rd.mu * np.diag(omega.entries)
        lam = np.array([1.0, 1.1])
        true_sum = float(((rd.mu - lam) / rd.mu).sum())
        assert prop_lower_bound(rd.mu, ratios) <= true_sum + 1e-12


class TestResidualEtaSandwich:
    def test_zero_deviation_equality(self):
        lo, hi = residual_eta_sandwich([0.1, 0.2], 0.0)
        assert lo == hi == pytest.approx(0.3)

    def test_single_vector_collapse(self, rng):
        h = random_spd(rng, 5)
        s = Subspace(random_subspace(rng, 5, 1))
        rd = ritz(h, s)
        psi, omega = moment_matrices(h, rd)
        ratio = rd.mu[0] * omega.entries[0, 0]
        eta2 = etas_moments(psi, omega).sum_squares()
        lo, hi = residual_eta_sandwich([ratio], dl_measure_psi(psi, rd.mu))
        assert lo <= eta2 * (1 + 1e-10) + 1e-16
        assert eta2 <= hi * (1 + 1e-10) + 1e-16
        assert hi == pytest.approx(ratio)

    def test_brackets_defect_sum(self, rng):
        for _ in range(10):
            h = random_spd(rng, 9)
            s = Subspace(random_subspace(rng, 9, 3))
            rd = ritz(h, s)
            psi, omega = moment_matrices(h, rd)
            ds = etas_moments(psi, omega)
            ratios = rd.mu * np.diag(omega.entries)
            lo, hi = residual_eta_sandwich(ratios, dl_measure_psi(psi, rd.mu))
            total = ds.sum_squares()
            assert lo <= total * (1 + 1e-9) + 1e-15
            assert total <= hi * (1 + 1e-9) + 1e-15


def dl_measure_psi(psi, mu):
    from ritzbounds.defect import dl_measure

    return dl_measure(psi, mu)


class TestAbsClusterBounds:
    def test_zero_coupling(self):
        assert abs_cluster_bounds(np.zeros((3, 2)), [1.0, 1.0], 5.0, "frobenius") == 0.0

    def test_kappa_family_gap_hypothesis_fails_undeflated(self):
        # the coordinate vector couples only to the huge third direction,
        # but the absolute gap is measured against the nearby second
        # eigenvalue, so the unscaled bound is not even applicable here
        h = kappa_matrix(10.0)
        split = p_diagonal_split(h, span_e1())
        k_raw = split.residual
        # the residual of e_1 is -e_3 / 101, all of it in the complement
        assert_allclose(k_raw[:, 0], [0.0, 0.0, -1 / 101], atol=1e-17)
        lam = sym_eig(h)[0]
        with pytest.raises(HypothesisError):
            abs_cluster_bounds(k_raw, np.array([1 / 101]), lam[1], "spectral")

    def test_kappa_family_dominates_error_after_deflation(self):
        # dropping the decoupled middle coordinate restores the gap
        # hypothesis and the bound dominates the true error
        k = 10.0
        h = np.array([[1 / 101, -1 / 101], [-1 / 101, 1 + k**2]])
        split = p_diagonal_split(h, span_e1(2))
        k_raw = split.residual
        lam = sym_eig(h)[0]
        mu = np.array([1 / 101])
        bound = abs_cluster_bounds(k_raw, mu, lam[1], "spectral")
        assert bound >= abs(mu[0] - lam[0])

    def test_norm_and_trace_variants_hold(self, rng):
        for _ in range(8):
            h, lam, eigenspace = clustered_spd(rng, 10, 2, gap=4.0, spread=1.5)
            s = Subspace(tilted_basis(rng, eigenspace, 0.01))
            rd = ritz(h, s)
            split = p_diagonal_split(h, s)
            k_raw = split.residual
            for kind in ("spectral", "frobenius"):
                bound = abs_cluster_bounds(k_raw, rd.mu, lam[2], kind)
                actual = ui_norm(np.diag(rd.mu - lam[0]), kind)
                assert bound >= actual * (1 - 1e-10)
            trace_bound = abs_cluster_bounds(k_raw, rd.mu, lam[2], "trace")
            assert trace_bound >= float(np.abs(rd.mu - lam[0]).sum()) * (1 - 1e-10)

    def test_gap_hypothesis_enforced(self, rng):
        k = rng.standard_normal((4, 2))
        with pytest.raises(HypothesisError):
            abs_cluster_bounds(k, [1.0, 1.0], 1.0, "spectral")


class TestExactnessRatio:
    def test_equals_trace_quotient_on_exact_cluster(self, rng):
        for _ in range(6):
            h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
            ratio = exactness_ratio(split, lam[0])
            true_sum = float(((rd.mu - lam[0]) / rd.mu).sum())
            quotient = true_sum / ds.sum_squares()
            assert ratio == pytest.approx(quotient, rel=1e-10)

    def test_kappa_sweep_approaches_one(self):
        previous = None
        for k in (10.0, 100.0, 1000.0):
            h = kappa_matrix(k)
            split = p_diagonal_split(h, span_e1())
            lam1 = sym_eig(h)[0][0]
            ratio = exactness_ratio(split, lam1)
            gap = abs(ratio - 1.0)
            if previous is not None:
                assert gap < previous
            previous = gap
        assert abs(ratio - 1.0) < 0.05

    def test_large_complement_limit(self, rng):
        # scaling W far away from lambda forces the correction term to zero;
        # the inverse Gram S carries W^-1 in its leading block
        h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
        inflated = dataclasses.replace(
            split, s11_values=split.s11_values * 1e-6, inv_gram=split.inv_gram * 1e-6
        )
        assert exactness_ratio(inflated, lam[0]) == pytest.approx(1.0, abs=1e-5)

    def test_zero_defect_rejected(self, rng):
        q = haar_orthogonal(rng, 4)
        h = (q * np.array([1.0, 2.0, 3.0, 4.0])) @ q.T
        split = p_diagonal_split(0.5 * (h + h.T), Subspace(q[:, :1]))
        with pytest.raises(SingularOperatorError):
            exactness_ratio(split, 1.0)


class TestScalingRobustness:
    def test_all_relative_quantities_scale_invariant(self, rng):
        h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
        base = build_report(h, s, "frobenius", lambda_ref=lam)
        for c in (1e-8, 1e-4, 10.0, 1e8):
            scaled = build_report(c * h, s, "frobenius", lambda_ref=c * lam)
            assert_allclose(scaled.etas, base.etas, rtol=1e-12, atol=1e-15)
            assert scaled.gaps.g_q == pytest.approx(base.gaps.g_q, rel=1e-12)
            assert scaled.gaps.gamma_s == pytest.approx(base.gaps.gamma_s, rel=1e-12)
            for key in ("cluster_T33", "sandwich_lower", "sandwich_upper",
                        "trace_lower", "trace_upper", "prop36_lower"):
                assert scaled.aggregates[key] == pytest.approx(
                    base.aggregates[key], rel=1e-10
                ), key


class TestDichotomy:
    def test_first_order_width_decays_with_coupling(self):
        widths = []
        for k in (10.0, 100.0, 1000.0):
            (entry,) = _first_order(build_report(kappa_matrix(k), span_e1()))
            widths.append(entry.upper - entry.lower)
        # width ~ 1/kappa: each decade shrinks it by ~10
        assert widths[1] < 0.15 * widths[0]
        assert widths[2] < 0.15 * widths[1]


class TestReport:
    def test_kappa_report_values(self):
        h = kappa_matrix(10.0)
        report = build_report(h, span_e1(), "frobenius")
        assert report.mu[0] == pytest.approx(1 / 101, abs=1e-18)
        assert report.etas[0] == pytest.approx(1 / np.sqrt(101 * 101.0), rel=1e-12)
        assert report.flags["routes_agree"]
        assert report.flags["tk_gap"]
        assert report.aggregates["classical_tk_lower"] is not None

    def test_identity_matrix_zero_width(self, rng):
        s = Subspace(random_subspace(rng, 4, 2))
        report = build_report(np.eye(4), s, "frobenius")
        assert_allclose(report.mu, np.ones(2), atol=1e-14)
        assert_allclose(report.etas, np.zeros(2), atol=1e-14)
        for entry in report.entries:
            if entry.theorem == "first_order":
                assert entry.upper - entry.lower <= 1e-13

    @pytest.mark.parametrize("q", [0, -9])
    def test_target_index_below_one_is_refused_before_factoring(self, q, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sorted_cholesky called")

        monkeypatch.setattr(defect, "sorted_cholesky", refused)
        with pytest.raises(ValueError, match="q must be at least 1"):
            build_report(np.diag(np.arange(1.0, 7.0)), span_e1(6), q=q)

    def test_bad_norm_kind_is_refused_before_factoring(self, monkeypatch):
        # only the assembly reads the norm kind, but the O(n^3) measurement
        # must not run for a report that cannot be assembled
        def refused(*args, **kwargs):
            raise AssertionError("sorted_cholesky called")

        monkeypatch.setattr(defect, "sorted_cholesky", refused)
        with pytest.raises(ValueError, match="unknown norm kind 'bogus'"):
            build_report(np.diag(np.arange(1.0, 7.0)), span_e1(6), norm_kind="bogus")

    @pytest.mark.parametrize(
        "lambda_ref",
        [[np.nan, 1, 3, 4], [1, 1, np.inf, 4], [4, 3, 1, 1], [[1, 1, 3, 4]], [0, 1, 3, 4], [-1, 1, 3, 4]],
        ids=["nan", "inf", "decreasing", "2d", "zero", "negative"],
    )
    def test_malformed_lambda_ref_is_refused_before_factoring(self, lambda_ref, monkeypatch, rng):
        h, lam, eigenspace = clustered_spd(rng, 8, 2)
        calls = []
        factor = defect.sorted_cholesky

        def counted(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(defect, "sorted_cholesky", counted)
        with pytest.raises(ValueError, match="lambda_ref must be"):
            build_report(h, Subspace(tilted_basis(rng, eigenspace)), lambda_ref=lambda_ref)
        assert not calls

    @pytest.mark.parametrize(
        "q, lambda_ref",
        [
            (1.5, None), (2.0, None), (np.float64(2.0), None), (True, None), (8, None), (9, None),
            (1, [1.0]), (1, [1.0, 2.0]),
        ],
        ids=["half", "float", "float64", "bool", "q8", "q9", "one_reference_value", "m_reference_values"],
    )
    def test_bad_target_index_or_count_is_refused_before_factoring(self, q, lambda_ref, monkeypatch):
        # diag(1..8) with m = 2: the cluster lambda_q..lambda_(q+m-1) must
        # lie within n, min(n, q + m) reference values are needed, and q
        # must be an integer that is not a bool
        calls = []
        factor = defect.sorted_cholesky

        def counted(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(defect, "sorted_cholesky", counted)
        basis = np.linalg.qr(np.eye(8)[:, :2] + 1e-3 * np.eye(8)[:, 5:7])[0]
        with pytest.raises(ValueError, match="q must be an integer|reference eigenvalues"):
            build_report(np.diag(np.arange(1.0, 9.0)), Subspace(basis), lambda_ref=lambda_ref, q=q)
        assert not calls

    def test_missing_neighbour_is_refused_not_read_as_infinite(self):
        # diag(1, 1.5, 100) and u close to e_2: mu = 1.4999 has the true error
        # (mu - 1)/mu = 0.3333, and only lambda_2 = 1.5 shows that the
        # cluster does not stand alone.  Read as +inf, the unsupplied
        # lambda_2 would make every relative flag hold around eta = 0.004.
        h = np.diag([1.0, 1.5, 100.0])
        u = Subspace(np.array([[0.01], [1.0], [0.0]]) / math.hypot(0.01, 1.0))
        with pytest.raises(ValueError, match="needs at least 2 reference eigenvalues"):
            build_report(h, u, lambda_ref=[1.0])
        report = build_report(h, u, lambda_ref=[1.0, 1.5])
        truth = (report.mu[0] - 1.0) / report.mu[0]
        assert truth == pytest.approx(1.0 / 3.0, rel=1e-3)
        assert not report.flags["eta_vs_gamma"]
        for e in report.entries:
            if e.theorem in ("first_order", "cluster_T33"):
                assert not e.valid, e

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_only_eigenvalues_past_n_are_infinite(self, q):
        # diag(1..6), m = 2, given exactly the min(n, q + m) values needed
        n, m = 6, 2
        lam = np.arange(1.0, n + 1.0)
        basis = np.linalg.qr(np.eye(n)[:, q - 1:q + 1] + 1e-3 * np.eye(n)[:, [(q + 2) % n, (q + 3) % n]])[0]
        report = build_report(np.diag(lam), Subspace(basis), lambda_ref=lam[: min(n, q + m)], q=q)
        assert report.gaps.lambda_qm1 == q - 1.0
        assert report.gaps.lambda_qpm == (q + m if q + m <= n else math.inf)
        assert report.lambda_ref == tuple(lam[: min(n, q + m)])
        if q == 1:
            assert report.aggregates["abs_cluster"] is not None
            assert report.aggregates["g1_cor35"] == pytest.approx((3.0 - report.mu[-1]) / (3.0 + report.mu[-1]))

    def test_numpy_integer_target_index_gives_the_same_json(self):
        basis = np.linalg.qr(np.eye(8)[:, :2] + 1e-3 * np.eye(8)[:, 5:7])[0]
        h = np.diag(np.arange(1.0, 9.0))
        report = build_report(h, Subspace(basis), q=np.int64(2))
        assert report_to_json(report) == report_to_json(build_report(h, Subspace(basis), q=2))
        assert type(report.q) is int and type(report.flags["abs_gap"]) is bool

    def test_rotated_cluster_report_brackets(self, rng):
        h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
        report = build_report(h, s, "frobenius", lambda_ref=lam)
        true_sum = float(((np.array(report.mu) - lam[0]) / np.array(report.mu)).sum())
        assert report.aggregates["trace_lower"] <= true_sum * (1 + 1e-9)
        assert true_sum <= report.aggregates["trace_upper"] * (1 + 1e-9)
        assert report.flags["cluster_multiplicity"]

    def test_entry_intervals_are_ordered(self, rng):
        h, lam, s, rd, split, ds, g1 = cluster_setup(rng)
        report = build_report(h, s, "trace", lambda_ref=lam)
        for e in report.entries:
            assert e.lower <= e.upper

    def test_json_round_trip_bytes(self, rng):
        h, lam, s, *_ = cluster_setup(rng)
        report = build_report(h, s, "frobenius", lambda_ref=lam)
        text = report_to_json(report)
        again = report_to_json(json.loads(text))
        assert text == again

    def test_csv_round_trip_bytes(self, rng):
        h, lam, s, *_ = cluster_setup(rng)
        report = build_report(h, s, "frobenius", lambda_ref=lam)
        text = report_to_csv(report)
        again = report_to_csv(csv_to_rows(text))
        assert text == again

    def test_report_dict_has_schema_keys(self, rng):
        h, lam, s, *_ = cluster_setup(rng)
        d = report_to_dict(build_report(h, s, "spectral", lambda_ref=lam))
        assert set(d) == {
            "n", "m", "q", "norm_kind", "mu", "etas", "eta_route",
            "lambda_ref", "gaps", "flags", "aggregates", "entries",
        }
        assert {e["theorem"] for e in d["entries"]} <= set(bounds.THEOREM_TAGS)

    def test_aggregates_and_entry_bounds_are_python_floats(self, rng):
        # np.float64 passes isinstance(x, float), so the type is compared
        reports = [build_report(*converged_case(rng, 24, m, 1e-4)[::2]) for m in (1, 2, 4)]
        for k in (0, 3, 4):
            h, basis, _ = graded_24_decades(k)
            reports.append(build_report(h, Subspace(basis)))
        assert any(r.aggregates["abs_cluster"] is not None for r in reports)
        for r in reports:
            for key, value in r.aggregates.items():
                assert value is None or type(value) is float, (key, type(value))
            for e in r.entries:
                assert type(e.lower) is float and type(e.upper) is float, e


def json_oracle(d):
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


class TestJsonWriter:
    """``report_to_json`` writes the bytes of ``json.dumps(sort_keys=True,
    indent=2)`` without json's encoder."""

    def reports(self, rng):
        # m = 1..16, q up to 3, with reference values given and computed
        for m in range(1, 17):
            n, q = m + 4, 1 + m % 3
            h, lam, s = converged_case(rng, n, m, 10.0 ** -(1 + m % 6))
            yield build_report(h, s, ("frobenius", "spectral", "trace")[m % 3], lambda_ref=lam if m % 2 else None, q=q)
        # an invariant subspace past the middle of diag(1..6): lambda_(q+m)
        # is past n, and no absolute cluster bound or exactness ratio
        yield build_report(np.diag(np.arange(1.0, 7.0)), Subspace(np.eye(6)[:, 4:]), q=5)

    def test_reports_and_their_parsed_dicts(self, rng):
        reports = list(self.reports(rng))
        assert any(r.q > 1 for r in reports) and {r.m for r in reports} == set(range(1, 17))
        last = report_to_dict(reports[-1])
        assert last["gaps"]["lambda_qpm"] is None and last["aggregates"]["exactness_ratio"] is None
        assert "abs_cluster" not in {e["theorem"] for e in last["entries"]}
        for report in reports:
            text = report_to_json(report)
            assert text == json_oracle(report_to_dict(report))
            parsed = json.loads(text)
            assert report_to_json(parsed) == json_oracle(parsed) == text

    def test_hand_built_values(self):
        d = {
            "floats": [math.inf, -math.inf, math.nan, 0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16],
            "numpy": {"x": np.float64(0.1), "inf": np.float64(-math.inf), "nan": np.float64(math.nan)},
            "text": ["\u00fc \"quoted\" \\ \n\t\x00", "inf", ""],
            "other": [None, True, False, 0, -7, 2**70, (1.5, [])],
            "empty": {},
            "nested": [[{"b": 1.0, "a": [np.float64(2.5)]}]],
        }
        assert report_to_json(d) == json_oracle(d)
        with pytest.raises(TypeError):
            report_to_json({"flag": np.bool_(True)})


# The hypotheses of each theorem as the paper states them: first-order
# localization and the quadratic cluster bound need the defect below the
# two-sided separation and a cluster of full multiplicity (first-order
# reports the Schur-route defects, so it also needs the two routes to
# agree); the sandwich and its trace form need the lowest cluster below
# lambda_(m+1); the classical bounds need their own gaps.
PAPER_HYPOTHESES = {
    "first_order": {"eta_vs_gamma", "cluster_multiplicity", "routes_agree"},
    "cluster_T33": {"eta_vs_gamma", "cluster_multiplicity"},
    "sandwich_T34": {"mu_below_next", "cluster_multiplicity"},
    "trace_T34": {"mu_below_next", "cluster_multiplicity"},
    "classical_TK": {"tk_gap"},
    "abs_cluster": {"abs_gap"},
}
RELATIVE_THEOREMS = ("first_order", "cluster_T33", "sandwich_T34", "trace_T34")


def theorem_table_cases():
    rng = np.random.default_rng(7)
    h, lam, s, *_ = cluster_setup(rng)
    yield "clustered q=1", build_report(h, s, "frobenius", lambda_ref=lam)

    q = haar_orthogonal(rng, 8)
    lam = np.array([1.0, 3.0, 3.0, 20.0, 25.0, 30.0, 40.0, 50.0])
    h = (q * lam) @ q.T
    basis = Subspace(tilted_basis(rng, q[:, 1:3], 0.02))
    report = build_report(0.5 * (h + h.T), basis, "spectral", lambda_ref=lam, q=2)
    assert report.q == 2
    yield "q=2", report

    # m = n - 1: lambda_(m+1) = lambda_n still exists
    h = random_spd(rng, 5)
    lam = sym_eig(h)[0]
    report = build_report(h, Subspace(random_subspace(rng, 5, 4)), "trace", lambda_ref=lam)
    assert report.gaps.lambda_qpm == lam[4]
    yield "m=n-1", report

    # a Ritz value of 2.5 above lambda_2 = 2
    basis = np.zeros((5, 1))
    basis[[0, 3], 0] = 1.0 / np.sqrt(2.0)
    report = build_report(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), Subspace(basis))
    assert not report.flags["tk_gap"]
    yield "no tk gap", report

    h, lam, eigenspace = clustered_spd(rng, 9, 2)
    yield "tilt 0", build_report(h, Subspace(eigenspace), "frobenius", lambda_ref=lam)

    # q + m > n: lambda_(q+m) lies past n, so it is +inf
    h = random_spd(rng, 5)
    report = build_report(h, Subspace(random_subspace(rng, 5, 4)), "trace", lambda_ref=sym_eig(h)[0], q=2)
    assert math.isinf(report.gaps.lambda_qpm)
    yield "q+m>n", report


def test_theorem_table_matches_the_paper():
    assert {tag: set(flags) for tag, flags in bounds.THEOREMS.items()} == PAPER_HYPOTHESES
    emitted = set()
    for name, report in theorem_table_cases():
        order = []
        for e in report.entries:
            assert e.valid == all(report.flags[f] for f in PAPER_HYPOTHESES[e.theorem]), (name, e)
            if e.theorem in RELATIVE_THEOREMS:
                order.append((0, e.index, RELATIVE_THEOREMS.index(e.theorem)))
            else:
                order.append((1 + (e.theorem == "abs_cluster"), e.index, 0))
            emitted.add(e.theorem)
        # the relative theorems interleave per index, then classical_TK,
        # then abs_cluster per index
        assert order == sorted(set(order)), name
        assert [e.index for e in report.entries if e.theorem == "first_order"] == list(
            range(1, report.m + 1)
        ), name
    assert emitted == set(bounds.THEOREM_TAGS)


# the seed derandomize drew from the test's source when it was written,
# int_from_bytes(function_digest(test)): the examples stay the same
# across edits
@hypothesis.seed(8563450703080634942689729977960302823514238389434864595814190072714030355252484607448543758906169502263959655086002)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=12, max_value=48),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-14.0, max_value=-2.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_converged_subspace_report_contains_true_error(n, m, log_tilt, seed):
    # H is diagonal, so its spectrum is exactly the stored one: an m-fold
    # lowest value c and the rest in [3c, 60c].  The true relative errors
    # (mu_i - c)/mu_i then follow without cancellation from the pencil
    # (B_2^T (D_2 - c) B_2, B^T B) of the basis rows B_2 off the cluster.
    rng = np.random.default_rng(seed)
    c = 10.0 ** rng.uniform(-2.0, 2.0)
    rest = c * (3.0 + 57.0 * np.sort(rng.random(n - m)))
    perm = rng.permutation(n)
    lam = np.concatenate([np.full(m, c), rest])
    h = np.diag(lam[np.argsort(perm)])
    start = np.zeros((n, m))
    start[perm[:m], np.arange(m)] = 1.0
    g = np.zeros((n, m))
    g[perm[m:]] = rng.standard_normal((n - m, m))
    basis, _ = np.linalg.qr(start + 10.0**log_tilt * g / np.linalg.norm(g, axis=0))

    report = build_report(h, Subspace(basis), "frobenius", lambda_ref=lam)

    b2 = basis[perm[m:]]
    drop = scipy.linalg.eigh(b2.T @ ((rest - c)[:, None] * b2), basis.T @ basis, eigvals_only=True)
    mp_oracle.valid_entries_contain(report, drop / (c + drop))


def converged_case(rng, n, m, tilt):
    """An m-fold lowest eigenvalue c, the rest in [3c, 60c], and the
    eigenspace tilted by ``tilt`` (turned by a random m x m rotation when
    tilt is 0), drawn as the benchmark's converged reports draw it."""
    q = haar_orthogonal(rng, n)
    c = 10.0 ** rng.uniform(-2.0, 2.0)
    lam = np.concatenate([np.full(m, c), c * (3.0 + 57.0 * np.sort(rng.random(n - m)))])
    h = (q * lam) @ q.T
    g = rng.standard_normal((n - m, m))
    basis, _ = np.linalg.qr(q[:, :m] + tilt * (q[:, m:] @ (g / np.linalg.norm(g, axis=0))))
    if tilt == 0.0:
        basis = basis @ haar_orthogonal(rng, m)
    return 0.5 * (h + h.T), lam, Subspace(basis)


class TestRoutesAgree:
    def test_more_dimensions_than_complement(self):
        # m = 4 > n - m = 1: three defects are zero by structure, and the
        # moment route returns rounding noise for them
        agree = [
            build_report(random_spd(rng, 5), Subspace(random_subspace(rng, 5, 4))).flags["routes_agree"]
            for rng in map(np.random.default_rng, range(20))
        ]
        assert sum(agree) >= 19

    def test_relative_disagreement_fails_below_absolute_1e_9(self):
        eta = 1e-6
        schur = DefectSpectrum(np.array([0.5 * eta, eta]), route="schur_block")
        close = DefectSpectrum(np.array([0.5 * eta, eta * (1 + 0.5 * bounds.ROUTES_RTOL)]), route="moments")
        apart = DefectSpectrum(np.array([0.5 * eta, eta * (1 + 1e-6)]), route="moments")
        assert bounds._routes_agree(schur, close, n=10)
        assert abs(apart.etas[-1] - eta) < 1e-9
        assert not bounds._routes_agree(schur, apart, n=10)

    def test_only_defects_that_are_not_zero_by_structure_count(self):
        schur = DefectSpectrum(np.array([0.0, 0.0, 0.3]), route="schur_block")
        moments = DefectSpectrum(np.array([1e-9, 1e-8, 0.3]), route="moments")
        assert bounds._routes_agree(schur, moments, n=4)
        assert not bounds._routes_agree(schur, moments, n=5)

    def test_converged_subspaces_agree(self):
        # the benchmark's three seed-independent converged cases, drawn in
        # its order from one generator
        rng = np.random.default_rng(7)
        for n, m, tilt in ((24, 4, 1e-10), (36, 4, 1e-12), (12, 4, 0.0)):
            h, lam, s = converged_case(rng, n, m, tilt)
            assert build_report(h, s, lambda_ref=lam).flags["routes_agree"], tilt


def test_tk_gap_needs_a_margin_above_the_rounding_of_mu_1():
    # a subspace spanning an exact double lowest eigenvalue: mu_1 may round
    # a few eps below lambda_2 = lambda_1, which is no gap at all
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h, lam, eigenspace = clustered_spd(rng, 9, 2)
        report = build_report(h, Subspace(eigenspace), lambda_ref=lam)
        assert not report.flags["tk_gap"], seed
        assert not any(e.valid for e in report.entries if e.theorem == "classical_TK"), seed
    report = build_report(np.diag([1.0, 1.0 + 1e-9, 3.0]), span_e1())
    assert report.flags["tk_gap"]


DL_TILTS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("tilt", DL_TILTS)
def test_dl_matches_mpmath_on_converged_subspaces(tilt):
    # dl is about eta^2 ~ tilt^2; formed from the residuals it keeps the
    # relative accuracy of R itself, about eps ||H|| / ||R|| ~ eps / tilt,
    # where Psi - diag(1/mu) loses about eps / tilt^2
    rng = np.random.default_rng(DL_TILTS.index(tilt))
    for n, m in ((24, 2), (36, 4)):
        h, lam, s = converged_case(rng, n, m, tilt)
        exact = mp_oracle.dl(h, s.basis, 60)
        dl = build_report(h, s, lambda_ref=lam).aggregates["dl"]
        assert dl == pytest.approx(exact, rel=1e-6 if tilt >= 1e-10 else 1e-4, abs=0), (n, m)


def test_report_moment_side_matches_the_pencil_form(monkeypatch):
    # on well-conditioned draws the report's moment side, taken from the
    # singular values of one scaled residual block, equals the pencil form
    # of the public API: etas_moments, dl_measure and mu diag(Omega)
    seen = []
    routes_agree = bounds._routes_agree

    def recorded(schur, moments, n):
        seen.append(moments)
        return routes_agree(schur, moments, n)

    monkeypatch.setattr(bounds, "_routes_agree", recorded)
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2 * m + 2, 24))
        h = random_spd(rng, n)
        s = Subspace(random_subspace(rng, n, m))
        report = build_report(h, s)
        rd = ritz(h, s)
        psi, omega = moment_matrices(h, rd)
        assert seen[-1].route == "moments"
        assert_allclose(seen[-1].etas, etas_moments(psi, omega).etas, rtol=1e-12, atol=0)
        assert report.aggregates["dl"] == pytest.approx(dl_measure_psi(psi, rd.mu), rel=1e-12, abs=0)
        ratios = rd.mu * np.diag(omega.entries)
        assert report.aggregates["residual_eta_upper"] == pytest.approx(ratios.sum(), rel=1e-12, abs=0)


def test_report_reads_the_moment_route_from_one_defect_function(monkeypatch):
    # build_report takes the moment-route defects, dl and the residual
    # quotients from one etas_residual call on its own split
    calls = []

    def spied(split):
        calls.append(split)
        return defect.etas_residual(split)

    monkeypatch.setattr(bounds, "etas_residual", spied)
    rng = np.random.default_rng(21)
    for n, m in ((12, 2), (20, 4), (9, 1)):
        h = random_spd(rng, n)
        report = build_report(h, Subspace(random_subspace(rng, n, m)))
        assert len(calls) == 1, (n, m)
        moments, dl, ratios = defect.etas_residual(calls.pop())
        assert report.aggregates["dl"] == dl
        assert report.aggregates["residual_eta_upper"] == float(np.sum(ratios))
        assert report.flags["routes_agree"]


def near_lowest_eigenvector():
    """H with spectrum 1, 2, 5..10 and a subspace near its lowest
    eigenvector, tilted toward the third; the complement keeps lambda_2,
    so ``w_1 = lambda_2 = 2``."""
    rng = np.random.default_rng(3)
    lam = np.array([1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    q = haar_orthogonal(rng, 8)
    h = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
    return h, Subspace(np.linalg.qr(q[:, :1] + 1e-3 * q[:, 2:3])[0]), lam


def test_classical_bounds_are_valid_only_for_the_lowest_target():
    # Temple-Kato bounds mu_1 - lambda_1 and the absolute cluster bound
    # covers lambda_1..lambda_m; a subspace near the lowest eigenvector,
    # reported against q = 2, is no estimate of lambda_2 = 2
    h, s, lam = near_lowest_eigenvector()
    for target in (1, 2):
        report = build_report(h, s, lambda_ref=lam, q=target)
        assert report.flags["tk_gap"] == report.flags["abs_gap"] == (target == 1), target
        classical = [e for e in report.entries if e.theorem in ("classical_TK", "abs_cluster")]
        assert len(classical) == 2, target
        mp_oracle.valid_entries_contain(report, [(report.mu[0] - lam[target - 1]) / report.mu[0]])


GRADED_24 = [(n, m) for n in (16, 24, 32) for m in (1, 2, 4)] * 2


@functools.lru_cache(maxsize=None)
def graded_24_decades(k):
    """Case k: ``D A D`` of order n = ``GRADED_24[k][0]`` with cond(A) <=
    10, unit diag(A) and D = 2^-j for j in [0, 40], so H is formed exactly
    and spans 24 decades; the basis tilts the m lowest eigenvectors by an
    energy-scaled perturbation of size 1e-2..1e-6 (by k mod 5).  Returns
    H, the basis and, from the oracle, the relative errors ``(mu_i -
    lambda_i)/mu_i`` of the exact Ritz values of the basis.  Cached:
    several tests read the same cases, and none writes to them."""
    n, m = GRADED_24[k]
    rng = np.random.default_rng(k)
    q = haar_orthogonal(rng, n)
    a = (q * 10.0 ** rng.uniform(0.0, 1.0, n)) @ q.T
    s = 1.0 / np.sqrt(np.diag(a))
    a = s[:, None] * a * s[None, :]
    d = 2.0 ** -rng.permutation(np.round(np.linspace(0.0, 40.0, n)))
    h = d[:, None] * (0.5 * (a + a.T)) * d[None, :]
    c = rng.standard_normal((n - m, m))
    c /= np.linalg.norm(c, axis=0)
    basis, truth = mp_oracle.tilted_eigenbasis(h, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)[k % 5], c, 60)
    return h, basis, truth


@pytest.mark.parametrize("k", range(len(GRADED_24)))
def test_report_on_24_decade_grading_contains_true_error(k):
    h, basis, truth = graded_24_decades(k)
    report = build_report(h, Subspace(basis))
    assert report.flags["routes_agree"]
    mp_oracle.valid_entries_contain(report, truth)


def test_one_factorization_of_h_per_report(monkeypatch):
    # the split, the moment route and lambda_ref share one Cholesky factor
    # of H; only m x m matrices are factored or diagonalized besides it
    from ritzbounds import defect, densela

    orders = {"cholesky_lower": [], "sym_eig": []}
    for name, calls in orders.items():

        def counted(a, *args, _original=getattr(densela, name), _calls=calls, **kwargs):
            _calls.append(np.shape(getattr(a, "entries", a))[0])
            return _original(a, *args, **kwargs)

        for module in (densela, defect, bounds):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(3)
    for n, m, lam in ((40, 3, None), (12, 4, None), (30, 1, "exact")):
        h, exact, eigenspace = clustered_spd(rng, n, m)
        orders["cholesky_lower"].clear()
        orders["sym_eig"].clear()
        build_report(h, Subspace(tilted_basis(rng, eigenspace, 1e-3)), lambda_ref=exact if lam else None)
        assert sum(k > m for k in orders["cholesky_lower"]) == 1, (n, m)
        assert all(k <= m for k in orders["sym_eig"]), (n, m)


def test_report_takes_no_singular_vectors_beyond_m_and_no_gen_sym_eig(monkeypatch):
    # the split needs only an orthonormal basis of range(G) and the moment
    # pencil only its eigenvalues; m x m matrices (the compression) remain
    from ritzbounds import defect, densela

    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("gen_sym_eig called")

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for module in (densela, defect, bounds):
        if hasattr(module, "gen_sym_eig"):
            monkeypatch.setattr(module, "gen_sym_eig", refused)
    rng = np.random.default_rng(5)
    for n, m in ((40, 3), (12, 4), (9, 1)):
        h, _, eigenspace = clustered_spd(rng, n, m)
        shapes.clear()
        build_report(h, Subspace(tilted_basis(rng, eigenspace, 1e-3)))
        assert shapes and all(max(shape) <= m for shape in shapes), (n, m, shapes)


def test_m_fold_lowest_eigenvalue_keeps_every_copy():
    # the inverse Gram's eigenvalues hold every copy of an m-fold lowest
    # eigenvalue; the copies tie within that route's error bound, so the
    # report takes them from dqds
    rng = np.random.default_rng(11)
    n, m = 24, 3
    h, _, eigenspace = clustered_spd(rng, n, m, spread=4.0)
    exact = mp_oracle.spectrum(h, 40)
    report = build_report(h, Subspace(tilted_basis(rng, eigenspace, 1e-3)))
    split = p_diagonal_split(h, Subspace(tilted_basis(rng, eigenspace, 1e-3)))
    fast = 1.0 / np.linalg.eigvalsh(split.inv_gram)[::-1][: m + 2]
    for values in (fast, np.array(report.lambda_ref)):
        assert np.max(np.abs(values - exact[: m + 2]) / exact[: m + 2]) <= 1e-13
    assert np.array_equal(report.lambda_ref, sym_eigvals(h)[: m + 2])


def test_forced_fallback_is_bit_identical_to_dqds(monkeypatch):
    # with SPREAD = 1 lambda_(q+m+1) lies outside the window
    rng = np.random.default_rng(12)
    h = random_spd(rng, 30, log_cond=1.0)
    s = Subspace(random_subspace(rng, 30, 2))
    fast = build_report(h, s, q=2)
    monkeypatch.setattr(defect, "SPREAD", 1.0)
    report = build_report(h, s, q=2)
    assert np.array_equal(report.lambda_ref, sym_eigvals(h)[:5])
    # the fast path agrees to rounding, and no flag differs
    assert_allclose(fast.lambda_ref, report.lambda_ref, rtol=1e-13)
    assert fast.gaps.g_q == pytest.approx(report.gaps.g_q, rel=1e-13)
    assert fast.flags == report.flags


def test_spread_spectrum_takes_dqds():
    # D A D with D spanning 6 decades puts lambda_(m+2)/lambda_1 far above
    # SPREAD: the inverse Gram keeps only about eps lambda_k/lambda_1 of
    # lambda_k, so dqds gives them all, to relative accuracy
    rng = np.random.default_rng(13)
    n, m = 16, 2
    q = haar_orthogonal(rng, n)
    d = np.logspace(0.0, -6.0, n)
    h = d[:, None] * ((q * np.logspace(0.0, 1.0, n)) @ q.T) * d[None, :]
    h = 0.5 * (h + h.T)
    exact = mp_oracle.spectrum(h, 60)
    report = build_report(h, Subspace(random_subspace(rng, n, m)))
    assert report.lambda_ref[-1] > defect.SPREAD * report.lambda_ref[0]
    assert np.array_equal(report.lambda_ref, sym_eigvals(h)[: m + 2])
    assert np.max(np.abs(report.lambda_ref - exact[: m + 2]) / exact[: m + 2]) <= 1e-13


def test_fast_path_report_takes_no_dqds_of_h_or_w_and_no_dense_inverse(monkeypatch):
    # the inverse Gram of one triangular inverse serves lambda_ref and the
    # w bracket; the only values-only SVDs are of n x m blocks, the moment
    # route runs no row loop, and no LU solve inverts an n x n matrix
    from ritzbounds import densela

    shapes, identities = [], []
    svd, solve = np.linalg.svd, np.linalg.solve

    def recorded_svd(a, *args, **kwargs):
        if not kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recorded_solve(a, b):
        if np.ndim(b) == 2 and b.shape[1] > 1 and np.array_equal(b, np.eye(len(b))):
            identities.append(b.shape[1])
        return solve(a, b)

    def refused(*args, **kwargs):
        raise AssertionError("solve_lower called")

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    for module in (densela, defect, bounds):
        if hasattr(module, "solve_lower"):
            monkeypatch.setattr(module, "solve_lower", refused)
    rng = np.random.default_rng(14)
    for n, m, q in ((100, 3, 1), (150, 1, 2)):
        h = random_spd(rng, n, log_cond=1.0)
        shapes.clear()
        identities.clear()
        build_report(h, Subspace(random_subspace(rng, n, m)), q=q)
        assert shapes and all(max(shape) <= n and min(shape) <= m for shape in shapes), (n, shapes)
        assert identities and max(identities) < n, (n, identities)


def test_q1_report_reads_w_1_from_a_one_value_bracket(monkeypatch):
    # by interlacing (w_q >= lambda_q) a q = 1 report reads only w_1 of the
    # split's w_values, all n - m eigenvalues of W: no SVD of the n x (n-m)
    # G runs, and g_1 keeps the exact w_1 = 1/100 of the kappa family
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    h = kappa_matrix(10.0)
    assert len(p_diagonal_split(h, span_e1()).w_values) == len(h) - 1
    report = build_report(h, span_e1())
    assert shapes and (3, 2) not in shapes, shapes
    # w_1 is the lowest Ritz value of the complement span(e_2, e_3)
    exact = mp_oracle.ritz_errors(h, np.eye(3)[:, 1:], 50)[0]
    assert report.aggregates["g_1"] == pytest.approx(exact, rel=2e-14)


def test_resolvent_past_the_bracket_forms_no_g(monkeypatch):
    # the collision check runs over every eigenvalue theta of the S11 the
    # resolvent solves with, so a lambda between w_7 and w_8, beyond SPREAD
    # w_1, needs neither G nor dqds, and every lambda = 1/theta_j collides
    rng = np.random.default_rng(15)
    h = random_spd(rng, 10)
    split = p_diagonal_split(h, Subspace(random_subspace(rng, 10, 2)))
    theta = split.s11_values
    assert theta[-1] * defect.SPREAD < theta[0]
    calls = []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)

        return wrapper

    for name in ("orthonormal_completion", "singular_values"):
        monkeypatch.setattr(defect, name, counted(getattr(defect, name)))
    lam = 0.5 * (1.0 / theta[-2] + 1.0 / theta[-1])
    exactness_ratio(split, lam)
    relative_residual_identity(split, split.ritz, lam)
    assert not calls
    for lam in 1.0 / theta:
        with pytest.raises(SingularOperatorError):
            exactness_ratio(split, lam)
        with pytest.raises(SingularOperatorError):
            relative_residual_identity(split, split.ritz, lam)


def test_tie_reports_complete_the_subspace_once(monkeypatch, rng):
    # w_1 ties with lambda_q on the identity, and at q = 2 with the
    # complement keeping lambda_2 = w_1 = 2; W's values still come from the
    # split's S11, so neither report completes the Ritz vectors twice
    calls = []
    completion = defect.orthonormal_completion

    def counted(basis):
        calls.append(basis.shape)
        return completion(basis)

    monkeypatch.setattr(defect, "orthonormal_completion", counted)
    build_report(np.eye(4), Subspace(random_subspace(rng, 4, 2)))
    assert len(calls) == 1, calls
    h, s, lam = near_lowest_eigenvector()
    calls.clear()
    build_report(h, s, lambda_ref=lam, q=2)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("k", [0, 1, 6, 7, 12])
def test_exactness_correction_on_24_decade_grading_matches_mpmath(k):
    # five of the nine cases with tilt 1e-2..1e-4 and ratio - 1 above
    # 1e-5: there the float inputs (the Cholesky factor, the Ritz vectors)
    # move the ratio by about eps / eta, far below 1e-10; at tilt 1e-6
    # that floor is a few 1e-10, and below 1e-7 the rounding of 1 + x
    # dominates
    h, basis, _ = graded_24_decades(k)
    split = p_diagonal_split(h, Subspace(basis))
    lam = float(sym_eig(h)[0][0])
    exact = mp_oracle.exactness_correction(h, basis, lam, 50)
    assert exactness_ratio(split, lam) - 1.0 == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("k", range(len(GRADED_24)))
def test_complement_values_on_24_decade_grading_match_mpmath(k):
    # a report reads w_1..w_q as the split's w_values, up to SPREAD w_1 and
    # beyond, where eigvalsh's a-priori error n eps w_k/w_1 is far above
    # the error it attains on these cases
    h, basis, _ = graded_24_decades(k)
    w = p_diagonal_split(h, Subspace(basis)).w_values[:4]
    exact = mp_oracle.complement_values(h, basis, 60)[:4]
    assert np.max(np.abs(w - exact) / exact) <= 1e-11
