import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritzbounds import models
from ritzbounds.defect import etas_schur, p_diagonal_split
from ritzbounds.densela import cholesky_lower, gen_sym_eig
from ritzbounds.errors import HypothesisError
from ritzbounds.models import (
    ALPHA_MIN,
    DEFAULT_ALPHA,
    fem_assemble,
    fem_ritz,
    hkappa_matrix,
    hkappa_reference,
    kappa_row,
    periodic_exact,
    periodic_moment_matrix,
    schrodinger_bounds,
    schrodinger_drop,
    schrodinger_eta2,
    schrodinger_eta2_fd,
    schrodinger_lambda,
    schrodinger_taylor,
    table1_row,
)

import mp_oracle
from conftest import span_e1
from dense_oracles import pencil_eig

PI = math.pi


class TestKappaFamily:
    def test_matrix_entries(self):
        h1 = hkappa_matrix(1.0)
        assert h1.entries[2, 2] == pytest.approx(2.0)
        h10 = hkappa_matrix(10.0)
        assert h10.entries[2, 2] == pytest.approx(101.0)
        assert h10.entries[0, 2] == pytest.approx(-1 / 101)

    def test_matrix_positive_definite(self):
        for k in (0.1, 1.0, 30.0):
            cholesky_lower(hkappa_matrix(k))  # raises unless positive definite

    def test_residual_norm_is_kappa_independent(self):
        for k in (1.0, 10.0, 1000.0):
            h = hkappa_matrix(k).entries
            psi = np.array([1.0, 0.0, 0.0])
            r = h @ psi - (1 / 101) * psi
            assert np.linalg.norm(r) == pytest.approx(1 / 101, abs=1e-18)
            assert hkappa_reference(k).res_norm == 1 / 101

    def test_reference_eta_matches_computed_defect(self):
        # the closed form must agree with the full pipeline to rounding
        for k in (10.0, 100.0, 1000.0):
            split = p_diagonal_split(hkappa_matrix(k), span_e1())
            eta = etas_schur(split).eta_max
            assert eta == pytest.approx(hkappa_reference(k).eta, rel=1e-13)

    def test_reference_eta_large_coupling_scaling(self):
        # eta ~ (1/kappa) / sqrt(101) in the large-coupling limit
        k = 1e8
        assert hkappa_reference(k).eta * k == pytest.approx(1 / math.sqrt(101.0), rel=1e-10)

    def test_exactness_ratio_trend(self):
        # [(mu - lambda_1)/mu] / eta^2 marches to 1 at the model's rate,
        # |ratio - 1| = lambda_1/(1 + kappa^2 - lambda_1), about 0.0099/kappa^2
        gaps = [abs(kappa_row(k).ratio - 1.0) for k in (10.0, 1e3, 1e4)]
        for k, gap in zip((10.0, 1e3, 1e4), gaps):
            assert gap <= 1.0 / k**2, (k, gap)
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("kappa", [10.0, 1e3, 1e4, 1e7, 1e9, 1e50, 1e150])
    def test_kappa_row_matches_mpmath(self, kappa):
        row = kappa_row(kappa)
        truth = mp_oracle.kappa_family(kappa, 60)
        assert (row.kappa, row.res_norm) == (kappa, 1 / 101)
        for got, want in [(row.eta, truth.eta), (row.eta_computed, truth.eta),
                          (row.rel_error, truth.rel_error), (row.ratio, truth.ratio)]:
            assert abs(got - want) <= 1e-13 * want, (got, want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hkappa_matrix(-1.0)


class TestSchrodinger:
    def test_limit_towards_dirichlet_value(self):
        lam = schrodinger_lambda(1e6, 1)
        assert abs(lam - PI**2) / PI**2 < 3e-6
        assert lam < PI**2

    def test_bracket_for_small_coupling(self):
        lam = schrodinger_lambda(5.0, 1)
        assert PI**2 / 4 < lam < PI**2

    def test_second_mode(self):
        lam = schrodinger_lambda(100.0, 2)
        assert (1.5 * PI) ** 2 < lam < (2 * PI) ** 2

    def test_consistency_with_matching_equation(self):
        for k, q in ((7.0, 1), (25.0, 2), (1000.0, 1)):
            lam = schrodinger_lambda(k, q)
            s = math.sqrt(lam)
            lhs = math.sqrt(k**2 - lam)
            rhs = -s / math.tan(s)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_unresolvable_mode_rejected(self):
        with pytest.raises(HypothesisError):
            schrodinger_lambda(2.0, 1)
        with pytest.raises(HypothesisError):
            schrodinger_lambda(5.0, 2)

    def test_taylor_terms_exact_arithmetic(self):
        k = 5.0
        expected = (
            2 / k
            - 3 / k**2
            + (4.0 + PI**2 / 3.0) / k**3
            - (5.0 + 5.0 * PI**2 / 3.0) / k**4
        )
        assert schrodinger_taylor(k) == pytest.approx(expected, rel=1e-15)

    def test_taylor_leading_term_dominates(self):
        k = 1e4
        assert abs(schrodinger_taylor(k) - 2.0 / k) < 1e-7

    def test_eta2_values(self):
        assert schrodinger_eta2(5.0) == pytest.approx(0.25)
        assert schrodinger_eta2(1e9) < 3e-9

    def test_eta2_against_finite_difference_oracle(self):
        # quick variant of the oracle; the acceptance suite runs the full one
        fd = schrodinger_eta2_fd(100.0, length=8.0, nodes=4000)
        assert fd == pytest.approx(schrodinger_eta2(100.0), abs=1e-3)

    @pytest.mark.parametrize("nodes", [100, 20000])
    def test_inverse_quadratic_form_matches_solve_banded(self, nodes):
        # the finite-difference oracle's system: -u'' + V u on [0, 10]
        # with a step potential, against LAPACK's banded LU
        from scipy.linalg import solve_banded

        rng = np.random.default_rng(nodes)
        h = 10.0 / nodes
        x = h * np.arange(1, nodes)
        diag = 2.0 / h**2 + np.where(x >= 1.0, 1e4, 0.0)
        off = -1.0 / h**2
        rhs = rng.standard_normal(nodes - 1)
        banded = np.vstack([np.full(nodes - 1, off), diag, np.full(nodes - 1, off)])
        expected = float(rhs @ solve_banded((1, 1), banded, rhs))
        got = models._inverse_quadratic_form(diag, off, rhs)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("kappa, parent_error", [(5.0, 6.2e-14), (100.0, 1.0e-12), (1e4, 6.5e-10)])
    def test_eta2_fd_against_mpmath_discrete_form(self, kappa, parent_error, monkeypatch):
        # the oracle's own diagonal and sine vector, evaluated in 40
        # digits; each bound is the error a Thomas solve of T u = psi
        # (a forward and a backward sweep) reaches on the same form
        seen = {}
        sweep = models._inverse_quadratic_form

        def spy(diag, off, rhs):
            seen.update(diag=diag, off=off, rhs=rhs)
            return sweep(diag, off, rhs)

        monkeypatch.setattr(models, "_inverse_quadratic_form", spy)
        got = schrodinger_eta2_fd(kappa, length=10.0, nodes=2000)
        exact = mp_oracle.fd_eta2(seen["diag"], seen["off"], seen["rhs"], 10.0 / 2000, 40)
        assert abs(got - exact) / exact <= parent_error

    @pytest.mark.parametrize("kappa", [5.0, 1e3, 1e6, 1e9])
    def test_drop_matches_mpmath_root(self, kappa):
        exact = mp_oracle.schrodinger_drop(kappa, 60)
        assert abs(schrodinger_drop(kappa) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("kappa", [4e9, 1e12, 1e100])
    def test_large_coupling_resolves_and_meets_the_series(self, kappa):
        # the series' remainder, about 70/kappa^5, is below rounding here
        series = schrodinger_taylor(kappa)
        assert abs(schrodinger_drop(kappa) - series) <= 1e-13 * series
        assert schrodinger_lambda(kappa, 1) <= PI**2

    def test_sandwich_exact_arithmetic_at_five(self):
        lower, upper = schrodinger_bounds(5.0)
        assert lower == pytest.approx(0.25)
        assert upper == pytest.approx(0.75)

    def test_sandwich_asymptotic_prefactor(self):
        _, upper = schrodinger_bounds(1e6)
        assert upper * 1e6 == pytest.approx(10.0 / 3.0, rel=1e-2)

    def test_sandwich_needs_large_coupling(self):
        with pytest.raises(HypothesisError):
            schrodinger_bounds(4.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            schrodinger_lambda(-1.0)
        with pytest.raises(ValueError):
            schrodinger_lambda(100.0, 0)


class TestPeriodicExact:
    def test_nearly_singular_choice(self):
        lam1, f1 = periodic_exact(0.2499, 1)
        lam2, f2 = periodic_exact(0.2499, 2)
        lam3, _ = periodic_exact(0.2499, 3)
        assert lam1 == pytest.approx(1e-4, rel=1e-11)
        assert lam2 == pytest.approx(1e-4, rel=1e-11)
        assert lam3 == pytest.approx(2.0001, rel=1e-14)
        assert {f1, f2} == {-1, 0}

    def test_unshifted_half_integer_squares(self):
        values = [periodic_exact(0.0, k)[0] for k in range(1, 5)]
        assert_allclose(values, [0.25, 0.25, 2.25, 2.25], rtol=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            periodic_exact(0.26, 1)


class TestFemAssembly:
    def test_interior_stencils_without_shift(self):
        n = 12
        h = 2 * PI / n
        stiff, mass = fem_assemble(n, alpha=0.0)
        k = stiff.entries
        m = mass.entries
        assert k[5, 5] == pytest.approx(2 / h)
        assert k[5, 6] == pytest.approx(-1 / h)
        assert m[5, 5] == pytest.approx(2 * h / 3)
        assert m[5, 6] == pytest.approx(h / 6)

    def test_anti_periodic_wrap_flips_sign(self):
        n = 12
        h = 2 * PI / n
        stiff, mass = fem_assemble(n, alpha=0.0)
        assert stiff.entries[0, n - 1] == pytest.approx(+1 / h)
        assert mass.entries[0, n - 1] == pytest.approx(-h / 6)

    def test_shift_is_mass_proportional(self):
        n = 16
        s0, m0 = fem_assemble(n, alpha=0.0)
        s1, _ = fem_assemble(n, alpha=0.2499)
        assert_allclose(s1.entries, s0.entries - 0.2499 * m0.entries, atol=1e-14)

    def test_rejects_small_mesh(self):
        with pytest.raises(ValueError):
            fem_assemble(3)

    def test_discrete_values_bound_exact_from_above(self):
        stiff, mass = fem_assemble(40)
        values = gen_sym_eig(stiff, mass)
        lam1, _ = periodic_exact(0.2499, 1)
        assert values[0] > lam1
        assert values[1] > lam1

    @pytest.mark.parametrize("n", [40, 160])
    def test_pencil_matches_fourier_closed_form(self, n):
        # each anti-periodic frequency omega = k + 1/2 diagonalizes the
        # pencil, with a double eigenvalue
        # 6 (1 - cos omega h) / (h^2 (2 + cos omega h)) - alpha, written with
        # 2 sin^2(omega h / 2) and evaluated in mpmath against cancellation
        values = gen_sym_eig(*fem_assemble(n))
        exact = np.sort([mp_oracle.p1_mode(k + 0.5, n, DEFAULT_ALPHA, 40) for k in range(n // 2) for _ in range(2)])
        assert np.max(np.abs(values - exact) / exact) <= 1e-9

    @pytest.mark.parametrize("n", [16, 40, 160])
    def test_values_are_the_vector_oracles_bit_for_bit(self, n):
        pencil = fem_assemble(n)
        assert np.array_equal(gen_sym_eig(*pencil), pencil_eig(*pencil)[0])


class TestFemRitz:
    def test_double_mode_and_mass_orthonormality(self):
        rd = fem_ritz(40)
        assert rd.mu[0] == pytest.approx(rd.mu[1], rel=1e-10)
        _, mass = fem_assemble(40)
        gram = rd.vectors.T @ mass.entries @ rd.vectors
        assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_monotone_refinement(self):
        lam1, _ = periodic_exact(0.2499, 1)
        mu_coarse = fem_ritz(16).mu[0]
        mu_mid = fem_ritz(32).mu[0]
        mu_fine = fem_ritz(64).mu[0]
        assert mu_coarse > mu_mid > mu_fine > lam1

    @pytest.mark.parametrize("n", [16, 40, 160])
    def test_closed_form_pair_matches_dense_pencil(self, n):
        values, vectors = pencil_eig(*fem_assemble(n))
        _, mass = fem_assemble(n)
        rd = fem_ritz(n)
        assert_allclose(rd.mu, values[:2], rtol=1e-9)
        # the dense pair, projected onto the closed-form span in the mass
        # inner product, is left unchanged
        dense = vectors[:, :2]
        projected = rd.vectors @ (rd.vectors.T @ mass.entries @ dense)
        assert np.max(np.abs(projected - dense)) <= 1e-9 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [4, 8, 400, 10**4, 10**6])
    def test_value_against_mpmath(self, n):
        # mu sits O(h^2) above lambda_1 = 1e-4; the naive closed form
        # loses that distance to cancellation, the series does not
        exact = mp_oracle.p1_mode(0.5, n, DEFAULT_ALPHA, 40)
        assert fem_ritz(n).mu[0] == pytest.approx(exact, rel=4.5e-16)

    def test_no_assembly(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fem_ritz must not assemble the pencil")

        monkeypatch.setattr(models, "fem_assemble", refuse)
        rd = fem_ritz(10**6)
        assert rd.vectors.shape == (10**6, 2)

    def test_rejects_shift_at_or_above_quarter(self):
        for alpha in (0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                fem_ritz(40, alpha)


class TestHinvMoments:
    def test_galerkin_monotonicity_of_first_moment(self):
        psi, _ = periodic_moment_matrix(40)
        assert psi.entries[0, 0] >= 1.0 / fem_ritz(40).mu[0]

    @pytest.mark.parametrize("n", [16, 40, 160])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.0, -1.0])
    def test_residual_form_matches_difference(self, n, alpha):
        # Omega is summed in residual form; for the Ritz pair it equals
        # Psi - diag(1/mu), up to that subtraction's rounding of Psi
        psi, omega = periodic_moment_matrix(n, alpha)
        mu = fem_ritz(n, alpha).mu
        expected = psi.entries - np.diag(1.0 / mu)
        assert_allclose(omega.entries, expected, rtol=0, atol=4 * np.finfo(float).eps * psi.entries[0, 0])

    def test_moment_matrix_symmetric(self):
        for matrix in periodic_moment_matrix(24):
            assert np.array_equal(matrix.entries, matrix.entries.T)

    def test_rejects_shift_and_tiny_mesh(self):
        with pytest.raises(ValueError, match="alpha"):
            periodic_moment_matrix(40, 0.25)
        with pytest.raises(ValueError, match="mesh count"):
            periodic_moment_matrix(3)


class TestModelBoundInterplay:
    def test_periodic_gamma_s_uses_right_branch(self):
        # lowest cluster: the left branch degenerates to 1, so gamma_s is
        # the relative separation from the third exact eigenvalue
        from ritzbounds.bounds import gamma_s

        rd = fem_ritz(40)
        lam3, _ = periodic_exact(0.2499, 3)
        got = gamma_s(0.0, lam3, rd.mu[0], rd.mu[1])
        assert got == pytest.approx((lam3 - rd.mu[1]) / (lam3 + rd.mu[1]), rel=1e-14)
        assert lam3 == pytest.approx(1.5**2 - 0.2499, rel=1e-14)

    def test_schrodinger_first_order_interval_contains_eigenvalue(self):
        # (1 - eta) pi^2 <= lambda_1 <= (1 + eta) pi^2
        eta = math.sqrt(schrodinger_eta2(100.0))
        assert (1.0 - eta) * PI**2 <= schrodinger_lambda(100.0, 1) <= (1.0 + eta) * PI**2


class TestTableRow:
    def test_reference_row_coarse(self):
        # the N=40 row of the published mesh-refinement table
        lower, middle, upper = table1_row(40)
        assert lower == pytest.approx(7.9540e-1, abs=2e-4)
        assert middle == pytest.approx(7.9540e-1, abs=2e-4)
        assert upper == pytest.approx(7.9558e-1, rel=5e-3)
        assert lower <= middle <= upper

    def test_columns_shrink_under_refinement(self):
        coarse = table1_row(16)
        fine = table1_row(32)
        assert all(f < c for f, c in zip(fine, coarse))

    @pytest.mark.parametrize("n", [8, 40, 160, 400, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.2, 0.0, -1.0, -100.0])
    def test_matches_mpmath_oracle(self, n, alpha):
        expected = mp_oracle.table1_row(n, alpha, 40)
        lower, middle, upper = row = table1_row(n, alpha)
        assert_allclose(row, expected, rtol=1e-14, atol=0)
        # ordered; at N=1e6 the exact middle - lower margin, 6.6e-17
        # relative at the default shift, is below a double's rounding
        assert lower <= middle + 2 * math.ulp(middle) and middle <= upper
        if n <= 10**5:
            assert lower <= middle

    @pytest.mark.parametrize("n", [8, 40, 1000])
    @pytest.mark.parametrize("alpha", [ALPHA_MIN, ALPHA_MIN + 0.1, -1.0, DEFAULT_ALPHA])
    def test_matches_mpmath_down_to_the_shift_floor(self, n, alpha):
        # the alias sums cancel as alpha falls; at the floor every column
        # still holds 1e-12 (below it, N=8 misses by 1.5e-12 at -1e5)
        expected = mp_oracle.table1_row(n, alpha, 60)
        lower, middle, upper = row = table1_row(n, alpha)
        assert_allclose(row, expected, rtol=1e-12, atol=0)
        assert lower <= middle <= upper

    @pytest.mark.parametrize("alpha", [-1e5, -1e16, -1e17, -1.4e154, -1e200])
    def test_refuses_shift_below_the_floor(self, alpha):
        # unguarded, the moments miss by 1.5e-12 at -1e5 and lose every
        # digit by -1e16 (lower = upper = 0); from -1.4e154 mu**2 overflows
        with pytest.raises(ValueError, match=re.escape(f"alpha must be at least {ALPHA_MIN:g}")) as err:
            table1_row(8, alpha)
        assert err.type is ValueError

    @pytest.mark.parametrize("n", [40, 1000])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, -8190.123456789])
    def test_upper_column_takes_the_exact_gap(self, n, alpha):
        # upper = lower lambda_3 / (lambda_3 - lambda_1) and lambda_3 -
        # lambda_1 = 2; near -8190 the two eigenvalues round across a
        # binade and their difference misses 2 by 4.5e-13 relative
        lower, _, upper = table1_row(n, alpha)
        assert upper / lower == pytest.approx((2.25 - alpha) / 2, rel=8 * np.finfo(float).eps)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: schrodinger_eta2_fd(10.0, length=1.5), "truncated domain must extend past the potential step"),
        (lambda: schrodinger_eta2_fd(10.0, nodes=50), "need at least 100 grid nodes"),
        (
            lambda: schrodinger_eta2_fd(10.0, length=200.0, nodes=100),
            "the grid step length/nodes must be below 1 to place nodes in [0, 1]",
        ),
        (lambda: periodic_exact(DEFAULT_ALPHA, 0), "eigenvalue index must be >= 1, got 0"),
    ],
    ids=["fd-length", "fd-nodes", "fd-step", "periodic-index"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        call()
    assert err.type is ValueError
