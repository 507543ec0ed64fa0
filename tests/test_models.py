import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritzbounds import models
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds.defect import RitzData, etas_schur, p_diagonal_split
from ritzbounds.densela import cholesky_lower, gen_sym_eig, sym_eig
from ritzbounds.errors import HypothesisError
from ritzbounds.models import (
    DEFAULT_ALPHA,
    DEFAULT_K_TRUNC,
    fem_assemble,
    fem_ritz,
    hkappa_matrix,
    hkappa_reference,
    periodic_exact,
    periodic_moment_matrix,
    schrodinger_bounds,
    schrodinger_eta2,
    schrodinger_eta2_fd,
    schrodinger_lambda,
    schrodinger_taylor,
    table1_row,
)

PI = math.pi


def span_e1(n=3):
    basis = np.zeros((n, 1))
    basis[0, 0] = 1.0
    return Subspace(basis)


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
        # [(mu - lambda_1)/mu] / eta^2 marches to 1; past kappa ~ 1e3 the
        # measured gap sits at the double-rounding floor of mu - lambda_1,
        # so monotonicity is only asserted up to there
        gaps = []
        for k in (10.0, 1000.0, 10000.0):
            h = hkappa_matrix(k)
            lam1 = sym_eig(h)[0][0]
            mu = 1 / 101
            ratio = ((mu - lam1) / mu) / hkappa_reference(k).eta ** 2
            gaps.append(abs(ratio - 1.0))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 5e-2
        assert gaps[2] < 5e-3

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
    def test_tridiagonal_solve_matches_solve_banded(self, nodes):
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
        expected = solve_banded((1, 1), banded, rhs)
        got = models._solve_tridiagonal(diag, off, rhs)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

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
        values, _ = gen_sym_eig(stiff, mass)
        lam1, _ = periodic_exact(0.2499, 1)
        assert values[0] > lam1
        assert values[1] > lam1

    @pytest.mark.parametrize("n", [40, 160])
    def test_pencil_matches_fourier_closed_form(self, n):
        # each anti-periodic frequency omega = k + 1/2 diagonalizes the
        # pencil, with a double eigenvalue
        # 6 (1 - cos omega h) / (h^2 (2 + cos omega h)) - alpha, written with
        # 2 sin^2(omega h / 2) and evaluated in mpmath against cancellation
        values, _ = gen_sym_eig(*fem_assemble(n))
        with mpmath.workdps(40):
            h = 2 * mpmath.pi / n
            exact = []
            for k in range(n // 2):
                wh = (k + mpmath.mpf(0.5)) * h
                mode = 12 * mpmath.sin(wh / 2) ** 2 / (h**2 * (2 + mpmath.cos(wh)))
                exact += 2 * [float(mode - mpmath.mpf(DEFAULT_ALPHA))]
        exact = np.sort(exact)
        assert np.max(np.abs(values - exact) / exact) <= 1e-9


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
        values, vectors = gen_sym_eig(*fem_assemble(n))
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
        with mpmath.workdps(40):
            h = 2 * mpmath.pi / n
            w = mpmath.mpf(0.5)
            exact = 12 * mpmath.sin(w * h / 2) ** 2 / (h**2 * (2 + mpmath.cos(w * h)))
            exact = float(exact - mpmath.mpf(DEFAULT_ALPHA))
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
    def test_parseval_against_mass_matrix(self, rng):
        # the same expansion with unit weights must reproduce the L2 inner
        # product, which the consistent mass matrix gives exactly
        n = 12
        v = rng.standard_normal((n, 2))
        gram = models._alias_gram(v, 3000, np.ones_like)
        _, mass = fem_assemble(n, 0.0)
        reference = v.T @ mass.entries @ v
        assert np.max(np.abs(gram - reference)) <= 1e-8 * np.max(np.abs(reference))

    def test_alias_gram_matches_phase_sum(self, rng):
        # O(N k_trunc) reference: every frequency's coefficient from the
        # full node-phase matrix, no alias classes and no FFT
        n, alpha, k_trunc = 12, DEFAULT_ALPHA, 300
        v = rng.standard_normal((n, 2))
        h = 2 * PI / n
        omega = np.arange(-k_trunc, k_trunc + 1) + 0.5
        shape = 4 * np.sin(omega * h / 2) ** 2 / (omega**2 * h)
        coeffs = np.exp(1j * np.outer(omega, h * np.arange(n))) @ v * shape[:, None]
        reference = (coeffs.conj().T @ (coeffs / (omega**2 - alpha)[:, None])).real / (2 * PI)
        psi = periodic_moment_matrix(RitzData(mu=np.ones(2), vectors=v), alpha, k_trunc)
        assert_allclose(psi.entries, reference, rtol=1e-13, atol=1e-13 * np.max(np.abs(reference)))

    def test_eigenmode_action(self):
        # the P1 interpolant of cos(omega x) excites only the aliases
        # +-omega + jN of its mode, each with node sum N/2, so the inverse
        # moment weights exactly those frequencies by 1/lambda
        n, alpha, k_trunc, mode = 10, DEFAULT_ALPHA, 500, 3.5
        h = 2 * PI / n
        c = np.cos(mode * h * np.arange(n))
        rd = RitzData(mu=np.ones(1), vectors=c[:, None])
        got = periodic_moment_matrix(rd, alpha, k_trunc).entries[0, 0]
        expected = 0.0
        for k in range(-k_trunc, k_trunc + 1):
            w = k + 0.5
            if (w - mode) % n == 0 or (w + mode) % n == 0:
                shape = 4 * math.sin(w * h / 2) ** 2 / (w**2 * h)
                expected += (n / 2) ** 2 * shape**2 / (w**2 - alpha) / (2 * PI)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_galerkin_monotonicity_of_first_moment(self):
        rd = fem_ritz(40)
        psi = periodic_moment_matrix(rd).entries
        assert psi[0, 0] >= 1.0 / rd.mu[0]

    def test_doubling_k_trunc_stays_within_tail_bound(self):
        rd = fem_ritz(16)
        coarse = periodic_moment_matrix(rd, k_trunc=200).entries
        fine = periodic_moment_matrix(rd, k_trunc=400).entries
        for i in range(2):
            assert fine[i, i] >= coarse[i, i]
            for j in range(2):
                tail = models._moment_tail_bound(rd.vectors[:, i], rd.vectors[:, j], 16, 200)
                assert abs(fine[i, j] - coarse[i, j]) <= tail

    @pytest.mark.parametrize("n", [4, 5, 8])
    @pytest.mark.parametrize("k_trunc", [1, 2, 5])
    def test_tail_bound_covers_dropped_part(self, n, k_trunc):
        # a single hat, and on odd meshes the alternating vector, put the
        # largest possible coefficient on the first discarded frequencies
        for c in (np.eye(n)[0], (-1.0) ** np.arange(n)):
            rd = RitzData(mu=np.ones(1), vectors=c[:, None])
            kept = periodic_moment_matrix(rd, k_trunc=k_trunc).entries[0, 0]
            full = periodic_moment_matrix(rd, k_trunc=20000).entries[0, 0]
            full += models._moment_tail_bound(c, c, n, 20000)
            assert full - kept <= models._moment_tail_bound(c, c, n, k_trunc)

    def test_tail_bound_needs_k_trunc_at_least_one(self):
        c = fem_ritz(16).vectors[:, 0]
        with pytest.raises(ValueError, match="k_trunc"):
            models._moment_tail_bound(c, c, 16, 0)

    def test_moment_matrix_symmetric(self):
        rd = fem_ritz(24)
        psi = periodic_moment_matrix(rd, k_trunc=2000)
        assert np.array_equal(psi.entries, psi.entries.T)


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
        from ritzbounds.bounds import first_order_bounds

        eta = math.sqrt(schrodinger_eta2(100.0))
        lo, hi = first_order_bounds(PI**2, eta)
        assert lo <= schrodinger_lambda(100.0, 1) <= hi


class TestTableRow:
    def test_reference_row_coarse(self):
        # the N=40 row of the published mesh-refinement table
        lower, middle, upper = table1_row(40)
        assert lower == pytest.approx(7.9540e-1, abs=2e-4)
        assert middle == pytest.approx(7.9540e-1, abs=2e-4)
        assert upper == pytest.approx(7.9558e-1, rel=5e-3)
        assert lower <= middle <= upper

    def test_columns_shrink_under_refinement(self):
        coarse = table1_row(16, k_trunc=4000)
        fine = table1_row(32, k_trunc=4000)
        assert all(f < c for f, c in zip(fine, coarse))

    @pytest.mark.parametrize("n, rtol", [(40, 1e-13), (160, 1e-13), (400, 1e-13), (10**4, 1e-10)])
    def test_matches_mpmath_oracle(self, n, rtol):
        # the cos/sin pair only sees the aliases 1/2 + jN, with weights
        # shape^2 proportional to (sin^2(h/4) / ((1/2 + jN) h/2)^2)^2, so
        # Psi = (sum weight / lambda) / (sum weight) times I; the upper
        # column adds the tail tau that the row carries
        rd = fem_ritz(n)
        tau = sum(models._moment_tail_bound(c, c, n, DEFAULT_K_TRUNC) for c in rd.vectors.T)
        with mpmath.workdps(40):
            a = mpmath.mpf(DEFAULT_ALPHA)
            h = 2 * mpmath.pi / n
            w = mpmath.mpf(0.5)
            mu = 12 * mpmath.sin(w * h / 2) ** 2 / (h**2 * (2 + mpmath.cos(w * h))) - a
            lam1, lam3 = w**2 - a, (w + 1) ** 2 - a

            def weight(j):
                return (mpmath.sin(w * h / 2) ** 2 / ((w + j * n) * h / 2) ** 2) ** 2

            psi = mpmath.nsum(lambda j: weight(j) / ((w + j * n) ** 2 - a), [-mpmath.inf, mpmath.inf])
            psi /= mpmath.nsum(weight, [-mpmath.inf, mpmath.inf])
            root2 = mpmath.sqrt(2)
            expected = [
                root2 * (1 - 1 / (mu * psi)),
                root2 * (1 - lam1 / mu),
                root2 * (1 - 1 / (mu * (psi + tau))) * lam3 / (lam3 - lam1),
            ]
            expected = [float(e) for e in expected]
        assert_allclose(table1_row(n), expected, rtol=rtol, atol=0)

    @pytest.mark.parametrize("n", [40, 160, 10**4])
    def test_tail_keeps_columns_ordered(self, n):
        # truncation can only lower the defects; the carried tail keeps the
        # upper column above the truth and lets it fall as k_trunc grows
        uppers = []
        for k_trunc in (1, 3, 50, 20000):
            lower, middle, upper = table1_row(n, k_trunc=k_trunc)
            assert lower <= middle <= upper
            uppers.append(upper)
        assert uppers == sorted(uppers, reverse=True)

    def test_rejects_k_trunc_below_one(self):
        with pytest.raises(ValueError, match="k_trunc"):
            table1_row(40, k_trunc=0)
