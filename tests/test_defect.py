import re

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritzbounds import defect
from ritzbounds.defect import (
    DefectSpectrum,
    RitzData,
    dl_measure,
    etas_moments,
    etas_schur,
    moment_matrices,
    orthonormal_completion,
    p_diagonal_split,
    relative_residual_identity,
    measure,
    ritz,
    wilkinson_schur,
)
from ritzbounds.densela import as_symmetric, sym_eig
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds.errors import NotPositiveDefiniteError, SingularOperatorError

import mp_oracle
from conftest import haar_orthogonal, kappa_matrix, random_spd, random_subspace, span_e1


def rotated_double_eigenvalue_problem(rng, diag=(1.0, 1.0, 5.0), tilt=0.15):
    """diag(1,1,5) in a random orthogonal frame plus a tilted 2-dim subspace."""
    q = haar_orthogonal(rng, 3)
    h = (q * np.array(diag)) @ q.T
    h = 0.5 * (h + h.T)
    exact = q[:, :2]
    basis, _ = np.linalg.qr(exact + tilt * rng.standard_normal((3, 2)))
    return h, Subspace(basis)


class TestTestSubspace:
    def test_validates_orthonormality(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            Subspace(np.eye(3))  # m == n not allowed

    def test_from_columns_orthonormalizes_with_warning(self):
        cols = np.array([[1.0, 1.0], [1e-3, 1.0], [0.0, 0.5]])
        with pytest.warns(UserWarning):
            s = Subspace.from_columns(cols)
        assert_allclose(s.basis.T @ s.basis, np.eye(2), atol=1e-12)

    def test_rejects_non_finite_basis(self):
        basis = np.array([[1.0], [0.0], [np.nan], [0.0]])
        with pytest.raises(ValueError, match="basis entries must be finite"):
            Subspace(basis)

    def test_from_columns_rejects_rank_deficient(self):
        cols = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Subspace.from_columns(cols)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 3), (3, 0)])
    def test_from_columns_rejects_column_count_before_qr(self, shape, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the column count is checked before the QR")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        cols = np.ones(shape)
        with pytest.raises(ValueError, match="need 1 <= dim < ambient dim"):
            Subspace.from_columns(cols)


class TestRitz:
    def test_invariant_coordinate_subspace(self):
        rd = ritz(np.diag([1.0, 2.0, 3.0]), span_e1())
        assert_allclose(rd.mu, [1.0])
        assert_allclose(np.abs(rd.vectors), [[1.0], [0.0], [0.0]], atol=1e-14)

    def test_kappa_family_first_coordinate(self):
        rd = ritz(kappa_matrix(10.0), span_e1())
        assert rd.mu[0] == pytest.approx(1 / 101, abs=1e-18)

    def test_matches_projected_eigenproblem(self, rng):
        h = random_spd(rng, 8)
        s = Subspace(random_subspace(rng, 8, 3))
        rd = ritz(h, s)
        compressed = s.basis.T @ h @ s.basis
        mu_ref, _ = sym_eig(0.5 * (compressed + compressed.T))
        assert_allclose(rd.mu, mu_ref, rtol=1e-12)
        # vectors stay inside the subspace and are orthonormal
        proj = s.basis @ s.basis.T
        assert np.max(np.abs(rd.vectors - proj @ rd.vectors)) <= 1e-12
        assert_allclose(rd.vectors.T @ rd.vectors, np.eye(3), atol=1e-12)

    def test_rejects_indefinite_compression(self):
        h = np.diag([-1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefiniteError):
            ritz(h, span_e1())


class TestPDiagonalSplit:
    def test_invariant_subspace_gives_zero_coupling(self, rng):
        q = haar_orthogonal(rng, 5)
        h = (q * np.array([1.0, 2.0, 3.0, 4.0, 5.0])) @ q.T
        s = Subspace(q[:, :2])
        split = p_diagonal_split(0.5 * (h + h.T), s)
        assert np.max(np.abs(split.k_s)) <= 1e-12

    def test_w_values_are_every_eigenvalue_of_w(self, rng):
        # w_values is all of spec(W), the reciprocals of the descending
        # s11_values, with no bracket
        h = random_spd(rng, 10)
        split = p_diagonal_split(h, Subspace(random_subspace(rng, 10, 2)))
        assert len(split.w_values) == 10 - 2
        assert np.array_equal(split.w_values, 1.0 / split.s11_values)
        assert np.all(np.diff(split.w_values) > 0)
        assert split.w_values[-1] > defect.SPREAD * split.w_values[0]

    def test_kappa_family_closed_form(self):
        for k in (10.0, 100.0, 1000.0):
            split = p_diagonal_split(kappa_matrix(k), span_e1())
            s = np.linalg.norm(split.k_s)
            assert s == pytest.approx(mp_oracle.kappa_family(k, 60).eta, rel=1e-13)

    def test_completion_of_large_columns(self, rng):
        # Householder QR keeps B^T C at about eps ||B||, so large columns
        # must not be read as a failed completion
        b = random_subspace(rng, 6, 2)
        c = orthonormal_completion(1e8 * b)
        assert c.shape == (6, 4)
        assert_allclose(c.T @ c, np.eye(4), atol=1e-14)
        assert np.abs(b.T @ c).max() <= 1e-14

    def test_matches_dense_complement_eigendecomposition(self, rng):
        # the split never forms W = V^T H V; here it is formed and
        # diagonalized densely
        h = random_spd(rng, 10)
        s = Subspace(random_subspace(rng, 10, 2))
        split = p_diagonal_split(h, s)
        u = split.ritz.vectors
        v = orthonormal_completion(u)
        coupling = v.T @ h @ u
        w_values, w_vectors = np.linalg.eigh(v.T @ h @ v)
        # every w_j, within the a-priori n eps w_j/w_1 of the split's route
        # plus the dense reference's own eps ||W||/w_j, and those up to
        # SPREAD w_1 to 1e-12
        eps = np.finfo(float).eps
        bound = len(h) * eps * w_values / w_values[0] + eps * w_values[-1] / w_values
        assert len(split.w_values) == len(w_values)
        assert np.all(np.abs(split.w_values - w_values) <= bound * w_values)
        near = w_values <= defect.SPREAD * w_values[0]
        assert 2 <= np.count_nonzero(near) < len(w_values)
        assert_allclose(split.w_values[near], w_values[near], rtol=1e-12)
        # the residual block's complement part is the coupling block, and
        # its part along the Ritz vectors vanishes
        r = split.residual
        assert np.linalg.norm(v.T @ r) == pytest.approx(np.linalg.norm(coupling), rel=1e-12)
        assert_allclose(v.T @ r, coupling, atol=1e-12 * np.linalg.norm(h, 2))
        assert np.max(np.abs(u.T @ r)) <= 1e-13 * np.linalg.norm(h, 2)
        # K_s = W^{-1/2} C Xi^{-1/2} along W's eigenvectors; the split's k_s
        # is K_s in another orthonormal basis, with the same singular values
        k_s = (w_vectors / np.sqrt(w_values)).T @ coupling / np.sqrt(split.mu)
        assert_allclose(
            np.linalg.svd(split.k_s, compute_uv=False), np.linalg.svd(k_s, compute_uv=False), rtol=1e-12
        )
        # below W's spectrum, as in a report, and inside it
        for lam in (split.mu[0], 0.5 * (w_values[3] + w_values[4])):
            resolvent = k_s.T @ (k_s / (1.0 - lam / w_values)[:, None])
            term = defect._resolvent_term(split, lam)
            assert_allclose(term, resolvent - k_s.T @ k_s, rtol=1e-10, atol=1e-12 * np.abs(resolvent).max())
            rhs = relative_residual_identity(split, split.ritz, lam)[1].entries
            assert_allclose(rhs, resolvent, rtol=1e-10, atol=1e-12 * np.abs(resolvent).max())


class TestEtasSchur:
    def test_zero_coupling(self, rng):
        q = haar_orthogonal(rng, 4)
        h = (q * np.array([1.0, 2.0, 3.0, 4.0])) @ q.T
        split = p_diagonal_split(0.5 * (h + h.T), Subspace(q[:, :2]))
        ds = etas_schur(split)
        assert_allclose(ds.etas, np.zeros(2), atol=1e-12)
        assert ds.route == "schur_block"

    def test_kappa_family_value(self):
        split = p_diagonal_split(kappa_matrix(10.0), span_e1())
        ds = etas_schur(split)
        assert ds.etas[0] == pytest.approx(mp_oracle.kappa_family(10.0, 60).eta, rel=1e-13)

    def test_pads_with_zeros_when_rank_deficient(self, rng):
        # m = 3 but the coupling has rank <= 2 because H has a 1-dim
        # perturbation off the invariant part
        q = haar_orthogonal(rng, 6)
        lam = np.array([1.0, 1.1, 1.2, 4.0, 5.0, 6.0])
        h = (q * lam) @ q.T
        basis = np.linalg.qr(
            np.hstack([q[:, :2], q[:, 2:3] + 0.2 * q[:, 3:4]])
        )[0]
        split = p_diagonal_split(0.5 * (h + h.T), Subspace(basis))
        ds = etas_schur(split)
        assert ds.m == 3
        assert ds.etas[0] <= 1e-10


class TestMomentRoute:
    def test_invariant_subspace_moments(self, rng):
        q = haar_orthogonal(rng, 5)
        lam = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        h = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
        rd = ritz(h, Subspace(q[:, :2]))
        psi, omega = moment_matrices(h, rd)
        assert_allclose(psi.entries, np.diag(1.0 / rd.mu), atol=1e-12)
        assert np.max(np.abs(omega.entries)) <= 1e-12

    def test_scalar_moment_identity(self, rng):
        h = random_spd(rng, 6)
        s = Subspace(random_subspace(rng, 6, 1))
        rd = ritz(h, s)
        psi, omega = moment_matrices(h, rd)
        u = rd.vectors[:, 0]
        expected = u @ np.linalg.solve(h, u) - 1.0 / rd.mu[0]
        assert omega.entries[0, 0] == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_omega_equals_galerkin_error_gram(self, rng):
        # independent oracle: the quadruple-product energy inner products of
        # the Galerkin errors H^{-1} u_i - u_i / mu_i
        h = random_spd(rng, 9)
        s = Subspace(random_subspace(rng, 9, 3))
        rd = ritz(h, s)
        psi, omega = moment_matrices(h, rd)
        hinv_u = np.linalg.solve(h, rd.vectors)
        err = hinv_u - rd.vectors / rd.mu[None, :]
        gram = err.T @ h @ err
        assert_allclose(omega.entries, gram, atol=1e-12 * np.linalg.norm(h, 2))

    def test_etas_moments_trivial_cases(self, rng):
        psi = as_symmetric(random_spd(rng, 3))
        ds = etas_moments(psi, np.zeros((3, 3)))
        assert_allclose(ds.etas, np.zeros(3), atol=1e-9)
        ds = etas_moments(psi, psi.entries / 4.0)
        assert_allclose(ds.etas, np.full(3, 0.5), rtol=1e-10)
        assert ds.route == "moments"

    def test_rejects_indefinite_psi(self):
        with pytest.raises(NotPositiveDefiniteError):
            etas_moments(np.diag([1.0, -1.0]), np.zeros((2, 2)))

    def test_route_equivalence_kappa(self):
        h = kappa_matrix(10.0)
        s = span_e1()
        ds_schur = etas_schur(p_diagonal_split(h, s))
        rd = ritz(h, s)
        ds_mom = etas_moments(*moment_matrices(h, rd))
        assert_allclose(ds_schur.etas, ds_mom.etas, rtol=1e-12)


class TestDlMeasure:
    def test_zero_deviation(self):
        mu = np.array([2.0, 5.0])
        assert dl_measure(np.diag(1.0 / mu), mu) == 0.0

    def test_scalar_specialization(self, rng):
        h = random_spd(rng, 5)
        s = Subspace(random_subspace(rng, 5, 1))
        rd = ritz(h, s)
        psi, _ = moment_matrices(h, rd)
        expected = abs(rd.mu[0] * psi.entries[0, 0] - 1.0)
        assert dl_measure(psi, rd.mu) == pytest.approx(expected, rel=1e-12)

    def test_psd_order_sandwich(self, rng):
        # D_mu <= Psi <= (1 + dl) D_mu in the positive-semidefinite order
        h = random_spd(rng, 8)
        s = Subspace(random_subspace(rng, 8, 3))
        rd = ritz(h, s)
        psi, _ = moment_matrices(h, rd)
        dl = dl_measure(psi, rd.mu)
        d_mu = np.diag(1.0 / rd.mu)
        lower_vals = np.linalg.eigvalsh(psi.entries - d_mu)
        upper_vals = np.linalg.eigvalsh((1.0 + dl) * d_mu - psi.entries)
        assert lower_vals.min() >= -1e-12
        assert upper_vals.min() >= -1e-12


class TestWilkinsonSchur:
    def test_zero_coupling_returns_a(self, rng):
        a = random_spd(rng, 3)
        b = random_spd(rng, 4)
        s = wilkinson_schur(a, np.zeros((3, 4)), b)
        assert_allclose(s.entries, as_symmetric(a).entries, atol=1e-14)

    def test_scalar_arithmetic(self):
        s = wilkinson_schur(np.array([[2.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert s.entries[0, 0] == pytest.approx(1.5)

    def test_zero_complement_for_constructed_null_space(self, rng):
        # assemble M with a null space of dimension m directly from a
        # spectral factorization and verify the complement vanishes
        n, m = 9, 3
        q = haar_orthogonal(rng, n)
        d = np.concatenate([np.zeros(m), rng.uniform(0.5, 3.0, n - m) * rng.choice([-1, 1], n - m)])
        mat = (q * d) @ q.T
        mat = 0.5 * (mat + mat.T)
        a = mat[:m, :m]
        x = mat[:m, m:]
        b = mat[m:, m:]
        s = wilkinson_schur(a, x, b)
        norm_m = np.linalg.norm(mat, 2)
        assert np.linalg.norm(s.entries) <= 1e-10 * norm_m

    def test_singular_b_rejected(self):
        b = np.diag([1.0, 0.0])
        with pytest.raises(SingularOperatorError) as err:
            wilkinson_schur(np.eye(2), np.zeros((2, 2)), b)
        assert err.value.smallest_magnitude == pytest.approx(0.0, abs=1e-300)


class TestRelativeResidualIdentity:
    def test_invariant_subspace(self, rng):
        q = haar_orthogonal(rng, 4)
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        h = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
        s = Subspace(q[:, :1])
        split = p_diagonal_split(h, s)
        rd = ritz(h, s)
        lhs, rhs, d = relative_residual_identity(split, rd, rd.mu[0])
        assert np.max(np.abs(lhs.entries)) <= 1e-12
        assert np.max(np.abs(rhs.entries)) <= 1e-12
        assert d <= 1e-12

    def test_exact_double_eigenvalue(self, rng):
        h, s = rotated_double_eigenvalue_problem(rng)
        split = p_diagonal_split(h, s)
        rd = ritz(h, s)
        _, _, d = relative_residual_identity(split, rd, 1.0)
        assert d <= 1e-10

    def test_kappa_family_lowest_eigenvalue(self):
        h = kappa_matrix(10.0)
        lam1 = sym_eig(h)[0][0]
        split = p_diagonal_split(h, span_e1())
        rd = ritz(h, span_e1())
        _, _, d = relative_residual_identity(split, rd, lam1)
        assert d <= 1e-10

    def test_collision_with_complement_spectrum(self, rng):
        h, s = rotated_double_eigenvalue_problem(rng)
        split = p_diagonal_split(h, s)
        rd = ritz(h, s)
        with pytest.raises(SingularOperatorError):
            relative_residual_identity(split, rd, split.w_values[0])


class TestDefectInvariants:
    def test_route_equivalence_random(self, rng):
        # n > 2m keeps the coupling block full rank; with structural zero
        # defects the moment route can only resolve zero to sqrt(eps)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(2 * m + 2, 27))
            h = random_spd(rng, n)
            s = Subspace(random_subspace(rng, n, m))
            ds1 = etas_schur(p_diagonal_split(h, s))
            rd = ritz(h, s)
            ds2 = etas_moments(*moment_matrices(h, rd))
            assert np.max(np.abs(ds1.etas - ds2.etas)) <= 1e-9

    def test_scaling_robustness(self, rng):
        h = random_spd(rng, 10)
        s = Subspace(random_subspace(rng, 10, 3))
        base = etas_schur(p_diagonal_split(h, s)).etas
        for c in (1e-8, 1e-3, 1.0, 1e5, 1e8):
            scaled = etas_schur(p_diagonal_split(c * h, s)).etas
            assert np.max(np.abs(scaled - base)) <= 1e-12 * max(base.max(), 1e-30)

    def test_wilkinson_zero_complement_sweep(self, rng):
        for _ in range(12):
            n = int(rng.integers(5, 20))
            m = int(rng.integers(1, 5))
            q = haar_orthogonal(rng, n)
            d = np.concatenate(
                [np.zeros(m), rng.uniform(0.3, 5.0, n - m) * rng.choice([-1, 1], n - m)]
            )
            mat = (q * d) @ q.T
            mat = 0.5 * (mat + mat.T)
            s = wilkinson_schur(mat[:m, :m], mat[:m, m:], mat[m:, m:])
            assert np.linalg.norm(s.entries) <= 1e-10 * np.linalg.norm(mat, 2)


# the seed derandomize drew from the test's source when it was written,
# int_from_bytes(function_digest(test)): the examples stay the same
# across edits
@hypothesis.seed(36271557236429654172459908062864976144972623559633804056062278230165840358907639573067624439608712603170188808339678)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=14),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_defect_routes_agree_property(n, m, seed):
    m = min(m, (n - 1) // 2)
    if m < 1:
        return
    rng = np.random.default_rng(seed)
    h = random_spd(rng, n)
    s = Subspace(random_subspace(rng, n, m))
    ds1 = etas_schur(p_diagonal_split(h, s))
    ds2 = etas_moments(*moment_matrices(h, ritz(h, s)))
    assert np.max(np.abs(ds1.etas - ds2.etas)) <= 1e-9


def test_defect_spectrum_validation():
    with pytest.raises(ValueError):
        DefectSpectrum(np.array([0.5, 0.2]), route="schur_block")
    with pytest.raises(ValueError):
        DefectSpectrum(np.array([0.5, 1.0]), route="schur_block")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ritz(np.eye(4), span_e1(3)), "operator and subspace dimensions differ"),
        (lambda: wilkinson_schur(np.eye(2), np.zeros((2, 2)), np.eye(1)), "coupling block must be 2 x 1, got (2, 2)"),
        (lambda: dl_measure(np.eye(2), [1.0, 0.0]), "Ritz values must be positive"),
        (
            lambda: etas_moments(np.eye(2), -np.eye(2)),
            "moment pencil produced eigenvalue -1.000e+00 far below zero; inputs are inconsistent",
        ),
        (lambda: DefectSpectrum(np.zeros((2, 2)), route="schur_block"), "etas must be a 1-d array"),
    ],
    ids=["ritz-ambient", "wilkinson-coupling", "dl-mu", "moments-below-zero", "defects-2d"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        call()
    assert err.type is ValueError


def test_records_are_read_only(rng):
    # a write through any array of a split or a record raises; an array a
    # caller passes in stays writable, and the record holds a read-only view
    h = random_spd(rng, 9)
    s = Subspace(random_subspace(rng, 9, 2))
    split = p_diagonal_split(h, s)
    record = measure(h, s, None, 1)
    fields = {
        "RitzData.mu": split.ritz.mu,
        "RitzData.vectors": split.ritz.vectors,
        "SplitOperator.k_s": split.k_s,
        "SplitOperator.residual": split.residual,
        "SplitOperator.s11_values": split.s11_values,
        "SplitOperator.inv_gram": split.inv_gram,
        "SplitOperator.h_factor[0]": split.h_factor[0],
        "SplitOperator.h_factor[1]": split.h_factor[1],
        "Measurements.mu": record.mu,
        "Measurements.ratios": record.ratios,
        "Measurements.lambda_ref": record.lambda_ref,
        "Measurements.w_values": record.w_values,
    }
    for name, a in fields.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
    mu, vectors = np.array([1.0, 2.0]), np.eye(3)[:, :2]
    rd = RitzData(mu=mu, vectors=vectors)
    mu[0] = vectors[0, 0] = 0.5
    assert rd.mu[0] == rd.vectors[0, 0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        rd.mu[0] = 1.0
