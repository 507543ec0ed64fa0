import io
import re

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritzbounds.densela import (
    NormKind,
    _inv_upper,
    _solve_upper,
    SymmetricMatrix,
    as_symmetric,
    cholesky_lower,
    gen_sym_eig,
    inv_sqrt,
    read_matrix_text,
    singular_values,
    solve_lower_t,
    sorted_cholesky,
    sym_eig,
    sym_eigvals,
    ui_norm,
    values_norm,
    write_matrix_text,
)
from ritzbounds.errors import (
    ConvergenceError,
    MatrixParseError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

import mp_oracle
from conftest import haar_orthogonal, kappa_matrix, random_spd


class TestSymmetricMatrix:
    def test_symmetrizes_by_averaging(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
        m = SymmetricMatrix(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            SymmetricMatrix(np.array([[1.0, 2.0], [0.5, 3.0]]))

    def test_entries_read_only(self):
        m = as_symmetric(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_empty_matrix_allowed(self):
        assert as_symmetric(np.empty((0, 0))).n == 0

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SymmetricMatrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_stores_the_bits_of_the_average(self, rng):
        # admission halves and adds in place; the stored bytes are those of
        # 0.5 A + 0.5 A^T, also where halving a subnormal rounds
        for draw in range(300):
            n = int(rng.integers(1, 13))
            kind = draw % 4
            if kind == 0:  # random
                a = rng.standard_normal((n, n))
            elif kind == 1:  # graded over +-300 decades, both signs
                a = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-300, 300, (n, n))
            elif kind == 2:  # negative
                a = -(rng.random((n, n)) + 1e-3)
            else:  # subnormal: odd and even multiples of the least subnormal
                a = rng.integers(-(2**40), 2**40, (n, n)) * 5e-324
            a = np.triu(a) + np.triu(a, 1).T
            if kind == 3:
                a += rng.integers(-2, 3, (n, n)) * 5e-324
            else:
                a *= 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, (n, n))
            expected = 0.5 * a + 0.5 * a.T
            assert SymmetricMatrix(a).entries.tobytes() == expected.tobytes(), (draw, a)


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert_allclose(w, np.ones(3))
        assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, v = sym_eig(np.diag([2.0, 0.5]))
        assert_allclose(w, [0.5, 2.0])
        assert_allclose(np.abs(v), np.eye(2)[:, ::-1], atol=1e-14)

    def test_kappa_matrix_against_cubic_roots(self):
        # independent oracle: roots of the characteristic polynomial, with
        # the lambda^1 coefficient from the principal 2x2 minors (the
        # trace-based formula cancels catastrophically here)
        h = kappa_matrix(10.0)
        c2 = -np.trace(h)
        c1 = (
            h[0, 0] * h[1, 1]
            - h[0, 1] ** 2
            + h[0, 0] * h[2, 2]
            - h[0, 2] ** 2
            + h[1, 1] * h[2, 2]
            - h[1, 2] ** 2
        )
        c0 = -np.linalg.det(h)
        p = np.poly1d([1.0, c2, c1, c0])
        roots = np.sort(np.roots(p).real)
        for _ in range(2):
            roots -= p(roots) / p.deriv()(roots)
        w, _ = sym_eig(h)
        assert_allclose(w, roots, rtol=1e-12, atol=1e-15)

    def test_residual_and_orthonormality(self, rng):
        a = random_spd(rng, 25)
        w, v = sym_eig(a)
        norm_a = np.linalg.norm(a, 2)
        assert np.max(np.abs(a @ v - v * w)) <= 1e-10 * norm_a
        assert np.max(np.abs(v.T @ v - np.eye(25))) <= 1e-12

    def test_empty_decomposition(self):
        w, v = sym_eig(np.empty((0, 0)))
        assert w.shape == (0,)
        assert v.shape == (0, 0)

    def test_lapack_failure_surfaces_as_convergence_error(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        for a in (random_spd(rng, 6), np.diag([1.0, -1.0])):
            with pytest.raises(ConvergenceError, match="did not converge"):
                sym_eig(a)
        with pytest.raises(ConvergenceError):
            singular_values(rng.standard_normal((4, 3)))

    def test_deterministic(self, rng):
        a = random_spd(rng, 12)
        w1, v1 = sym_eig(a)
        w2, v2 = sym_eig(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestGenSymEig:
    def test_equal_pencil_gives_ones(self, rng):
        a = random_spd(rng, 5)
        w, v = gen_sym_eig(a, a)
        assert_allclose(w, np.ones(5), rtol=1e-11)
        assert_allclose(v.T @ a @ v, np.eye(5), atol=1e-10)

    def test_simultaneous_diagonal(self):
        w, _ = gen_sym_eig(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        assert_allclose(w, [1.0, 2.0], rtol=1e-14)

    def test_against_inverse_sqrt_reduction(self, rng):
        a = random_spd(rng, 5)
        b = random_spd(rng, 5)
        w, v = gen_sym_eig(a, b)
        r = inv_sqrt(b).entries
        w_ref, _ = sym_eig(r @ a @ r)
        assert_allclose(w, w_ref, rtol=1e-10, atol=1e-12)
        assert_allclose(v.T @ b @ v, np.eye(5), atol=1e-9)

    def test_sorted_cholesky_factors_the_sorted_matrix(self, rng):
        scale = np.logspace(0, 5, 6)
        a = scale[:, None] * random_spd(rng, 6) * scale[None, :]
        perm, ell = sorted_cholesky(a)
        assert np.all(np.diff(np.diag(a)[perm]) <= 0)
        assert np.array_equal(np.tril(ell), ell)
        assert_allclose(ell @ ell.T, a[np.ix_(perm, perm)], rtol=1e-12, atol=1e-12 * np.abs(a).max())

    def test_sorted_cholesky_names_the_row_of_the_input(self):
        # sorted, the failing pivot is the last one; in the input it is row 1
        with pytest.raises(NotPositiveDefiniteError, match="pivot 1 is") as err:
            sorted_cholesky(np.diag([3.0, -1.0, 2.0]), what="operator")
        assert err.value.pivot_index == 1
        assert str(err.value).startswith("operator is not positive definite")

    def test_not_pd_names_pivot(self):
        b = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            gen_sym_eig(np.eye(3), b)
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cholesky_lower_is_lapacks_factor(self, seed):
        rng = np.random.default_rng(seed)
        for a in (random_spd(rng, 40), graded_spd(rng, grading(rng, 30))):
            assert np.array_equal(cholesky_lower(a), np.linalg.cholesky(a))


class TestSymEigvals:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_values_of_sym_eig(self, seed):
        rng = np.random.default_rng(seed)
        for a in (random_spd(rng, 12), graded_spd(rng, grading(rng, 20)), kappa_matrix(100.0)):
            assert np.array_equal(sym_eigvals(a), sym_eig(a)[0])

    def test_indefinite_and_empty(self, rng):
        a = random_spd(rng, 6) - 2.0 * np.eye(6)
        assert_allclose(sym_eigvals(a), np.linalg.eigvalsh(a), rtol=1e-12, atol=1e-12)
        assert sym_eigvals(np.empty((0, 0))).shape == (0,)


class TestInvSqrt:
    def test_diagonal(self):
        r = inv_sqrt(np.diag([4.0, 9.0]))
        assert_allclose(r.entries, np.diag([0.5, 1 / 3]), rtol=1e-14)

    def test_identity(self):
        assert_allclose(inv_sqrt(np.eye(4)).entries, np.eye(4), atol=1e-14)

    def test_random_spd_defining_property(self, rng):
        a = random_spd(rng, 6)
        r = inv_sqrt(a).entries
        assert_allclose(r @ a @ r, np.eye(6), atol=1e-10)

    def test_carries_offending_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            inv_sqrt(np.diag([1.0, -2.0]))
        assert err.value.eigenvalue == pytest.approx(-2.0)


class TestSingularValues:
    def test_zero_matrix(self):
        assert_allclose(singular_values(np.zeros((3, 2))), np.zeros(2))

    def test_column_vector(self):
        v = np.array([3.0, 4.0])
        assert_allclose(singular_values(v), [5.0])

    def test_orthogonal_columns(self):
        a = np.zeros((3, 2))
        a[0, 0] = 2.0
        a[1, 1] = 5.0
        assert_allclose(singular_values(a), [5.0, 2.0], rtol=1e-14)

    def test_matches_gram_eigenvalues(self, rng):
        a = rng.standard_normal((7, 4))
        s = singular_values(a)
        g = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert_allclose(s, np.sqrt(np.clip(g, 0, None)), rtol=1e-9, atol=1e-12)


class TestUiNorm:
    def test_identity_frobenius(self):
        assert ui_norm(np.eye(7), "frobenius") == pytest.approx(np.sqrt(7))

    def test_rank_one_all_kinds_agree(self, rng):
        u = rng.standard_normal(5)
        v = rng.standard_normal(6)
        a = np.outer(u, v)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        for kind in NormKind:
            assert ui_norm(a, kind) == pytest.approx(expected, rel=1e-10)

    def test_diagonal_values(self):
        d = np.diag([3.0, 4.0])
        assert ui_norm(d, "trace") == pytest.approx(7.0)
        assert ui_norm(d, "frobenius") == pytest.approx(5.0)
        assert ui_norm(d, "spectral") == pytest.approx(4.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ui_norm(np.eye(2), "nuclear-ish")

    def test_values_norm_is_the_norm_of_the_diagonal_matrix(self, rng):
        values = rng.standard_normal(5) * np.logspace(-8, 0, 5)
        for kind in NormKind:
            assert values_norm(values, kind) == pytest.approx(ui_norm(np.diag(values), kind), rel=1e-14)
        assert values_norm(np.empty(0), "trace") == 0.0
        assert values_norm([-3.0, 4.0], "spectral") == 4.0


# the seed derandomize drew from the test's source when it was written,
# int_from_bytes(function_digest(test)): the examples stay the same
# across edits
@hypothesis.seed(35573466507285693738194618388844343830156937364304508398844430137814535878698257191628442707124605613622023862474710)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_sym_eig_matches_lapack_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    w, _ = sym_eig(a)
    assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-10, atol=1e-10)


def grading(rng, n, decades=24.0):
    """Scale factors spanning ``decades`` decades, in random order."""
    d = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)
    d[:2] = 10.0 ** (-decades / 2), 10.0 ** (decades / 2)
    return rng.permutation(d)


def graded_spd(rng, d, cond=1e3):
    """``D A D`` with cond(A) = cond."""
    q = haar_orthogonal(rng, len(d))
    a = (q * np.logspace(0.0, np.log10(cond), len(d))) @ q.T
    h = d[:, None] * a * d[None, :]
    return 0.5 * (h + h.T)


#: ``mpmath.eigsy`` is accurate to its precision relative to the largest
#: eigenvalue; 110 digits leave 50 correct digits in the smallest one when
#: the spectrum spans up to 60 decades.
ORACLE_DPS = 110


class TestRelativeAccuracy:
    """Small eigenvalues and singular values of graded matrices to high
    relative accuracy, against a high-precision mpmath oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sym_eig_values(self, seed):
        rng = np.random.default_rng(seed)
        h = graded_spd(rng, grading(rng, int(rng.integers(10, 31))))
        exact = mp_oracle.spectrum(h, ORACLE_DPS)
        w, _ = sym_eig(h)
        assert np.max(np.abs(w - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sym_eig_vectors(self, seed):
        # the left singular vectors of the Cholesky factor keep this only
        # when the diagonal is sorted to decrease before factoring
        rng = np.random.default_rng(seed)
        h = graded_spd(rng, grading(rng, 20))
        _, exact = mp_oracle.spectrum(h, ORACLE_DPS, vectors=True)
        _, v = sym_eig(h)
        v = v * np.sign(np.sum(v * exact, axis=0))
        assert np.max(np.abs(v - exact)) <= 1e-12

    @pytest.mark.parametrize("seed", [4, 5])
    def test_gen_sym_eig_values_on_graded_spd_pencil(self, seed):
        rng = np.random.default_rng(seed)
        d = grading(rng, int(rng.integers(10, 31)))
        a = graded_spd(rng, d)
        b = graded_spd(rng, d)
        exact = mp_oracle.pencil_values(a, b, ORACLE_DPS)
        w, _ = gen_sym_eig(a, b)
        assert np.max(np.abs(w - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("seed", [6, 7])
    def test_singular_values_of_column_graded_matrix(self, seed):
        rng = np.random.default_rng(seed)
        d = grading(rng, int(rng.integers(10, 31)))
        g = rng.standard_normal((len(d) + 3, len(d))) * d[None, :]
        exact = mp_oracle.singular_values(g, ORACLE_DPS)
        s = singular_values(g)
        assert np.max(np.abs(s - exact) / exact) <= 1e-12


class TestMatrixText:
    def test_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((4, 3))
        path = tmp_path / "m.txt"
        write_matrix_text(path, a)
        b = read_matrix_text(path)
        assert np.array_equal(a, b)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n2 2\n1.0 2.0  # trailing\n3.0 4.0\n"
        a = read_matrix_text(io.StringIO(text))
        assert_allclose(a, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_value_reports_line_and_column(self):
        for bad in ("oops", "nan", "-inf"):
            with pytest.raises(MatrixParseError) as err:
                read_matrix_text(io.StringIO(f"2 2\n1.0 2.0\n3.0 {bad}\n"))
            assert err.value.line == 3
            assert err.value.column == 2

    def test_wrong_row_length(self):
        with pytest.raises(MatrixParseError) as err:
            read_matrix_text(io.StringIO("2 2\n1.0 2.0 3.0\n"))
        assert err.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError):
            read_matrix_text(io.StringIO("3 2\n1.0 2.0\n"))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# comment\n2 2 2\n1 2\n3 4\n", 2, ":2: header must be 'n m', got 3 tokens"),
            ("2\n1 2\n3 4\n", 1, ":1: header must be 'n m', got 1 tokens"),
            ("2 2.0\n1 2\n3 4\n", 1, ":1: header dimensions must be integers"),
            ("2 -2\n", 1, ":1: dimensions must be nonnegative"),
            ("1 2\n1 2\n\n3 4\n", 4, ":4: more than the declared 1 rows"),
            ("# nothing but\n\n# comments\n", 1, ": empty file"),
        ],
    )
    def test_malformed_header_and_row_count(self, text, line, message):
        with pytest.raises(MatrixParseError) as err:
            read_matrix_text(io.StringIO(text))
        assert (err.value.line, err.value.column) == (line, 1)
        assert str(err.value) == "<stream>" + message

    def test_zero_by_zero_header_is_an_empty_matrix(self):
        a = read_matrix_text(io.StringIO("# empty\n0 0\n"))
        assert a.shape == (0, 0) and a.dtype == float

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_shapes_round_trip(self, shape, tmp_path):
        # n rows of no values are n blank lines, which the reader skips
        path = tmp_path / "empty.txt"
        write_matrix_text(path, np.empty(shape))
        a = read_matrix_text(path)
        assert a.shape == shape and a.dtype == float
        assert read_matrix_text(io.StringIO("3 0\n# no values\n\n")).shape == (3, 0)

    @pytest.mark.parametrize("text, line", [("1 2\n1 2\n3 oops\n", 3), ("0 2\n1 oops\n", 2)])
    def test_bad_value_on_a_surplus_row_comes_before_the_row_count(self, text, line):
        with pytest.raises(MatrixParseError) as err:
            read_matrix_text(io.StringIO(text))
        assert (err.value.line, err.value.column) == (line, 2)
        assert str(err.value) == f"<stream>:{line}: bad value 'oops' at column 2"

    def test_lines_end_where_str_splitlines_ends_them(self):
        # a form feed ends a row
        assert read_matrix_text(io.StringIO("2 2\n1 2\x0c3 4\n")).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (4, 3)])
    def test_result_is_a_writable_c_contiguous_float64_array(self, shape, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_text(path, np.arange(float(np.prod(shape))).reshape(shape))
        a = read_matrix_text(path)
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.writeable and a.flags.c_contiguous


def graded_upper(k):
    """The transposed sorted Cholesky factor of ``D A D`` with D spanning 24
    decades: upper triangular, its rows and columns graded alike."""
    rng = np.random.default_rng(k)
    d = grading(rng, k) if k > 1 else np.array([1e-12])
    return sorted_cholesky(graded_spd(rng, d))[1].T.copy()


def assert_within(err, bound):
    """Componentwise ``err <= bound``; where the bound is 0, err must be too."""
    assert np.all(err <= bound), np.max(err / np.where(bound > 0, bound, 1.0))


#: Orders around the blocked kernels' leaf size 64 and two recursion depths.
TRIANGULAR_ORDERS = [1, 63, 64, 65, 129, 200]


class TestTriangularKernels:
    """The blocked triangular inverse and back substitution against the row
    loop and an mpmath oracle, on factors graded over 24 decades."""

    @pytest.mark.parametrize("k", TRIANGULAR_ORDERS)
    def test_inv_upper(self, k):
        eps = np.finfo(float).eps
        r = graded_upper(k)
        x = _inv_upper(r)
        assert np.array_equal(np.triu(x), x)
        # componentwise residual and forward error (Du Croz and Higham)
        assert_within(np.abs(r @ x - np.eye(k)), k * eps * (np.abs(r) @ np.abs(x)))
        forward = np.abs(x) @ np.abs(r) @ np.abs(x)
        assert_within(np.abs(x - solve_lower_t(r.T, np.eye(k))), 2 * k * eps * forward)
        cols = sorted({0, k // 2, k - 1})
        exact = mp_oracle.solve_upper(r, np.eye(k)[:, cols], 40)
        assert_within(np.abs(x[:, cols] - exact), k * eps * forward[:, cols])

    @pytest.mark.parametrize("k", TRIANGULAR_ORDERS)
    def test_solve_upper(self, k):
        eps = np.finfo(float).eps
        r = graded_upper(k)
        b = np.random.default_rng(k).standard_normal((k, 3))
        z = _solve_upper(r, b)
        assert_within(np.abs(r @ z - b), k * eps * (np.abs(r) @ np.abs(z)))
        forward = np.abs(_inv_upper(r)) @ np.abs(r) @ np.abs(z)
        assert_within(np.abs(z - solve_lower_t(r.T, b)), 2 * k * eps * forward)
        assert_within(np.abs(z - mp_oracle.solve_upper(r, b, 40)), k * eps * forward)
        # one right-hand side as a vector
        assert_within(np.abs(_solve_upper(r, b[:, 0]) - z[:, 0]), 2 * k * eps * forward[:, 0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SymmetricMatrix(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
        (lambda: gen_sym_eig(np.eye(2), np.eye(3)), "shape mismatch: A is (2, 2), B is (3, 3)"),
    ],
    ids=["non-square", "pencil-shapes"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        call()
    assert err.type is ValueError
