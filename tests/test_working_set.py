"""Working set of the matrix reader, of admission and of a report, in n x n
doubles.

tracemalloc sees the arrays numpy allocates, but not LAPACK's work buffers
nor the buffers numpy's linalg routines hand to LAPACK, so the peaks below
are what the Python side holds at once.  The reader holds the file's text
twice at most, and its parsed rows and their stack only once the text is
freed; nothing is sized from the header.  Admission holds the stored copy
and one temporary; a report holds L and the inverse Gram S throughout, and
at its peak the QR input, numpy's copy of it and R beside L.
"""

import io
import tracemalloc

import numpy as np
import pytest

from ritzbounds.bounds import build_report, report_to_json
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds.densela import SymmetricMatrix, read_matrix_text, write_matrix_text
from ritzbounds.errors import MatrixParseError

from conftest import haar_orthogonal


def graded_case(n, m, seed):
    """``D A D`` with cond(A) <= 10, unit diag(A) and D = 2^-j for j in
    [0, 20], so H's diagonal spans 12 decades, and a random m-dimensional
    subspace."""
    rng = np.random.default_rng(seed)
    q = haar_orthogonal(rng, n)
    a = (q * 10.0 ** rng.uniform(0.0, 1.0, n)) @ q.T
    s = 1.0 / np.sqrt(np.diag(a))
    a = s[:, None] * a * s[None, :]
    d = 2.0 ** -rng.permutation(np.round(np.linspace(0.0, 20.0, n)))
    h = d[:, None] * (0.5 * (a + a.T)) * d[None, :]
    basis, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return h, Subspace(basis)


def traced_peak(fn) -> int:
    """Peak traced bytes while ``fn()`` runs, beyond those traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


CASES = [(200, 1), (128, 4)]


@pytest.mark.parametrize("n, m", CASES)
def test_admission_holds_its_copy_and_one_temporary(n, m):
    h, _ = graded_case(n, m, seed=n)
    SymmetricMatrix(h)
    assert traced_peak(lambda: SymmetricMatrix(h)) <= 2.6 * 8 * n * n


@pytest.mark.parametrize("n, m", CASES)
def test_report_holds_at_most_four_and_a_half_n2_beyond_h(n, m):
    h, sub = graded_case(n, m, seed=n)
    hm = SymmetricMatrix(h)
    report_to_json(build_report(hm, sub))
    assert traced_peak(lambda: report_to_json(build_report(hm, sub))) <= 4.5 * 8 * n * n


@pytest.mark.parametrize("graded, bound", [(False, 5.5), (True, 6.25)])
def test_reader_holds_its_text_twice_at_most(tmp_path, graded, bound):
    # the file's bytes and their decoding, then the text and its lines;
    # with the text gone, the lines, the rows parsed once into float64 and
    # their stack.  At 17 digits a value takes 21-24 bytes of text, 2.6-3.0
    # n^2 doubles, so the peak in n^2 follows the values' length
    n = 400
    h = graded_case(n, 1, seed=n)[0] if graded else np.random.default_rng(n).standard_normal((n, n))
    path = tmp_path / "h.txt"
    write_matrix_text(path, h)
    read_matrix_text(path)
    peak = traced_peak(lambda: read_matrix_text(path))
    assert peak <= 2 * path.stat().st_size + 0.25 * 8 * n * n
    assert peak <= bound * 8 * n * n


def test_reader_sizes_nothing_from_the_header():
    # 1e12 x 2 doubles would be 16 TB; the reader holds only what it read
    def read():
        with pytest.raises(MatrixParseError) as err:
            read_matrix_text(io.StringIO("1000000000000 2\n1 2\n"))
        assert str(err.value) == "<stream>: declared 1000000000000 rows but found 1"

    assert traced_peak(read) < 2**20
