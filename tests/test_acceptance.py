"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; each test also enforces its runtime budget.

Criterion 2 is split: the residual norm and the exactness-ratio checks
(2a) pass, while 2b pins the computed defect against an externally
published closed-form constant for the 3x3 family that is inconsistent
with the value derivable from the model itself (three independent
computations in this repository, including exact arithmetic, give
eta^2 = 1/(101 (1 + kappa^2)); the published constant corresponds to
2/(100 kappa^2 + 101) and contradicts the exactness ratio tending to 1,
which 2a verifies).  2b is therefore expected to fail and is kept as an
honest record of that discrepancy; 2c asserts the derivable closed form
at the same 1e-12 tolerance.
"""

import math
import time

import numpy as np
import pytest

from ritzbounds import cli
from ritzbounds.bounds import (
    g1_from_spectral_gap,
    prop_lower_bound,
    relative_gap_gq,
    residual_eta_sandwich,
    sandwich_bounds,
    trace_sandwich,
)
from ritzbounds.defect import TestSubspace as Subspace
from ritzbounds.defect import (
    dl_measure,
    etas_moments,
    etas_schur,
    moment_matrices,
    p_diagonal_split,
    relative_residual_identity,
    ritz,
    wilkinson_schur,
)
from ritzbounds.densela import NormKind, inv_sqrt, sym_eig, ui_norm
from ritzbounds.models import (
    fem_assemble,
    hkappa_matrix,
    hkappa_reference,
    schrodinger_bounds,
    schrodinger_eta2,
    schrodinger_eta2_fd,
    schrodinger_lambda,
    schrodinger_taylor,
)

from conftest import clustered_spd, haar_orthogonal, span_e1, tilted_basis

PI = math.pi

TABLE1_REFERENCE = {
    40: (7.9540e-1, 7.9540e-1, 7.9558e-1),
    60: (5.1413e-1, 5.1413e-1, 5.1422e-1),
    80: (3.4389e-1, 3.4389e-1, 3.4393e-1),
    100: (2.4120e-1, 2.4120e-1, 2.4123e-1),
    120: (1.7671e-1, 1.7671e-1, 1.7673e-1),
}


def _announce(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} exceeded its {budget:.0f} s budget: {elapsed:.1f} s"
    print(f"[acceptance] PASS {name} ({elapsed:.1f} s)")


def test_criterion1_reference_table_reproduction(tmp_path):
    """Mesh-refinement table: five rows at default settings, < 60 s."""
    started = time.perf_counter()
    out = tmp_path / "table.csv"
    code = cli.main(["fem-periodic", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,lower,middle,upper"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [40, 60, 80, 100, 120]
    for r in rows:
        n_mesh = int(r[0])
        lower, middle, upper = (float(v) for v in r[1:])
        ref_lower, ref_middle, ref_upper = TABLE1_REFERENCE[n_mesh]
        assert abs(lower - ref_lower) <= 2e-4, f"N={n_mesh} lower column"
        assert abs(middle - ref_middle) <= 2e-4, f"N={n_mesh} middle column"
        assert abs(upper - ref_upper) / ref_upper <= 5e-3, f"N={n_mesh} upper column"
    _announce("criterion 1: reference table reproduction", started, 60.0)


def test_criterion2a_kappa_residual_and_exactness_ratio():
    """Computed residual norm and exactness ratios for the 3x3 family, < 1 s."""
    started = time.perf_counter()
    psi = np.array([1.0, 0.0, 0.0])
    for kappa in (10.0, 100.0, 1000.0):
        h = hkappa_matrix(kappa).entries
        res = np.linalg.norm(h @ psi - (1 / 101) * psi)
        assert res == 1 / 101  # exact: the only residual entry is h[2, 0]
    for kappa, tol in ((1000.0, 5e-2), (10000.0, 5e-3)):
        h = hkappa_matrix(kappa)
        lam1 = sym_eig(h)[0][0]
        eta = etas_schur(p_diagonal_split(h, span_e1())).eta_max
        ratio = ((1 / 101 - lam1) / (1 / 101)) / eta**2
        assert abs(ratio - 1.0) <= tol, f"kappa={kappa:g}"
    _announce("criterion 2a: kappa-family residual and exactness ratio", started, 1.0)


def test_criterion2b_kappa_published_reference_constant():
    """Computed defect vs. the published closed-form constant, 1e-12.

    Known inconsistency: the published constant disagrees with the value
    derivable from the model (see module docstring and the companion
    test 2c); this check records that discrepancy honestly.
    """
    started = time.perf_counter()
    for kappa in (10.0, 100.0, 1000.0):
        h = hkappa_matrix(kappa)
        eta = etas_schur(p_diagonal_split(h, span_e1())).eta_max
        published = (1.0 / kappa) * math.sqrt(2.0) / math.sqrt(101.0 / kappa**2 + 100.0)
        assert eta == pytest.approx(published, rel=1e-12), (
            f"kappa={kappa:g}: computed defect {eta!r} differs from the "
            f"published constant {published!r}; the derivable closed form "
            f"sqrt(1/(101 (1 + kappa^2))) = {hkappa_reference(kappa).eta!r} "
            f"matches the computation to 1e-13 (criterion 2c)"
        )
    _announce("criterion 2b: kappa-family published constant", started, 1.0)


def test_criterion2c_kappa_derivable_closed_form():
    """Computed defect vs. the closed form derivable from the model, 1e-12."""
    started = time.perf_counter()
    for kappa in (10.0, 100.0, 1000.0):
        h = hkappa_matrix(kappa)
        eta = etas_schur(p_diagonal_split(h, span_e1())).eta_max
        assert eta == pytest.approx(hkappa_reference(kappa).eta, rel=1e-12)
        moment_eta = etas_moments(*moment_matrices(h, ritz(h, span_e1()))).eta_max
        assert moment_eta == pytest.approx(hkappa_reference(kappa).eta, rel=1e-10)
    _announce("criterion 2c: kappa-family derivable closed form", started, 1.0)


def test_criterion3_schrodinger_model():
    """Bisection vs series, sandwich, and the FD oracle, < 30 s."""
    started = time.perf_counter()
    quotient = (PI**2 - schrodinger_lambda(1000.0, 1)) / PI**2
    assert abs(quotient - schrodinger_taylor(1000.0)) <= 1e-12
    for kappa in (5.0, 10.0, 100.0, 1000.0):
        lower, upper = schrodinger_bounds(kappa)
        value = (PI**2 - schrodinger_lambda(kappa, 1)) / PI**2
        assert lower <= value <= upper, f"kappa={kappa:g}"
    fd = schrodinger_eta2_fd(100.0, length=10.0, nodes=20000)
    assert abs(fd - schrodinger_eta2(100.0)) <= 1e-4
    _announce("criterion 3: large-coupling model", started, 30.0)


def test_criterion4_exact_identity_suite():
    """200 clustered instances: identity, route agreement, sandwiches, < 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    checked_instances = 0
    for _ in range(200):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(1, 5))
        h, lam, eigenspace = clustered_spd(rng, n, m, gap=3.0, spread=20.0)
        # dimension-aware tilt keeps the defects inside the localization
        # hypotheses (eta stays below ~0.25 on every draw)
        s = Subspace(tilted_basis(rng, eigenspace, 0.025 / math.sqrt(n)))
        rd = ritz(h, s)
        split = p_diagonal_split(h, s)
        ds = etas_schur(split)
        psi, omega = moment_matrices(h, rd)
        ds_m = etas_moments(psi, omega)

        norm_h = float(lam.max())
        _, _, defect_norm = relative_residual_identity(split, rd, lam[0])
        assert defect_norm <= 1e-9 * norm_h
        assert np.max(np.abs(ds.etas - ds_m.etas)) <= 1e-9

        # hypotheses hold by construction; fail loudly if they do not
        gam = (lam[m] - rd.mu[-1]) / (lam[m] + rd.mu[-1])
        assert ds.eta_max / (1 - ds.eta_max) < gam, "construction too coarse"
        assert 2 * ds.eta_max < 1

        g1 = relative_gap_gq(split.w_values, lam[0])
        true_sum = float(((rd.mu - lam[0]) / rd.mu).sum())
        t_lo, t_hi = trace_sandwich(ds, g1)
        assert t_lo <= true_sum * (1 + 1e-9) + 1e-15
        assert true_sum <= t_hi * (1 + 1e-9) + 1e-15

        for kind in NormKind:
            actual = ui_norm(np.eye(m) - lam[0] * np.diag(1.0 / rd.mu), kind)
            s_lo, s_hi = sandwich_bounds(ds, g1, kind)
            assert s_lo <= actual * (1 + 1e-9) + 1e-15
            assert actual <= s_hi * (1 + 1e-9) + 1e-15

        ratios = rd.mu * np.diag(omega.entries)
        r_lo, r_hi = residual_eta_sandwich(ratios, dl_measure(psi, rd.mu))
        total = ds_m.sum_squares()
        assert r_lo <= total * (1 + 1e-9) + 1e-15
        assert total <= r_hi * (1 + 1e-9) + 1e-15

        assert prop_lower_bound(rd.mu, ratios) <= true_sum * (1 + 1e-9) + 1e-15
        assert g1_from_spectral_gap(lam[m], rd.mu[-1]) <= g1 * (1 + 1e-12)
        checked_instances += 1
    assert checked_instances == 200
    _announce("criterion 4: exact-identity suite (200 instances)", started, 30.0)


def test_criterion5_scaling_robustness():
    """Relative quantities drift <= 1e-10 over scales in [1e-8, 1e8], < 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)

    def fd_surrogate(n=80, length=8.0, kappa=50.0):
        h = length / n
        x = h * np.arange(1, n)
        main = 2.0 / h**2 + np.where(x >= 1.0, kappa**2, 0.0)
        mat = np.diag(main) + np.diag(np.full(n - 2, -1.0 / h**2), 1) + np.diag(
            np.full(n - 2, -1.0 / h**2), -1
        )
        return 0.5 * (mat + mat.T)

    stiff, mass = fem_assemble(24)
    r = inv_sqrt(mass).entries
    fem_standard = r @ stiff.entries @ r

    cases = []
    for name, h in (
        ("kappa-family", hkappa_matrix(10.0).entries),
        ("periodic-fem", 0.5 * (fem_standard + fem_standard.T)),
        ("schrodinger-fd", fd_surrogate()),
    ):
        m = 2 if name != "kappa-family" else 1
        _, vectors = sym_eig(h)
        basis = tilted_basis(rng, vectors[:, :m], 0.02)
        cases.append((name, h, Subspace(basis)))

    scales = 10.0 ** rng.uniform(-8, 8, size=10)
    for name, h, s in cases:
        lam = sym_eig(h)[0]
        base = _relative_quantities(h, s, lam)
        for c in scales:
            scaled = _relative_quantities(c * h, s, c * lam)
            for key, value in base.items():
                drift = abs(scaled[key] - value) / max(abs(value), 1e-300)
                assert drift <= 1e-10, f"{name}/{key} at scale {c:.2e}: {drift:.2e}"
    _announce("criterion 5: scaling robustness", started, 10.0)


def _relative_quantities(h, s, lam):
    from ritzbounds.bounds import cluster_upper_bound, sandwich_bounds

    rd = ritz(h, s)
    split = p_diagonal_split(h, s)
    ds = etas_schur(split)
    m = s.dim
    g_q = relative_gap_gq(split.w_values, lam[0])
    gam = (lam[m] - rd.mu[-1]) / (lam[m] + rd.mu[-1])
    t_lo, t_hi = trace_sandwich(ds, g_q)
    s_lo, s_hi = sandwich_bounds(ds, g_q, "frobenius")
    out = {
        "g_q": g_q,
        "gamma_s": gam,
        "trace_lower": t_lo,
        "trace_upper": t_hi,
        "sandwich_lower": s_lo,
        "sandwich_upper": s_hi,
        "cluster_T33": cluster_upper_bound(ds, g_q, "frobenius"),
    }
    for i, eta in enumerate(ds.etas):
        out[f"eta_{i + 1}"] = eta
    return out


def test_criterion6_wilkinson_zero_complement():
    """50 block matrices with an m-dimensional null space, < 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, 5))
        q = haar_orthogonal(rng, n)
        d = np.concatenate(
            [np.zeros(m), rng.uniform(0.2, 8.0, n - m) * rng.choice([-1, 1], n - m)]
        )
        mat = (q * d) @ q.T
        mat = 0.5 * (mat + mat.T)
        complement = wilkinson_schur(mat[:m, :m], mat[:m, m:], mat[m:, m:])
        norm_m = float(np.max(np.abs(d)))
        assert np.linalg.norm(complement.entries) <= 1e-10 * norm_m
    _announce("criterion 6: Wilkinson zero complement", started, 5.0)
