"""Named runtime verification checks.

Every structural property the library relies on is spelled out here as a
deterministic named check running on fixed seeds; the CLI ``verify``
command executes the registry and reports one pass/fail line per property.
Checks call library entry points through their modules, so a deliberately
injected defect (say a sign flip in the defect computation) is caught by
the corresponding property.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as _bounds
from . import defect as _defect
from . import densela as _densela
from . import models as _models

DEFAULT_SEED = 20260811


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_spd(rng, n, log_cond=4.0):
    q = _haar(rng, n)
    lam = 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, size=n)
    return (q * lam) @ q.T


def _random_subspace(rng, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return _defect.TestSubspace(q)


def _clustered(rng, n, m, gap=3.0, spread=20.0):
    # the dimension-aware tilt keeps eta well below the separation of the
    # cluster, so the cluster checks' hypotheses hold on every draw
    q = _haar(rng, n)
    lam = np.concatenate([np.ones(m), gap * (1.0 + spread * np.sort(rng.random(n - m)))])
    h = (q * lam) @ q.T
    basis, _ = np.linalg.qr(q[:, :m] + 0.025 / math.sqrt(n) * rng.standard_normal((n, m)))
    return 0.5 * (h + h.T), lam, _defect.TestSubspace(basis)


#: Draws of each cluster check; every one must reach its comparison.
CLUSTER_DRAWS = 10


def _all_draws_checked(checked, claim):
    detail = f"{claim}; {checked} of {CLUSTER_DRAWS} draws checked"
    if checked < CLUSTER_DRAWS:
        return False, f"{detail}, below the floor of {CLUSTER_DRAWS}"
    return True, detail


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, detail)
# ---------------------------------------------------------------------------


def check_unitary_invariance(rng):
    worst = 0.0
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        u = _haar(rng, 6)
        v = _haar(rng, 6)
        for kind in _densela.NormKind:
            base = _densela.ui_norm(a, kind)
            rotated = _densela.ui_norm(u @ a @ v, kind)
            worst = max(worst, abs(rotated - base) / max(base, 1e-300))
    return worst <= 1e-10, f"max relative drift {worst:.2e}"


def check_triple_submultiplicative(rng):
    for _ in range(10):
        a, b, c = (rng.standard_normal((5, 5)) for _ in range(3))
        na = np.linalg.norm(a, 2)
        nc = np.linalg.norm(c, 2)
        for kind in _densela.NormKind:
            lhs = _densela.ui_norm(a @ b @ c, kind)
            rhs = na * _densela.ui_norm(b, kind) * nc
            if lhs > rhs * (1 + 1e-10):
                return False, f"violated: {lhs:.6e} > {rhs:.6e} for {kind.value}"
    return True, "holds on 10 random triples, all norms"


def check_eig_closed_form_2x2(rng):
    worst = 0.0
    for _ in range(50):
        a, b, c = rng.standard_normal(3)
        w, _ = _densela.sym_eig(np.array([[a, b], [b, c]]))
        disc = math.sqrt((a - c) ** 2 / 4 + b * b)
        exact = np.array([(a + c) / 2 - disc, (a + c) / 2 + disc])
        worst = max(worst, np.max(np.abs(w - exact)) / max(np.max(np.abs(exact)), 1.0))
    return worst <= 1e-13, f"max deviation {worst:.2e}"


def check_pencil_congruence_invariance(rng):
    worst = 0.0
    for _ in range(5):
        a = _random_spd(rng, 6)
        b = _random_spd(rng, 6)
        s = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        w1 = _densela.gen_sym_eig(a, b)
        w2 = _densela.gen_sym_eig(s.T @ a @ s, s.T @ b @ s)
        worst = max(worst, np.max(np.abs(w1 - w2) / np.abs(w1)))
    return worst <= 1e-9, f"max relative drift {worst:.2e}"


def check_route_equivalence(rng):
    # the report's relative rule (bounds.ROUTES_RTOL, ROUTES_ATOL)
    agree, worst = 0, 0.0
    for _ in range(15):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2 * m + 2, 30))
        h = _random_spd(rng, n)
        s = _random_subspace(rng, n, m)
        split = _defect.p_diagonal_split(h, s)
        schur = _defect.etas_schur(split)
        moments = _defect.etas_residual(split)[0]
        agree += _bounds._routes_agree(schur, moments, n)
        gap = np.abs(schur.etas - moments.etas) / np.maximum(schur.etas, moments.etas)
        worst = max(worst, float(np.max(gap)))
    return agree == 15, f"routes agree on {agree} of 15 draws, max relative disagreement {worst:.2e}"


def check_variational_consistency(rng):
    # the largest Rayleigh quotient (c, Omega c) / (c, Psi c), computed
    # apart from the library's solvers: numpy's Cholesky Psi = L L^T and
    # LAPACK's symmetric eigensolver on L^-1 Omega L^-T, not the dqds route
    h = _random_spd(rng, 8)
    s = _random_subspace(rng, 8, 3)
    rd = _defect.ritz(h, s)
    psi, omega = _defect.moment_matrices(h, rd)
    eta_m2 = _defect.etas_moments(psi, omega).etas[-1] ** 2
    ell = np.linalg.cholesky(psi.entries)
    reduced = np.linalg.solve(ell, np.linalg.solve(ell, omega.entries).T)
    best = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1])
    ok = abs(best - eta_m2) <= 1e-8 * max(eta_m2, 1e-12)
    return ok, f"pencil max {eta_m2:.6e} vs direct max {best:.6e}"


def check_eta_bound_strict(rng):
    # 1 -+ eta_m are the extreme eigenvalues of (H, P H P + (I-P) H (I-P))
    for _ in range(10):
        h = _random_spd(rng, 12, log_cond=6.0)
        s = _random_subspace(rng, 12, 4)
        etas = _defect.etas_schur(_defect.p_diagonal_split(h, s)).etas
        if not (np.all(np.diff(etas) >= 0) and etas[0] >= 0 and etas[-1] < 1):
            return False, f"violated ordering/bound: {etas}"
        p, q = s.basis @ s.basis.T, np.eye(12) - s.basis @ s.basis.T
        theta = _densela.gen_sym_eig(h, p @ h @ p + q @ h @ q)
        if max(abs(1.0 - theta[0] - etas[-1]), abs(theta[-1] - 1.0 - etas[-1])) > 1e-10:
            return False, f"eta_m = {etas[-1]:.15e} but (H, H_P) spans [{theta[0]:.15e}, {theta[-1]:.15e}]"
    return True, "0 <= eta_1 <= ... <= eta_m < 1 on 10 draws"


def check_galerkin_monotonicity(rng):
    # (f, H_P^-1 f) from the Ritz pairs must be the one solved apart from
    # them, c^T (U^T H U)^-1 c: the inequality alone is too loose to see
    # reversed, halved or unrotated Ritz values
    h = _random_spd(rng, 9)
    s = _random_subspace(rng, 9, 3)
    rd = _defect.ritz(h, s)
    compression = rd.vectors.T @ h @ rd.vectors
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(3)
        f = rd.vectors @ c
        full = f @ np.linalg.solve(h, f)
        compressed = c @ (c / rd.mu)
        direct = c @ np.linalg.solve(compression, c)
        worst = max(worst, abs(compressed - direct) / direct)
        if full < compressed - 1e-12 * abs(full) or compressed < 0:
            return False, f"violated: {full:.6e} < {compressed:.6e}"
    detail = f"(f, H^-1 f) >= (f, H_P^-1 f) >= 0 on 20 vectors; Ritz form off the direct solve by {worst:.2e}"
    return worst <= 1e-10, detail


def check_defect_scaling_robustness(rng):
    h = _random_spd(rng, 10)
    s = _random_subspace(rng, 10, 3)
    base = _defect.etas_schur(_defect.p_diagonal_split(h, s)).etas
    worst = 0.0
    for c in (1e-8, 1e-3, 1e5, 1e8):
        scaled = _defect.etas_schur(_defect.p_diagonal_split(c * h, s)).etas
        worst = max(worst, float(np.max(np.abs(scaled - base))))
    return worst <= 1e-12, f"max drift over scales {worst:.2e}"


def check_wilkinson_zero_complement(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 20))
        m = int(rng.integers(1, 5))
        q = _haar(rng, n)
        d = np.concatenate(
            [np.zeros(m), rng.uniform(0.3, 5.0, n - m) * rng.choice([-1, 1], n - m)]
        )
        mat = (q * d) @ q.T
        mat = 0.5 * (mat + mat.T)
        s = _defect.wilkinson_schur(mat[:m, :m], mat[:m, m:], mat[m:, m:])
        worst = max(worst, np.linalg.norm(s.entries) / np.linalg.norm(mat, 2))
    return worst <= 1e-10, f"max relative complement norm {worst:.2e}"


def check_sandwich_containment(rng):
    for _ in range(10):
        h, lam, s = _clustered(rng, 10, 2)
        split = _defect.p_diagonal_split(h, s)
        rd = split.ritz
        ds = _defect.etas_schur(split)
        g1 = _bounds.relative_gap_gq(split.w_values, lam[0])
        true_sum = float(((rd.mu - lam[0]) / rd.mu).sum())
        lo, hi = _bounds.trace_sandwich(ds, g1)
        if not (lo <= true_sum * (1 + 1e-9) and true_sum <= hi * (1 + 1e-9)):
            return False, f"trace sum {true_sum:.6e} outside [{lo:.6e}, {hi:.6e}]"
        for kind in _densela.NormKind:
            actual = _densela.ui_norm(np.eye(2) - lam[0] * np.diag(1 / rd.mu), kind)
            lo_k, hi_k = _bounds.sandwich_bounds(ds, g1, kind)
            if not (lo_k <= actual * (1 + 1e-9) <= hi_k * (1 + 1e-9) + 1e-300):
                return False, f"{kind.value}: {actual:.6e} outside [{lo_k:.6e}, {hi_k:.6e}]"
    return True, "trace and norm sandwiches bracket on 10 clustered draws"


def check_cluster_bound_validity(rng):
    checked = 0
    for _ in range(CLUSTER_DRAWS):
        h, lam, s = _clustered(rng, 10, 2)
        split = _defect.p_diagonal_split(h, s)
        rd = split.ritz
        ds = _defect.etas_schur(split)
        gam = _bounds.gamma_s(0.0, lam[2], rd.mu[0], rd.mu[-1])
        if ds.eta_max / (1 - ds.eta_max) >= gam:
            continue
        checked += 1
        g_q = _bounds.relative_gap_gq(split.w_values, lam[0])
        bound = _bounds.cluster_upper_bound(ds, g_q, "frobenius")
        actual = _densela.ui_norm(np.eye(2) - lam[0] * np.diag(1 / rd.mu), "frobenius")
        if bound < actual * (1 - 1e-10):
            return False, f"bound {bound:.6e} below actual {actual:.6e}"
    return _all_draws_checked(checked, "quadratic cluster bound dominates")


def check_report_scaling_robustness(rng):
    # the reports take their reference spectrum from H, as the CLI's do
    h, _, s = _clustered(rng, 9, 2)
    base = _bounds.build_report(h, s, "frobenius")
    keys = ("cluster_T33", "sandwich_lower", "sandwich_upper", "trace_lower",
            "trace_upper", "prop36_lower")
    worst = 0.0
    for c in (1e-8, 1e-2, 1e4, 1e8):
        scaled = _bounds.build_report(c * h, s, "frobenius")
        worst = max(worst, float(np.max(np.abs(np.array(scaled.etas) - np.array(base.etas)))))
        for key in keys:
            a, b = scaled.aggregates[key], base.aggregates[key]
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst <= 1e-10, f"max relative drift {worst:.2e}"


def check_corollary_gap_consistency(rng):
    checked = 0
    for _ in range(CLUSTER_DRAWS):
        h, lam, s = _clustered(rng, 10, 2)
        split = _defect.p_diagonal_split(h, s)
        rd = split.ritz
        ds = _defect.etas_schur(split)
        gam = (lam[2] - rd.mu[-1]) / (lam[2] + rd.mu[-1])
        if ds.eta_max >= gam:
            continue
        checked += 1
        exact = _bounds.relative_gap_gq(split.w_values, lam[0])
        lower = _bounds.g1_from_spectral_gap(lam[2], rd.mu[-1])
        if lower > exact + 1e-12:
            return False, f"corollary gap {lower:.6e} above exact {exact:.6e}"
    return _all_draws_checked(checked, "corollary gap stays below the exact relative gap")


def check_residual_dichotomy(rng):
    eta = _models.kappa_row(1000.0).eta_computed
    psi = np.array([1.0, 0.0, 0.0])
    res = np.linalg.norm(_models.hkappa_matrix(1000.0).entries @ psi - (1 / 101) * psi)
    ok = eta < 1e-2 and res > 9e-3
    return ok, f"eta = {eta:.3e} (< 1e-2), residual = {res:.3e} (> 9e-3)"


def check_kappa_exactness_ratio(rng):
    # ratio - 1 = lambda_1/(1 + kappa^2 - lambda_1), about 0.0099/kappa^2
    details = []
    for k in (1000.0, 10000.0):
        gap = abs(_models.kappa_row(k).ratio - 1.0)
        details.append(f"kappa={k:g}: |ratio-1| = {gap:.2e}")
        if gap > 1.0 / k**2:
            return False, "; ".join(details)
    return True, "; ".join(details)


def check_kappa_error_expansion(rng):
    for k in (100.0, 1000.0):
        rel = _models.kappa_row(k).rel_error
        model = 1.0 / (101.0 * k**2)
        if abs(rel - model) / model > 10.0 / k**2:
            return False, f"kappa={k:g}: deviation {abs(rel - model) / model:.2e}"
    return True, "matches 1/(101 kappa^2) within 10/kappa^2"


def check_schrodinger_sandwich(rng):
    for k in (5.0, 10.0, 100.0, 1000.0):
        lower, upper = _models.schrodinger_bounds(k)
        quotient = _models.schrodinger_drop(k)
        if not lower <= quotient <= upper:
            return False, f"kappa={k:g}: {quotient:.6e} outside [{lower:.6e}, {upper:.6e}]"
    return True, "two-sided estimate holds at kappa in {5, 10, 100, 1000}"


def check_schrodinger_taylor_agreement(rng):
    k = 1000.0
    diff = abs(_models.schrodinger_drop(k) - _models.schrodinger_taylor(k))
    return diff <= 1e-12, f"|bisection - series| = {diff:.2e} at kappa = 1000"


def check_fem_table_consistency(rng):
    lower, middle, upper = _models.table1_row(40)
    if not (abs(middle - lower) <= 2e-4 and lower <= middle <= upper):
        return False, f"N=40: lower {lower:.6e}, middle {middle:.6e}, upper {upper:.6e}"
    # the top of the admitted range: upper exceeds middle by 5.0e-5 exactly
    lower, middle, upper = _models.table1_row(10**5)
    ok = lower <= middle <= upper and upper / middle - 1 <= 1e-4
    return ok, (
        f"N=1e5: lower {lower:.6e}, middle {middle:.6e}, upper {upper:.6e}, "
        f"upper/middle - 1 = {upper / middle - 1:.1e}"
    )


def check_model_determinism(rng):
    a = _models.table1_row(16)
    b = _models.table1_row(16)
    la = _models.schrodinger_lambda(100.0, 1)
    lb = _models.schrodinger_lambda(100.0, 1)
    ok = a == b and la == lb
    return ok, "bit-identical on repeated evaluation"


def check_report_round_trip(rng):
    import json

    h, lam, s = _clustered(rng, 8, 2)
    report = _bounds.build_report(h, s, "frobenius", lambda_ref=lam)
    text = _bounds.report_to_json(report)
    if json.loads(text) != _bounds.report_to_dict(report):
        return False, "JSON text does not parse back to the report's content"
    if text != _bounds.report_to_json(json.loads(text)):
        return False, "JSON round trip changed bytes"
    csv_text = _bounds.report_to_csv(report)
    if csv_text != _bounds.report_to_csv(_bounds.csv_to_rows(csv_text)):
        return False, "CSV round trip changed bytes"
    return True, "JSON holds the report's content; JSON and CSV byte-stable"


def check_report_determinism(rng):
    h, _, s = _clustered(rng, 8, 2)
    a = _bounds.report_to_json(_bounds.build_report(h, s, "trace"))
    b = _bounds.report_to_json(_bounds.build_report(h, s, "trace"))
    return a == b, "identical inputs give identical serialized output"


REGISTRY: dict[str, Callable] = {
    "densela.unitary_invariance": check_unitary_invariance,
    "densela.triple_submultiplicative": check_triple_submultiplicative,
    "densela.eig_closed_form_2x2": check_eig_closed_form_2x2,
    "densela.pencil_congruence_invariance": check_pencil_congruence_invariance,
    "defect.route_equivalence": check_route_equivalence,
    "defect.variational_consistency": check_variational_consistency,
    "defect.eta_bound_strict": check_eta_bound_strict,
    "defect.galerkin_monotonicity": check_galerkin_monotonicity,
    "defect.scaling_robustness": check_defect_scaling_robustness,
    "defect.wilkinson_zero_complement": check_wilkinson_zero_complement,
    "bounds.sandwich_containment": check_sandwich_containment,
    "bounds.cluster_bound_validity": check_cluster_bound_validity,
    "bounds.scaling_robustness": check_report_scaling_robustness,
    "bounds.corollary_gap_consistency": check_corollary_gap_consistency,
    "bounds.residual_dichotomy": check_residual_dichotomy,
    "models.kappa_exactness_ratio": check_kappa_exactness_ratio,
    "models.kappa_error_expansion": check_kappa_error_expansion,
    "models.schrodinger_sandwich": check_schrodinger_sandwich,
    "models.schrodinger_taylor_agreement": check_schrodinger_taylor_agreement,
    "models.fem_table_consistency": check_fem_table_consistency,
    "models.determinism": check_model_determinism,
    "report.round_trip": check_report_round_trip,
    "report.determinism": check_report_determinism,
}


def run_checks(names=None, seed: int = DEFAULT_SEED):
    """Run registered checks (all by default, a repeated name once) on a fixed seed."""
    selected = list(dict.fromkeys(REGISTRY if names is None else names))
    results = []
    for name in selected:
        if name not in REGISTRY:
            raise KeyError(f"unknown check {name!r}")
        rng = np.random.default_rng(seed)
        try:
            passed, detail = REGISTRY[name](rng)
        except Exception as exc:  # a crashing property is a failing property
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results
