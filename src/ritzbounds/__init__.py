"""Scaling-robust relative a-posteriori eigenvalue bounds from Ritz test subspaces."""

__version__ = "0.1.0"

from .bounds import (
    BoundEntry,
    BoundReport,
    GapData,
    build_report,
    classical_temple_kato,
    cluster_upper_bound,
    g1_from_spectral_gap,
    gamma_s,
    gq_lower_bound_lemma,
    prop_lower_bound,
    relative_gap_gq,
    report_to_csv,
    report_to_json,
    residual_eta_sandwich,
    sandwich_bounds,
    trace_sandwich,
)
from .defect import (
    DefectSpectrum,
    RitzData,
    SplitOperator,
    TestSubspace,
    dl_measure,
    etas_moments,
    etas_residual,
    etas_schur,
    exactness_ratio,
    moment_matrices,
    p_diagonal_split,
    ritz,
    wilkinson_schur,
)
from .densela import (
    NormKind,
    SymmetricMatrix,
    as_symmetric,
    gen_sym_eig,
    read_matrix_text,
    singular_values,
    sym_eig,
    sym_eigvals,
    ui_norm,
    write_matrix_text,
)
from .models import (
    fem_assemble,
    fem_ritz,
    hkappa_matrix,
    hkappa_reference,
    kappa_row,
    periodic_exact,
    schrodinger_bounds,
    schrodinger_drop,
    schrodinger_eta2,
    schrodinger_lambda,
    schrodinger_taylor,
    table1_row,
)
