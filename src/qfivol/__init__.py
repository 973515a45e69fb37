"""Monotone-metric volumes: covariance vs quantum Fisher Gram determinants.

The package builds the family of metric inner products generated by
normalized symmetric operator monotone functions, the tilde-transformed
correlation that links them to covariances, and the determinant volume
comparisons between the two, together with deterministic random sweeps that
stress the numerics of the volume inequality.  The inequality is proved for
any number of observables (A. Andai, J. Math. Phys. 49, 012106 (2008); P.
Gibilisco, F. Hiai, D. Petz, IEEE Trans. Inf. Theory 55, 439 (2009)), so a
sweep candidate points at a numerical defect.
"""

from .matrices import (
    DecompositionError,
    DensityMatrix,
    as_hermitian,
    center,
    det_small,
    icommutator,
    spectral_decompose,
    to_eigenframe,
)
from .metrics import (
    MetricContext,
    MetricUndefinedError,
    covariance,
    f_correlation,
    identity_residual,
    mean_superop_apply,
    metric_context,
    qfi_inner,
)
from .monotone import (
    RLD,
    SLD,
    WY,
    MonotoneFunction,
    RegistrationError,
    TildeUndefinedError,
    builtin,
    mean_table,
    regular_builtins,
    scalar_mean,
    tilde,
    tilde_order,
    wyd,
)
from .sampling import (
    ENSEMBLES,
    RandomSpec,
    resolve_ensemble,
    sample_observables,
    sample_pure_state,
    sample_state,
)
from .sweep import (
    SweepConfig,
    SweepSummary,
    evaluate_sample,
    format_record,
    replay_record,
    run_sweep,
)
from .volumes import (
    GramSpec,
    InequalityVerdict,
    VolumeReport,
    check_inequalities,
    gap_from_decomposition,
    h_weight,
    hessian_generalized_variance,
    k_coefficient,
    k_grid,
    observables_dependent,
    quadratic_form,
    robertson_bound,
    volume,
    volume_gap,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionError",
    "DensityMatrix",
    "ENSEMBLES",
    "GramSpec",
    "InequalityVerdict",
    "MetricContext",
    "MetricUndefinedError",
    "MonotoneFunction",
    "RLD",
    "RandomSpec",
    "RegistrationError",
    "SLD",
    "SweepConfig",
    "SweepSummary",
    "TildeUndefinedError",
    "VolumeReport",
    "WY",
    "as_hermitian",
    "builtin",
    "center",
    "check_inequalities",
    "covariance",
    "det_small",
    "f_correlation",
    "evaluate_sample",
    "format_record",
    "gap_from_decomposition",
    "h_weight",
    "hessian_generalized_variance",
    "icommutator",
    "identity_residual",
    "k_coefficient",
    "k_grid",
    "mean_superop_apply",
    "mean_table",
    "metric_context",
    "observables_dependent",
    "qfi_inner",
    "quadratic_form",
    "regular_builtins",
    "replay_record",
    "resolve_ensemble",
    "robertson_bound",
    "run_sweep",
    "sample_observables",
    "sample_pure_state",
    "sample_state",
    "scalar_mean",
    "spectral_decompose",
    "tilde",
    "tilde_order",
    "to_eigenframe",
    "volume",
    "volume_gap",
    "wyd",
]
