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
    icommutator,
    to_eigenframe,
)
from .metrics import (
    MetricContext,
    MetricUndefinedError,
    covariance,
    f_correlation,
    metric_context,
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
from .oracles import identity_residual, k_coefficient
from .sampling import (
    ENSEMBLES,
    RandomSpec,
)
from .sweep import (
    SweepConfig,
    SweepSummary,
    replay_record,
    run_sweep,
)
from .volumes import (
    GramSpec,
    InequalityVerdict,
    VolumeReport,
    check_inequalities,
    observables_dependent,
    robertson_bound,
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
    "builtin",
    "check_inequalities",
    "covariance",
    "f_correlation",
    "icommutator",
    "identity_residual",
    "k_coefficient",
    "mean_table",
    "metric_context",
    "observables_dependent",
    "regular_builtins",
    "replay_record",
    "robertson_bound",
    "run_sweep",
    "scalar_mean",
    "tilde",
    "tilde_order",
    "to_eigenframe",
    "volume_gap",
    "wyd",
]
