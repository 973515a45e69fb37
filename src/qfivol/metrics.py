"""Covariance, monotone-metric contexts, and the f-correlation.

For a state with spectrum lam and eigenframe matrices a, b (centered
observables in the eigenbasis) the three central quantities are

* Cov(A, B)      = sum_{hj} (lam_h + lam_j)/2 * Re{a_hj b_jh},
* <X, Y>_f       = sum_{hj} Re{conj(x_hj) y_hj} / m_f(lam_h, lam_j),
* Corr_f(A, B)   = Cov(A, B) - sum_{hj} m_tilde_f(lam_h, lam_j) Re{a_hj b_jh},

and the two-route identity (f(0)/2) <i[rho,A], i[rho,B]>_f = Corr_f(A, B)
connects them for regular f on faithful states.  The covariance and the
correlation are single-pair reads of the evaluation kernel's Grams
(qfivol.volumes.coordinate_grams, which forms the correlation with pair
weights f(0)(lam_u - lam_v)^2 / (2 m_f(lam_u, lam_v)) and no subtraction);
the inner product and the identity residual are test oracles and live in
qfivol.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import DensityMatrix, observable_stack
from .monotone import MonotoneFunction, require_regular
from .volumes import coordinate_grams


class MetricUndefinedError(ValueError):
    """The metric inner product needs a faithful state."""


@dataclass(frozen=True)
class MetricContext:
    """A state paired with one monotone function.

    Non-regular functions support the inner product (see qfivol.oracles) but
    not the correlation route.
    """

    state: DensityMatrix
    function: MonotoneFunction


def metric_context(state: DensityMatrix, function: MonotoneFunction) -> MetricContext:
    return MetricContext(state, function)


def require_context(ctx, role: str) -> MetricContext:
    """``ctx`` itself if it is a MetricContext.  The one type check of a
    context argument: every public function that takes a context passes it
    here before it reads any of its fields, and ``role`` names that
    argument in the error."""
    if not isinstance(ctx, MetricContext):
        raise ValueError(f"{role} must be a MetricContext, got {type(ctx).__name__}")
    return ctx


def _pair_grams(state: DensityMatrix, a, b, functions):
    """The (1 + F, 1, 2, 2) Grams of (a, b) on ``state``: the kernel's
    weighted product alone, with no determinant, Robertson matrix or flag."""
    obs = observable_stack(state, (a, b))
    return coordinate_grams(state.eigenvalues[None], state.eigenvectors[None], obs[None], functions)[1]


def covariance(state: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho A0 B0); centers both arguments."""
    return float(_pair_grams(state, a, b, ())[0, 0, 0, 1])


def f_correlation(ctx: MetricContext, a, b) -> float:
    """Covariance minus the tilde-mean weighted frame overlap, read as the
    metric Gram entry sum_{u<v} q_f(lam_u, lam_v) 2 Re(a_uv conj(b_uv)).

    Defined for any state but only for regular functions.  A pair of one
    zero and one nonzero eigenvalue weighs exactly what the covariance gives
    it when f's evaluator returns exactly ``value_at_zero`` at 0, as every
    builtin's does (see volumes.coordinate_grams); then for pure states the
    correlation differs from the covariance only by the centered diagonal
    term lam_1 a_11 b_11, which vanishes up to rounding.
    """
    function = require_regular(require_context(ctx, "f-correlation context").function, "f-correlation function")
    return float(_pair_grams(ctx.state, a, b, (function,))[1, 0, 0, 1])
