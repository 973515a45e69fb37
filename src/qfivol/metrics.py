"""Covariance, monotone-metric contexts, and the f-correlation.

For a state with spectrum lam and eigenframe matrices a, b (centered
observables in the eigenbasis) the three central quantities are

* Cov(A, B)      = sum_{hj} (lam_h + lam_j)/2 * Re{a_hj b_jh},
* <X, Y>_f       = sum_{hj} Re{conj(x_hj) y_hj} / m_f(lam_h, lam_j),
* Corr_f(A, B)   = Cov(A, B) - sum_{hj} m_tilde_f(lam_h, lam_j) Re{a_hj b_jh},

and the two-route identity (f(0)/2) <i[rho,A], i[rho,B]>_f = Corr_f(A, B)
connects them for regular f on faithful states.  The covariance and the
correlation are single-pair reads of the evaluation kernel's Grams
(qfivol.volumes.evaluate_batch, the only code that forms a Gram matrix); the
inner product and the identity residual are test oracles and live in
qfivol.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import DensityMatrix, observable_stack
from .monotone import MonotoneFunction, require_regular
from .volumes import evaluate_one


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


def covariance(state: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho A0 B0); centers both arguments."""
    return float(evaluate_one(state, observable_stack(state, (a, b)), ()).cov_gram[0, 0, 1])


def f_correlation(ctx: MetricContext, a, b) -> float:
    """Covariance minus the tilde-mean weighted frame overlap.

    Defined for any state but only for regular functions.  Zero eigenvalues
    contribute exact zeros through the tilde table when f's evaluator
    returns exactly ``value_at_zero`` at 0, as every builtin's does (see
    monotone.mean_table); then for pure states the subtracted sum vanishes
    and the correlation equals the covariance.
    """
    function = require_regular(ctx.function, "f-correlation function")
    obs = observable_stack(ctx.state, (a, b))
    return float(evaluate_one(ctx.state, obs, (function,)).qfi_gram[0, 0, 0, 1])
