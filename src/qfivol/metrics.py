"""Covariance, monotone-metric contexts, and the f-correlation.

For a state with spectrum lam and eigenframe matrices a, b (centered
observables in the eigenbasis) the three central quantities are

* Cov(A, B)      = sum_{hj} (lam_h + lam_j)/2 * Re{a_hj b_jh},
* <X, Y>_f       = sum_{hj} Re{conj(x_hj) y_hj} / m_f(lam_h, lam_j),
* Corr_f(A, B)   = Cov(A, B) - sum_{hj} m_tilde_f(lam_h, lam_j) Re{a_hj b_jh},

and the two-route identity (f(0)/2) <i[rho,A], i[rho,B]>_f = Corr_f(A, B)
connects them for regular f on faithful states.  This module computes the
covariance and the correlation, the kernel's route; the inner product and
the identity residual are test oracles and live in qfivol.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DensityMatrix, expectation_stack, frame_stack, observable_stack, pair_indices
from .monotone import MonotoneFunction, TildeUndefinedError, mean_table, tilde


class MetricUndefinedError(ValueError):
    """The metric inner product needs a faithful state."""


@dataclass(frozen=True)
class MetricContext:
    """A state paired with its tilde mean table for one function, the table
    the correlation route reads.

    ``mean_table_tilde`` is None for non-regular functions, which support
    the inner product (see qfivol.oracles) but not the correlation route.
    """

    state: DensityMatrix
    function: MonotoneFunction
    mean_table_tilde: np.ndarray | None


def metric_context(state: DensityMatrix, function: MonotoneFunction) -> MetricContext:
    table_t = (
        mean_table(tilde(function), state.eigenvalues) if function.regular else None
    )
    return MetricContext(state, function, table_t)


def batched_grams(eigenvalues, frames, tables):
    """Covariance Grams (B, n, n) and, per tilde mean table, metric-bound
    Grams (F, B, n, n) with entries Cov(A_h, A_j) and Corr_f(A_h, A_j).

    ``eigenvalues`` is (B, d), ``frames`` a (B, n, d, d) eigenframe stack and
    ``tables`` an iterable of F (B, d, d) tilde mean tables, used one at a
    time.  The overlaps of all n(n+1)/2 pairs h <= j are one stack; each
    entry sums its matrix's terms in the order a single ``np.sum`` uses, so
    it does not depend on the batch.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    weights = 0.5 * (lam[:, :, None] + lam[:, None, :])
    batch, n = frames.shape[:2]
    rows, cols = pair_indices(n)
    overlap = np.real(frames.take(rows, axis=1) * frames.take(cols, axis=1).swapaxes(-1, -2))
    c = _entry_sums(weights[:, None] * overlap)
    # a table at a time bounds the temporaries at (B, P, d, d), P = n(n+1)/2
    q = np.reshape([c - _entry_sums(table[:, None] * overlap) for table in tables], (-1, *c.shape))
    cov, qfi = np.empty((batch, n, n)), np.empty((len(q), batch, n, n))
    cov[:, rows, cols] = cov[:, cols, rows] = c
    qfi[:, :, rows, cols] = qfi[:, :, cols, rows] = q
    return cov, qfi


def _entry_sums(x):
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]).sum(axis=-1)


def _pair_frames(state: DensityMatrix, a, b):
    obs = observable_stack(state.dim, (a, b))[None]
    means = expectation_stack(state.matrix[None], obs)
    return frame_stack(state.eigenvectors[None], obs, means)


def covariance(state: DensityMatrix, a, b) -> float:
    """Symmetrized covariance Re Tr(rho A0 B0); centers both arguments."""
    cov, _ = batched_grams(state.eigenvalues[None], _pair_frames(state, a, b), ())
    return float(cov[0, 0, 1])


def f_correlation(ctx: MetricContext, a, b) -> float:
    """Covariance minus the tilde-mean weighted frame overlap.

    Defined for any state (zero eigenvalues contribute exact zeros through
    the tilde table) but only for regular functions.  For pure states the
    subtracted sum vanishes and the correlation equals the covariance.
    """
    if ctx.mean_table_tilde is None:
        raise TildeUndefinedError(
            f"f-correlation undefined for non-regular {ctx.function.fid}"
        )
    _, qfi = batched_grams(
        ctx.state.eigenvalues[None],
        _pair_frames(ctx.state, a, b),
        [ctx.mean_table_tilde[None]],
    )
    return float(qfi[0, 0, 0, 1])
