"""Independent oracles that the determinant kernel is tested against.

None of this runs in a sweep, a replay or a verdict; each function reaches
its quantity by a second route, so agreement with the kernel is evidence:

* the H*K decomposition of the gap det Cov - det Q for 1..8 observables:
  by Cauchy-Binet a sum over N-subsets of real frame coordinates of a weight
  H >= 0 times a squared N x N minor, every term a product of nonnegative
  factors and never through a Gram determinant,
* the monotone-metric inner product of tangent vectors, and with it the
  two-route identity (f(0)/2) <i[rho,A], i[rho,B]>_f = Corr_f(A, B) as a
  residual.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .matrices import (
    as_integer, icommutator, observable_stack, pair_indices, real_coordinates, to_eigenframe,
)
from .metrics import MetricContext, MetricUndefinedError, f_correlation
from .monotone import MonotoneFunction, mean_table, require_function, require_regular, tilde

DECOMPOSITION_MAX_TERMS = 10**6

_SUBSET_BATCH = 16384


def _weights(function: MonotoneFunction, u: np.ndarray, v: np.ndarray):
    """Per pair (u, v): c = (u+v)/2, q = f(0)(u-v)^2 / (2 m_f(u, v)) (exactly
    0 where u = v) and m = m_tilde(u, v), so that c = q + m with every factor
    >= 0.  m is read from f's closed-form tilde where it has one, which does
    not cancel; tilde(f)'s generic formula ((y+1) - (y-1)^2 f(0)/f(y))/2,
    read otherwise, does at small ratios, where both terms tend to 1/2."""
    tilde_f = function.tilde_closed_form or tilde(function)
    mean, tilde_mean = mean_table((function, tilde_f), np.stack([u, v], axis=-1))[..., 0, 1]
    square = function.value_at_zero * (u - v) ** 2
    q = np.divide(square, 2.0 * mean, out=np.zeros_like(square), where=u != v)
    return 0.5 * (u + v), q, tilde_mean


def _h_products(c, q, m) -> np.ndarray:
    """prod(c) - prod(q) over the last axis, built as H <- H c_k + (prod_{i<k} q_i) m_k
    from c = q + m: a sum of nonnegative products, so H >= 0 survives floating point."""
    h, p = np.zeros(c.shape[:-1]), np.ones(c.shape[:-1])
    for k in range(c.shape[-1]):
        h = h * c[..., k] + p * m[..., k]
        p = p * q[..., k]
    return h


def _squared_minors(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """det(x[:, S])^2 of a real (N, K) matrix for each row S of a (B, N) column array."""
    return np.linalg.det(np.moveaxis(x[:, columns], 0, 1)) ** 2


def h_weight(function: MonotoneFunction, args) -> float:
    """H coefficient prod (u+v)/2 - prod q(u, v) at N pairs (u, v) of positive arguments.

    Takes 2..16 arguments (u_1, v_1, ..., u_N, v_N).  The gap factors are
    q(u, v) = (u+v)/2 - m_tilde(u, v) = f(0)(u-v)^2 / (2 m_f(u, v)) and the
    weight is a sum of nonnegative products, so its strict positivity
    survives floating point even at extreme argument ratios where the direct
    product expansion cancels.
    """
    require_regular(function, "h_weight function")
    vals = np.array([float(v) for v in args])
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError(f"h_weight needs strictly positive finite arguments: {vals.tolist()}")
    if len(vals) % 2 or not 2 <= len(vals) <= 16:
        raise ValueError(f"h_weight takes an even count of 2..16 arguments, got {len(vals)}")
    return float(_h_products(*_weights(function, vals[0::2], vals[1::2])))


def k_coefficient(frames, indices) -> float:
    """K coefficient of N eigenframe matrices at a flat index tuple (i_1, j_1, ..., i_N, j_N).

    With M[h, k] = frames[h][i_k, j_k] this is the sum of det^2 over the 2^N
    ways of taking the real or the imaginary part of each column of M; for
    real frames it is det(M)^2.  For two frames (a, b) it equals
    |a_ij|^2 |b_kl|^2 + |a_kl|^2 |b_ij|^2 - 2 Re{a_ij b_ji} Re{a_kl b_lk}.
    """
    mats = [np.asarray(f) for f in frames]
    shape = mats[0].shape if mats else ()
    if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in mats):
        raise ValueError(f"need square frames of one shape, got {[m.shape for m in mats]}")
    if len(indices) != 2 * len(mats):
        raise ValueError("need two indices per frame")
    indices = [as_integer("entry index", i, 0, shape[0] - 1) for i in indices]
    n = len(mats)
    values = np.stack(mats)[:, indices[0::2], indices[1::2]]
    parts = np.concatenate([values.real, values.imag], axis=1)
    columns = np.array(list(itertools.product((0, n), repeat=n))) + np.arange(n)
    return float(np.sum(_squared_minors(parts, columns)))


def gap_from_decomposition(spec) -> float:
    """The determinant gap of a volumes.GramSpec through the explicit H*K sums.

    The eigenframes become real coordinates x_k in R^N, the d diagonal
    entries and sqrt(2) Re, sqrt(2) Im of the upper ones (the coordinates of
    the kernel's dependence test, matrices.real_coordinates), with weights c,
    q, m from the pair of eigenvalues each belongs to.  Then Cov = sum c_k x_k
    x_k^T and the metric Gram is sum q_k x_k x_k^T, so by Cauchy-Binet the gap
    is the sum over N-subsets S of H_S det(x_S)^2 with H_S = prod_S c -
    prod_S q >= 0.  The subsets are enumerated in batches, which bounds the
    work to C(d^2, N) <= DECOMPOSITION_MAX_TERMS terms.
    """
    n, dim = len(spec.observables), spec.state.dim
    terms = math.comb(dim * dim, n)
    if terms > DECOMPOSITION_MAX_TERMS:
        raise ValueError(f"decomposition needs C({dim * dim}, {n}) = {terms} terms, "
                         f"over the budget of {DECOMPOSITION_MAX_TERMS}")
    frames = np.stack([to_eigenframe(spec.state, o) for o in spec.observables])
    x = real_coordinates(frames)
    diag = np.arange(dim)
    rows, cols = pair_indices(dim, 1)
    lam = spec.state.eigenvalues
    u, v = lam[np.concatenate([diag, rows, rows])], lam[np.concatenate([diag, cols, cols])]
    c, q, m = _weights(spec.function, u, v)
    flat = itertools.chain.from_iterable(itertools.combinations(range(dim * dim), n))
    total = 0.0
    for _ in range(0, terms, _SUBSET_BATCH):
        s = np.fromiter(itertools.islice(flat, _SUBSET_BATCH * n), np.intp).reshape(-1, n)
        total += float(np.sum(_h_products(c[s], q[s], m[s]) * _squared_minors(x, s)))
    return total


def qfi_inner(ctx: MetricContext, x, y) -> float:
    """Monotone-metric inner product of two self-adjoint tangent vectors.

    The arguments are used as given (no centering); the intended inputs are
    commutators i[rho, A].  Requires a faithful state, otherwise the mean
    table has zero entries and the sum is undefined.
    """
    function = require_function(ctx.function, "qfi_inner function")
    vectors = observable_stack(ctx.state, (x, y))
    if not ctx.state.faithful:
        raise MetricUndefinedError("qfi inner product requires a faithful state")
    u = ctx.state.eigenvectors
    fx, fy = (u.conj().T @ v @ u for v in vectors)
    table = mean_table((function,), ctx.state.eigenvalues)[0]
    return float(np.sum(np.real(np.conj(fx) * fy) / table))


def identity_residual(ctx: MetricContext, a, b) -> float:
    """Absolute difference between the two routes to the correlation.

    Route one scales the inner product of the commutators by f(0)/2; route
    two is the tilde form computed by f_correlation.  Requires a faithful
    state and a regular function.
    """
    direct = 0.5 * ctx.function.value_at_zero * qfi_inner(
        ctx, icommutator(ctx.state, a), icommutator(ctx.state, b)
    )
    return abs(direct - f_correlation(ctx, a, b))
