"""Independent oracles that the determinant kernel is tested against.

None of this runs in a sweep, a replay or a verdict; each function reaches
its quantity by a second route, so agreement with the kernel is evidence:

* the explicit H*K decomposition of the gap det Cov - det Q as a
  positively-weighted sum over index tuples (N <= 3), term by term and never
  through a Gram determinant,
* the monotone-metric inner product of tangent vectors and the scalar-mean
  superoperator, and with them the two-route identity
  (f(0)/2) <i[rho,A], i[rho,B]>_f = Corr_f(A, B) as a residual.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .matrices import as_hermitian, icommutator, to_eigenframe
from .metrics import MetricContext, MetricUndefinedError, f_correlation
from .monotone import MonotoneFunction, TildeUndefinedError, mean_table, scalar_mean, tilde

DECOMPOSITION_MAX_DIM = 6

_PERMUTATIONS3 = tuple(itertools.permutations((0, 1, 2)))
_CYCLIC3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _half_square_gap(function: MonotoneFunction, u: float, v: float) -> float:
    # (u+v)/2 - m_tilde(u, v) in its cancellation-free form
    if u == v:
        return 0.0
    return function.value_at_zero * (u - v) ** 2 / (2.0 * scalar_mean(function, u, v))


def h_weight(function: MonotoneFunction, args) -> float:
    """H coefficient at 4 (order 2) or 6 (order 3) positive arguments.

    Evaluated as a sum of nonnegative products, using
    (u+v)/2 - m_tilde(u,v) = f(0)(u-v)^2 / (2 m_f(u,v)) for the gap factors,
    so the strict-positivity guarantee survives floating point even at
    extreme argument ratios where the direct product expansion cancels.
    """
    vals = [float(v) for v in args]
    if any(not (math.isfinite(v) and v > 0.0) for v in vals):
        raise ValueError(f"h_weight needs strictly positive finite arguments: {vals}")
    if not function.regular:
        raise TildeUndefinedError("h_weight needs a regular function")
    ft = tilde(function)
    if len(vals) == 4:
        x, y, w, z = vals
        m1 = scalar_mean(ft, x, y)
        m2 = scalar_mean(ft, w, z)
        d1 = _half_square_gap(function, x, y)
        d2 = _half_square_gap(function, w, z)
        return d1 * m2 + d2 * m1 + m1 * m2
    if len(vals) == 6:
        x, y, h, k, w, z = vals
        s1, s2, s3 = 0.5 * (x + y), 0.5 * (h + k), 0.5 * (w + z)
        m1 = scalar_mean(ft, x, y)
        m2 = scalar_mean(ft, h, k)
        m3 = scalar_mean(ft, w, z)
        d1 = _half_square_gap(function, x, y)
        d2 = _half_square_gap(function, h, k)
        d3 = _half_square_gap(function, w, z)
        return s1 * m3 * d2 + s3 * m2 * d1 + s2 * m1 * d3 + m1 * m2 * m3
    raise ValueError(f"h_weight takes 4 or 6 arguments, got {len(vals)}")


def k_coefficient(frames, indices) -> float:
    """K coefficient for 2 or 3 eigenframe matrices at a flat index tuple.

    For two frames (a, b) and indices (i, j, k, l) this is
    |a_ij|^2 |b_kl|^2 + |a_kl|^2 |b_ij|^2 - 2 Re{a_ij b_ji} Re{a_kl b_lk};
    for three frames the signed permutation sum over the three index pairs.
    """
    if len(indices) != 2 * len(frames):
        raise ValueError("need two indices per frame")
    pairs = [(int(indices[2 * i]), int(indices[2 * i + 1])) for i in range(len(frames))]
    if len(frames) == 2:
        a, b = frames
        (p1, p2) = pairs
        qa1, qa2 = abs(a[p1]) ** 2, abs(a[p2]) ** 2
        qb1, qb2 = abs(b[p1]) ** 2, abs(b[p2]) ** 2
        pab1 = float(np.real(a[p1] * b[p1[1], p1[0]]))
        pab2 = float(np.real(a[p2] * b[p2[1], p2[0]]))
        return qa1 * qb2 + qa2 * qb1 - 2.0 * pab1 * pab2
    if len(frames) == 3:
        a, b, c = frames
        q = [[float(abs(f[p]) ** 2) for p in pairs] for f in frames]

        def rev(f1, f2, p):
            return float(np.real(f1[p] * f2[p[1], p[0]]))

        pab = [rev(a, b, p) for p in pairs]
        pac = [rev(a, c, p) for p in pairs]
        pbc = [rev(b, c, p) for p in pairs]
        total = 0.0
        for s in _PERMUTATIONS3:
            total += q[0][s[0]] * q[1][s[1]] * q[2][s[2]]
            total += 2.0 * pac[s[0]] * pab[s[1]] * pbc[s[2]]
        for s in _CYCLIC3:
            total -= 2.0 * (
                q[0][s[0]] * pbc[s[1]] * pbc[s[2]]
                + q[1][s[0]] * pac[s[1]] * pac[s[2]]
                + q[2][s[0]] * pab[s[1]] * pab[s[2]]
            )
        return total
    raise ValueError("k_coefficient supports 2 or 3 frames")


def _axis3(vec: np.ndarray, axis: int) -> np.ndarray:
    shape = [1, 1, 1]
    shape[axis] = vec.size
    return vec.reshape(shape)


def k_grid(frames) -> np.ndarray:
    """All K coefficients over flattened index pairs (row-major (i, j)).

    Returns a P x P (order 2) or P x P x P (order 3) array with P = dim^2;
    entry [p1, p2(, p3)] is k_coefficient at those pairs.
    """
    flats = [np.asarray(f) for f in frames]
    if len(flats) == 2:
        a, b = flats
        qa = (np.abs(a) ** 2).reshape(-1)
        qb = (np.abs(b) ** 2).reshape(-1)
        pab = np.real(a * b.T).reshape(-1)
        return np.outer(qa, qb) + np.outer(qb, qa) - 2.0 * np.outer(pab, pab)
    if len(flats) == 3:
        a, b, c = flats
        qa = (np.abs(a) ** 2).reshape(-1)
        qb = (np.abs(b) ** 2).reshape(-1)
        qc = (np.abs(c) ** 2).reshape(-1)
        pab = np.real(a * b.T).reshape(-1)
        pac = np.real(a * c.T).reshape(-1)
        pbc = np.real(b * c.T).reshape(-1)
        out = np.zeros((qa.size,) * 3)
        for s in _PERMUTATIONS3:
            out += _axis3(qa, s[0]) * _axis3(qb, s[1]) * _axis3(qc, s[2])
            out += 2.0 * _axis3(pac, s[0]) * _axis3(pab, s[1]) * _axis3(pbc, s[2])
        for s in _CYCLIC3:
            out -= 2.0 * (
                _axis3(qa, s[0]) * _axis3(pbc, s[1]) * _axis3(pbc, s[2])
                + _axis3(qb, s[0]) * _axis3(pac, s[1]) * _axis3(pac, s[2])
                + _axis3(qc, s[0]) * _axis3(pab, s[1]) * _axis3(pab, s[2])
            )
        return out
    raise ValueError("k_grid supports 2 or 3 frames")


def gap_from_decomposition(spec) -> float:
    """The determinant gap of a volumes.GramSpec through the explicit H*K sums.

    This is a genuinely independent route: the full quadruple/sextuple index
    sum is evaluated term by term (vectorized over the index grid), never
    through Gram determinants.  Requires N <= 3, a faithful state, and
    dim <= DECOMPOSITION_MAX_DIM to keep the grid small.
    """
    n = len(spec.observables)
    state = spec.state
    if n > 3:
        raise ValueError("decomposition is available for 1, 2, or 3 observables")
    if not state.faithful:
        raise MetricUndefinedError("decomposition requires a faithful state")
    if state.dim > DECOMPOSITION_MAX_DIM:
        raise ValueError(f"decomposition limited to dim <= {DECOMPOSITION_MAX_DIM}")
    lam = state.eigenvalues
    frames = [to_eigenframe(state, o) for o in spec.observables]
    tilde_tab = mean_table(tilde(spec.function), lam)
    if n == 1:
        return float(np.sum(tilde_tab * np.abs(frames[0]) ** 2))
    f_tab = mean_table(spec.function, lam)
    f0 = spec.function.value_at_zero
    gap_tab = f0 * (lam[:, None] - lam[None, :]) ** 2 / (2.0 * f_tab)
    s = (0.5 * (lam[:, None] + lam[None, :])).reshape(-1)
    d = gap_tab.reshape(-1)
    m = tilde_tab.reshape(-1)
    kv = k_grid(frames)
    if n == 2:
        hv = np.outer(d, m) + np.outer(m, d) + np.outer(m, m)
        return 0.5 * float(np.sum(hv * kv))
    hv = (
        _axis3(s, 0) * _axis3(m, 2) * _axis3(d, 1)
        + _axis3(d, 0) * _axis3(m, 1) * _axis3(s, 2)
        + _axis3(m, 0) * _axis3(s, 1) * _axis3(d, 2)
        + _axis3(m, 0) * _axis3(m, 1) * _axis3(m, 2)
    )
    return float(np.sum(hv * kv)) / 6.0


def mean_superop_apply(ctx: MetricContext, observable, use_tilde: bool = False) -> np.ndarray:
    """Apply the scalar-mean multiplier to a centered observable.

    In the eigenframe each entry (h, j) is scaled by the mean of lam_h and
    lam_j; the result is mapped back to the original basis and exactly
    symmetrized.  With use_tilde=False and [rho, A] = 0 this returns rho A0.
    """
    table = ctx.mean_table_tilde if use_tilde else ctx.mean_table_f
    if table is None:
        raise TildeUndefinedError(
            f"tilde mean table undefined for non-regular {ctx.function.fid}"
        )
    frame = to_eigenframe(ctx.state, observable)
    u = ctx.state.eigenvectors
    out = u @ (table * frame) @ u.conj().T
    return (out + out.conj().T) / 2


def qfi_inner(ctx: MetricContext, x, y) -> float:
    """Monotone-metric inner product of two self-adjoint tangent vectors.

    The arguments are used as given (no centering); the intended inputs are
    commutators i[rho, A].  Requires a faithful state, otherwise the mean
    table has zero entries and the sum is undefined.
    """
    if not ctx.state.faithful:
        raise MetricUndefinedError("qfi inner product requires a faithful state")
    u = ctx.state.eigenvectors
    fx = u.conj().T @ as_hermitian(x) @ u
    fy = u.conj().T @ as_hermitian(y) @ u
    return float(np.sum(np.real(np.conj(fx) * fy) / ctx.mean_table_f))


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
