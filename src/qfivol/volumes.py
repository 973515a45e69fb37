"""Gram determinant volumes, the covariance-metric gap, and its decomposition.

For observables A_1..A_N and a regular function f, two Gram matrices are
compared: the covariance Gram {Cov(A_h, A_j)} and the metric-bound Gram
{Cov(A_h, A_j) - sum m_tilde(lam_u, lam_v) Re{a_uv b_vu}}, whose determinant
equals that of the scaled commutator inner products.  The gap between the
two determinants is nonnegative for every N, so the covariance ellipsoid
volume dominates the metric one: proved by A. Andai, J. Math. Phys. 49,
012106 (2008), and by P. Gibilisco, F. Hiai and D. Petz, IEEE Trans. Inf.
Theory 55, 439 (2009).

Every entry point (sweeps, replay, volume_gap, check_inequalities) computes
its Grams, determinants and verdicts through one kernel, evaluate_batch, over
a stack of samples.  The same gap admits an explicit decomposition as a
positively-weighted sum sum H * K over index tuples, which this module
evaluates independently of the determinant route as a cross-check oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    DensityMatrix,
    as_hermitian,
    center,
    det_small,
    expectation_stack,
    frame_stack,
    pair_indices,
    to_eigenframe,
    trace_product,
)
from .metrics import MetricUndefinedError, batched_grams
from .monotone import (
    MonotoneFunction,
    TildeUndefinedError,
    mean_table,
    scalar_mean,
    tilde,
    tilde_order,
)

MAX_OBSERVABLES = 8
DECOMPOSITION_MAX_DIM = 6
MAIN_INEQUALITY_SLACK = 1e-10
EQUALITY_RTOL = 1e-8
DEPENDENCE_SV_TOL = 1e-8
MONOTONICITY_SLACK = 1e-10

_PERMUTATIONS3 = tuple(itertools.permutations((0, 1, 2)))
_CYCLIC3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class GramSpec:
    """A state, a tuple of observables, and a regular monotone function."""

    state: DensityMatrix
    observables: tuple
    function: MonotoneFunction

    def __post_init__(self):
        obs = tuple(np.asarray(o) for o in self.observables)
        object.__setattr__(self, "observables", obs)
        if not 1 <= len(obs) <= MAX_OBSERVABLES:
            raise ValueError(f"need 1..{MAX_OBSERVABLES} observables, got {len(obs)}")
        for o in obs:
            if o.shape != (self.state.dim, self.state.dim):
                raise ValueError(
                    f"observable shape {o.shape} does not match dim {self.state.dim}"
                )
        if not self.function.regular:
            raise TildeUndefinedError("gram volumes need a regular function")


@dataclass(frozen=True)
class VolumeReport:
    """Both Gram matrices, their determinants, and the gap between them."""

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: float
    qfi_det: float
    gap: float
    robertson_det: float | None
    decomposition_gap: float | None


@dataclass(frozen=True)
class BatchReport:
    """Kernel output for B samples and F functions.

    Arrays indexed by function lead with F, then B.  ``rank_deficient`` says
    that n exceeds commutator_rank, so every metric Gram in the batch is
    singular by theory and its volume order carries no information.
    """

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: np.ndarray
    qfi_det: np.ndarray
    gap: np.ndarray
    scale: np.ndarray
    volume_qfi: np.ndarray
    robertson_det: np.ndarray | None
    dependent: np.ndarray | None
    main_holds: np.ndarray
    equality_consistent: np.ndarray | None
    rank_deficient: bool

    def violations(self, pairs) -> np.ndarray:
        """Per sample, how many (i, j) in ``pairs`` break volume_i >= volume_j."""
        count = np.zeros(self.cov_det.shape, dtype=int)
        if not self.rank_deficient:
            for i, j in pairs:
                count += self.volume_qfi[i] < self.volume_qfi[j] - MONOTONICITY_SLACK
        return count


def commutator_rank(dim: int, real: bool) -> int:
    """Most linearly independent commutators i[rho, A] there can be: in rho's
    eigenbasis their diagonal is zero, leaving d^2 - d real dimensions, or
    d(d-1)/2 when rho and every A are real symmetric."""
    return dim * (dim - 1) // 2 if real else dim * dim - dim


def _volume(det):
    # sqrt(max(0, det)) with Python's max semantics: -0.0 and NaN give 0.0
    return np.sqrt(np.where(det > 0.0, det, 0.0))


def evaluate_batch(
    rho, eigenvalues, eigenvectors, observables, functions, *, dependence: bool = True
) -> BatchReport:
    """The evaluation kernel: Grams, determinants and verdicts for a stack.

    ``rho`` and ``eigenvectors`` are (B, d, d) stacks and ``eigenvalues`` a
    (B, d) stack of validated states (see matrices.density_stack);
    ``observables`` is a (B, n, d, d) stack of exactly self-adjoint
    matrices; ``functions`` are regular.  With ``dependence`` False the
    dependence SVD is skipped and ``dependent`` and ``equality_consistent``
    are None.  Every per-sample result is bit-identical whatever the batch it
    came in.
    """
    n, dim = observables.shape[1], eigenvalues.shape[-1]
    means = expectation_stack(rho, observables)
    # a real identity shifts complex matrices exactly as a complex one would
    dependent = _dependent(observables - means * np.eye(dim)) if dependence else None
    frames = frame_stack(eigenvectors, observables, means)
    tables = np.array([mean_table(tilde(f), eigenvalues) for f in functions])
    cov, qfi = batched_grams(eigenvalues, frames, tables)
    dets = det_small(np.concatenate([cov[None], qfi]))
    cov_det, qfi_det = dets[0], dets[1:]
    gap = cov_det - qfi_det
    scale = np.where(np.abs(cov_det) > 1.0, np.abs(cov_det), 1.0)
    equal = None if dependent is None else ~dependent | (np.abs(gap) <= EQUALITY_RTOL * scale)
    real = not (np.iscomplexobj(rho) or np.iscomplexobj(observables))
    return BatchReport(
        cov_gram=cov,
        qfi_gram=qfi,
        cov_det=cov_det,
        qfi_det=qfi_det,
        gap=gap,
        scale=scale,
        volume_qfi=_volume(qfi_det),
        robertson_det=_robertson(rho, observables) if n % 2 == 0 else None,
        dependent=dependent,
        main_holds=gap >= -MAIN_INEQUALITY_SLACK * scale,
        equality_consistent=equal,
        rank_deficient=n > commutator_rank(dim, real),
    )


def _evaluate_spec(spec: GramSpec, functions, dependence: bool = True) -> BatchReport:
    """Batch-of-one kernel call; the observables are validated here, once."""
    state, observables = spec.state, as_hermitian(np.stack(spec.observables))[None]
    return evaluate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
                          observables, functions, dependence=dependence)


def _volume_report(out: BatchReport, decomposition=None) -> VolumeReport:
    rob = None if out.robertson_det is None else float(out.robertson_det[0])
    dets = (float(out.cov_det[0]), float(out.qfi_det[0, 0]), float(out.gap[0, 0]))
    return VolumeReport(out.cov_gram[0], out.qfi_gram[0, 0], *dets, rob, decomposition)


def volume_gap(spec: GramSpec, *, with_decomposition: bool = False) -> VolumeReport:
    """Fill both Grams, both determinants, and the gap.

    The Robertson determinant is included for even observable counts.  The
    H*K decomposition is only computed on request; it is the expensive
    independent route and is restricted to N <= 3, faithful states, and
    dim <= 6.
    """
    out = _evaluate_spec(spec, (spec.function,), dependence=False)
    return _volume_report(out, gap_from_decomposition(spec) if with_decomposition else None)


def volume(spec: GramSpec, kind: str = "covariance") -> float:
    """sqrt(max(0, det)) of the chosen Gram matrix ('covariance' or 'qfi')."""
    if kind not in ("covariance", "qfi"):
        raise ValueError(f"kind must be 'covariance' or 'qfi', got {kind!r}")
    report = volume_gap(spec)
    det = report.cov_det if kind == "covariance" else report.qfi_det
    return math.sqrt(max(0.0, det))


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


def gap_from_decomposition(spec: GramSpec) -> float:
    """The determinant gap evaluated through the explicit H*K sums.

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


def robertson_bound(state: DensityMatrix, observables) -> float:
    """Determinant of the averaged commutator matrix; exactly 0 for odd N.

    The matrix entries are -(i/2) Tr(rho [A_h, A_j]), real and antisymmetric,
    so the determinant vanishes identically for odd N and gives the classical
    lower bound for even N.
    """
    if len(observables) % 2 == 1:
        return 0.0
    return float(_robertson(state.matrix[None], as_hermitian(np.stack(observables))[None])[0])


def _robertson(rho, observables) -> np.ndarray:
    """Robertson determinants of a (B, d, d) state stack and a (B, n, d, d)
    observable stack: entries -(i/2) Tr(rho [A_h, A_j]) = Im Tr(rho [A_h, A_j]) / 2,
    one stacked trace_product over the commutators of all pairs h < j."""
    n = observables.shape[1]
    rows, cols = pair_indices(n, 1)
    # take leaves the stacks C-contiguous, keeping per-pair trace bits (see trace_product)
    a, b = observables.take(rows, axis=1), observables.take(cols, axis=1)
    commutators = a @ b - b @ a
    states = np.repeat(rho[:, None], len(rows), axis=1)
    r = np.zeros((len(rho), n, n))
    r[:, rows, cols] = 0.5 * trace_product(states, commutators).imag
    r[:, cols, rows] = -r[:, rows, cols]
    return det_small(r)


def observables_dependent(state: DensityMatrix, observables) -> bool:
    """Real-linear dependence of the centered observables.

    Stacks [Re, Im] vectorizations and thresholds the smallest singular
    value at DEPENDENCE_SV_TOL; self-adjoint matrices form a real vector
    space, so dependence is over real coefficients.
    """
    centered = np.stack([center(state, o) for o in observables])
    return bool(_dependent(centered[None])[0])


def _dependent(centered) -> np.ndarray:
    # centered: (B, n, d, d); one singular value decomposition per sample
    flat = centered.reshape(*centered.shape[:2], -1)
    rows = np.concatenate([np.real(flat), np.imag(flat)], axis=-1)
    return np.linalg.svd(rows, compute_uv=False)[:, -1] < DEPENDENCE_SV_TOL


def order_pairs(functions) -> tuple:
    """Resolvable ordered pairs (i, j) meaning volume_i >= volume_j must hold."""
    pairs = []
    for i in range(len(functions)):
        for j in range(i + 1, len(functions)):
            order = tilde_order(functions[i], functions[j])
            if order.first_le_second:
                pairs.append((i, j))
            if order.second_le_first:
                pairs.append((j, i))
    return tuple(pairs)


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome flags for one configuration; every outcome is data.

    candidate_counterexample mirrors (not main_holds): a negative gap beyond
    tolerance is recorded for later replay rather than raised.  The
    inequality is proved for every N (see the module docstring), so a
    candidate points at a numerical defect, not at a counterexample.
    """

    report: VolumeReport
    scale: float
    main_holds: bool
    dependent: bool
    equality_consistent: bool
    monotonicity_holds: bool | None
    candidate_counterexample: bool


def check_inequalities(spec: GramSpec, partner: MonotoneFunction | None = None) -> InequalityVerdict:
    """Evaluate the volume inequality and its side conditions for one spec.

    main_holds:     gap >= -1e-10 * scale with scale = max(1, |cov_det|).
    dependent:      centered observables numerically dependent.
    equality_consistent: dependence implies |gap| <= 1e-8 * scale (the
                    proved direction of the equality characterization).
    monotonicity_holds: with a partner g, the qfi volumes respect every
                    grid-resolvable tilde ordering; None when incomparable,
                    and None when N exceeds commutator_rank, where both
                    metric Grams are singular by theory.
    The function and its partner share one kernel call.
    """
    functions = (spec.function,) if partner is None else (spec.function, partner)
    out = _evaluate_spec(spec, functions)
    pairs = order_pairs(functions) if partner is not None else ()
    mono = None
    if pairs and not out.rank_deficient:
        mono = bool(out.violations(pairs)[0] == 0)
    main = bool(out.main_holds[0, 0])
    return InequalityVerdict(
        report=_volume_report(out),
        scale=float(out.scale[0]),
        main_holds=main,
        dependent=bool(out.dependent[0]),
        equality_consistent=bool(out.equality_consistent[0, 0]),
        monotonicity_holds=mono,
        candidate_counterexample=not main,
    )


def hessian_generalized_variance(probabilities, x, y) -> np.ndarray:
    """Hessian of p -> Var_p(X) Var_p(Y) - Cov_p(X, Y)^2, unconstrained.

    Partial derivatives are taken in the ambient coordinates p_i without a
    simplex constraint; moments are linear in p, so second partials of the
    objective collect into the closed form below.  The result is symmetric
    and generally indefinite.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if p.ndim != 1 or xv.shape != p.shape or yv.shape != p.shape:
        raise ValueError("probabilities, x, y must be 1-d arrays of equal length")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    ex = float(p @ xv)
    ey = float(p @ yv)
    var_x = float(p @ xv**2) - ex**2
    var_y = float(p @ yv**2) - ey**2
    cov = float(p @ (xv * yv)) - ex * ey
    u = xv**2 - 2.0 * ex * xv
    v = yv**2 - 2.0 * ey * yv
    w = xv * yv - ey * xv - ex * yv
    return (
        -2.0 * var_y * np.outer(xv, xv)
        - 2.0 * var_x * np.outer(yv, yv)
        + np.outer(u, v)
        + np.outer(v, u)
        - 2.0 * np.outer(w, w)
        + 2.0 * cov * (np.outer(xv, yv) + np.outer(yv, xv))
    )


def quadratic_form(matrix, vector) -> float:
    """v^T M v for a real matrix and vector."""
    m = np.asarray(matrix, dtype=np.float64)
    v = np.asarray(vector, dtype=np.float64)
    return float(v @ m @ v)
