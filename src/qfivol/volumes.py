"""Gram determinant volumes, the covariance-metric gap, and its verdicts.

For observables A_1..A_N and a regular function f, two Gram matrices are
compared: the covariance Gram {Cov(A_h, A_j)} and the metric-bound Gram
{Cov(A_h, A_j) - sum m_tilde(lam_u, lam_v) Re{a_uv b_vu}}, whose determinant
equals that of the scaled commutator inner products.  The gap between the
two determinants is nonnegative for every N, so the covariance ellipsoid
volume dominates the metric one: proved by A. Andai, J. Math. Phys. 49,
012106 (2008), and by P. Gibilisco, F. Hiai and D. Petz, IEEE Trans. Inf.
Theory 55, 439 (2009).

Every entry point (sweeps, replay, volume_gap, check_inequalities,
robertson_bound, observables_dependent, and the covariance and correlation
of qfivol.metrics) computes its Grams, determinants and verdicts through one
kernel, evaluate_batch, over a stack of samples; no other module forms a
Gram matrix.  Its function-dependent work is one pass: one mean_table call
for the tilde tables of all functions (none without functions), and one
(1 + F, B, n, n) Gram array that det_small reads as it is.  Its dependence
flag thresholds the smallest singular value of the observables' real
coordinates: a Gram-determinant screen decides most samples and a stacked
SVD the rest, with the flags the SVD alone would give (see _dependent).
The kernel imports only qfivol.matrices and qfivol.monotone.
The independent H * K decomposition of the gap lives with the other test
oracles in qfivol.oracles, which the kernel never imports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    DensityMatrix,
    det_small,
    expectation_stack,
    frame_stack,
    observable_stack,
    pair_indices,
    pair_slots,
    real_coordinates,
    trace_product,
)
from .monotone import MonotoneFunction, mean_table, require_regular, tilde, tilde_order

MAIN_INEQUALITY_SLACK = 1e-10
EQUALITY_RTOL = 1e-8
DEPENDENCE_SV_TOL = 1e-8
# safety factor on DEPENDENCE_SV_TOL before the Gram screen clears a sample
_SCREEN_MARGIN = 1e3
MONOTONICITY_SLACK = 1e-10


@dataclass(frozen=True)
class GramSpec:
    """A state, its observables, and a regular monotone function.

    ``observables`` may be any sequence of matrices; it is stored as one
    validated, exactly self-adjoint (n, d, d) array.
    """

    state: DensityMatrix
    observables: np.ndarray
    function: MonotoneFunction

    def __post_init__(self):
        object.__setattr__(self, "observables", observable_stack(self.state, self.observables))
        require_regular(self.function, "GramSpec function")


@dataclass(frozen=True)
class VolumeReport:
    """Both Gram matrices, their determinants, and the gap between them."""

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: float
    qfi_det: float
    gap: float
    robertson_det: float | None


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
    dependent: np.ndarray
    main_holds: np.ndarray
    equality_consistent: np.ndarray
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


def evaluate_batch(rho, eigenvalues, eigenvectors, observables, functions) -> BatchReport:
    """The evaluation kernel: Grams, determinants and verdicts for a stack.

    ``rho`` and ``eigenvectors`` are (B, d, d) stacks and ``eigenvalues`` a
    (B, d) stack of validated states (see matrices.density_stack);
    ``observables`` is a (B, n, d, d) stack of exactly self-adjoint
    matrices; ``functions`` are regular.  Every per-sample result is
    bit-identical whatever the batch it came in.
    """
    n, dim = observables.shape[1], eigenvalues.shape[-1]
    real = not (np.iscomplexobj(rho) or np.iscomplexobj(observables))
    means = expectation_stack(rho, observables)
    frames = frame_stack(eigenvectors, observables, means)
    dependent = _dependent(real_coordinates(frames), commutator_rank(dim, real) + dim)
    tildes = tuple(tilde(f) for f in functions)
    grams = batched_grams(eigenvalues, frames, mean_table(tildes, eigenvalues) if tildes else ())
    dets = det_small(grams)
    cov_det, qfi_det = dets[0], dets[1:]
    gap = cov_det - qfi_det
    scale = np.where(np.abs(cov_det) > 1.0, np.abs(cov_det), 1.0)
    return BatchReport(
        cov_gram=grams[0],
        qfi_gram=grams[1:],
        cov_det=cov_det,
        qfi_det=qfi_det,
        gap=gap,
        scale=scale,
        volume_qfi=_volume(qfi_det),
        robertson_det=_robertson(rho, observables) if n % 2 == 0 else None,
        dependent=dependent,
        main_holds=gap >= -MAIN_INEQUALITY_SLACK * scale,
        equality_consistent=~dependent | (np.abs(gap) <= EQUALITY_RTOL * scale),
        rank_deficient=n > commutator_rank(dim, real),
    )


def _dependent(x, span: int) -> np.ndarray:
    """Per sample, whether the smallest singular value of its (n, m) real
    coordinates, as the stacked SVD computes it, is below DEPENDENCE_SV_TOL.

    The real coordinates are a Frobenius isometry of the centered observables,
    which lie in a ``span`` of d^2 dimensions, or d(d+1)/2 when the state and
    every observable are real symmetric, and centering leaves them rank
    <= span - 1.  So n >= span is dependent with no SVD (there the SVD's own
    value, about eps * sigma_max, would pass the threshold, and the SVD alone
    say "independent", once sigma_max exceeds ~1e8).  Otherwise a Gram screen
    clears the samples whose SVD verdict is certainly "independent" and the
    SVD decides the rest, which gives each sample its SVD flag whatever the
    batch.
    """
    n = x.shape[1]
    if n >= span:
        return np.ones(len(x), dtype=bool)
    # With G = X X^T (eigenvalues sigma^2, trace T), sigma_min^2 >=
    # det G / T^(n-1), since each other sigma^2 <= T.  The stacked SVD returns
    # the singular values of X + dX with |dX| <= p eps sigma_max <= p eps sqrt(T),
    # p a modest function of m <= 64 and n <= 8 (backward stability), so
    # sigma_min >= TOL + c eps sqrt(T) with c = 64 >= p makes it say
    # "independent"; squared, that asks at most 2 TOL^2 + 2 c^2 eps^2 T.  The
    # screen's own rounding adds to sigma^2, not to sigma: forming G
    # (length-m dot products) moves it by at most m eps T in 2-norm, det_small
    # by at most n^2 (n+1) 2^(n-2) eps T more (LU with partial pivoting:
    # growth <= 2^(n-1), entries <= T; the cofactors for n <= 3 do far
    # better), and a matrix moved by delta has its determinant moved by at most
    # (T + delta)^n - T^n ~ n delta T^(n-1) (Ipsen and Rehman, SIAM J. Matrix
    # Anal. Appl. 30, 762 (2008)), so the computed det G / T^(n-1) exceeds the
    # exact one by at most n delta.  Rounding T and the products compared is a
    # relative error under (n - 1)(m + n + 2) eps.  At n = 8, m = 64 all of it
    # is below 3e5 eps T, inside K eps T with K = 2^19, which holds
    # 2 c^2 eps^2 T many times over.  The margin of 1e3 on TOL leaves room for
    # a p far above c wherever 2 (margin TOL)^2 dominates the edge.  An
    # overflowed determinant clears nothing, nor does a zero trace (0 > 0).
    g = x @ x.swapaxes(-1, -2)
    trace = g.diagonal(0, -2, -1).sum(-1)
    det = det_small(g)
    edge = 2 * (_SCREEN_MARGIN * DEPENDENCE_SV_TOL) ** 2 + 2**19 * np.finfo(np.float64).eps * trace
    rest = ~((det > edge * trace ** (n - 1)) & np.isfinite(det))
    if rest.any():
        rest[rest] = np.linalg.svd(x[rest], compute_uv=False)[:, -1] < DEPENDENCE_SV_TOL
    return rest


def batched_grams(eigenvalues, frames, tables):
    """One (1 + F, B, n, n) array: the covariance Grams with entries
    Cov(A_h, A_j), then per tilde mean table the metric-bound Grams with
    entries Corr_f(A_h, A_j).

    ``eigenvalues`` is (B, d), ``frames`` a (B, n, d, d) eigenframe stack and
    ``tables`` an (F, B, d, d) stack of tilde mean tables (or an empty
    sequence), reduced one at a time so that the largest temporary here is the
    (B, n(n+1)/2, d, d) overlap stack of all pairs h <= j.  Each entry sums
    its matrix's terms in the order a single ``np.sum`` uses, so it does not
    depend on the batch.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    weights = 0.5 * (lam[:, :, None] + lam[:, None, :])
    batch, n = frames.shape[:2]
    rows, cols = pair_indices(n)
    # formed in place: the (B, P, d, d) temporary this saves, P = n(n+1)/2,
    # offsets the (F, B, d, d) tables held meanwhile in the kernel's peak memory
    overlap = frames.take(rows, axis=1)
    overlap *= frames.take(cols, axis=1).swapaxes(-1, -2)
    overlap = np.real(overlap)
    sums = np.empty((1 + len(tables), batch, len(rows)))
    sums[0] = c = _entry_sums(weights[:, None] * overlap)
    for k, table in enumerate(tables, 1):
        sums[k] = c - _entry_sums(table[:, None] * overlap)
    return sums.take(pair_slots(n), axis=-1).reshape(*sums.shape[:-1], n, n)


def _entry_sums(x):
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]).sum(axis=-1)


def evaluate_one(state: DensityMatrix, observables, functions) -> BatchReport:
    """Batch-of-one kernel call on a validated (n, d, d) observable stack."""
    return evaluate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
                          observables[None], functions)


def _volume_report(out: BatchReport) -> VolumeReport:
    rob = None if out.robertson_det is None else float(out.robertson_det[0])
    dets = (float(out.cov_det[0]), float(out.qfi_det[0, 0]), float(out.gap[0, 0]))
    return VolumeReport(out.cov_gram[0], out.qfi_gram[0, 0], *dets, rob)


def volume_gap(spec: GramSpec) -> VolumeReport:
    """Fill both Grams, both determinants, and the gap.

    The Robertson determinant is included for even observable counts.  The
    gap's independent route, the H*K decomposition, is the test oracle
    oracles.gap_from_decomposition.
    """
    return _volume_report(evaluate_one(spec.state, spec.observables, (spec.function,)))


def robertson_bound(state: DensityMatrix, observables) -> float:
    """Determinant of the averaged commutator matrix; exactly 0 for odd N.

    The matrix entries are -(i/2) Tr(rho [A_h, A_j]), real and antisymmetric,
    so the determinant vanishes identically for odd N and gives the classical
    lower bound for even N.  This is the kernel's own value on a batch of one.
    """
    obs = observable_stack(state, observables)
    det = evaluate_one(state, obs, ()).robertson_det
    return 0.0 if det is None else float(det[0])


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

    Thresholds the smallest singular value of their real coordinates (see
    matrices.real_coordinates) at DEPENDENCE_SV_TOL; self-adjoint matrices
    form a real vector space, so dependence is over real coefficients.  This
    is the kernel's own verdict on a batch of one: a Gram-determinant screen
    decides most inputs and the SVD the rest, with the SVD's own flag.
    """
    obs = observable_stack(state, observables)
    return bool(evaluate_one(state, obs, ()).dependent[0])


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
    The function and its partner share one kernel call; a partner that is
    not regular is refused before it.
    """
    functions = (spec.function,)
    if partner is not None:
        functions += (require_regular(partner, "monotonicity partner"),)
    out = evaluate_one(spec.state, spec.observables, functions)
    pairs = order_pairs(functions)
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
